"""Run one workload of the MVCom epoch benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload eth2-honest --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ledger.  Human-readable notes come first; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 when every output check passed, 1 when one failed, and 2 when
the program under ``src/`` cannot be imported (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# One process, one thread: keep numpy's BLAS from spawning a pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("eth2-honest", "byzantine-fallback", "serve-warm")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program under {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    for note in result.notes:
        print(f"# {args.workload}: {note}")
    for name, value in result.metrics.items():
        print(f"{name:36s} {value:16.6f} {result.units[name]}")
    for epoch, reason in result.tally.failures:
        where = f"epoch {epoch}" if epoch >= 0 else "run"
        print(f"FAILED {where}: {reason}")
    print(json.dumps({
        "correct": result.tally.correct,
        "attempted": result.tally.attempted,
        "failed": result.tally.failed,
        "metrics": {
            name: {"value": value, "unit": result.units[name]}
            for name, value in result.metrics.items()
        },
    }))
    return 0 if result.tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
