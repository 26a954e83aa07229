"""``python -m repro.analysis`` — lint the tree, exit non-zero on findings.

Also reachable as ``mvcom lint``; the harness CLI forwards its arguments
here verbatim.  Supported modes::

    python -m repro.analysis src/                  # text report
    python -m repro.analysis --annotate src/       # + GitHub workflow commands
    python -m repro.analysis --list-rules          # the rule registry

Findings are suppressed only by inline ``# repro: ignore[MVxxx]`` pragmas.
Exit codes: 0 clean, 1 any finding, 2 usage errors (e.g. a missing path).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.analysis.diagnostics import render_annotations, render_report
from repro.analysis.engine import registered_rules, run_analysis


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the registered lint rules over ``paths``; exit 1 on any finding."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="MVCom determinism & contract linter (rules MV001-MV102)",
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or directories to lint")
    parser.add_argument("--list-rules", action="store_true", help="print the rule registry and exit")
    parser.add_argument(
        "--annotate",
        action="store_true",
        help="also print GitHub ::error workflow commands (PR annotations)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, rule_class in registered_rules().items():
            print(f"{rule_id}  {rule_class.description}")
        return 0

    missing = [p for p in args.paths if not os.path.exists(p)]
    if missing:
        for path in missing:
            print(f"repro.analysis: error: no such file or directory: {path}", file=sys.stderr)
        return 2

    diagnostics = run_analysis(args.paths)
    report = render_report(diagnostics)
    if report:
        print(report)
    else:
        print(f"repro.analysis: clean ({', '.join(args.paths)})")
    if args.annotate and diagnostics:
        print(render_annotations(diagnostics))
    return 1 if diagnostics else 0


if __name__ == "__main__":
    sys.exit(main())
