"""Eth2-scale scaling bench: the ``mvcom eth2scale`` runner.

Drives one epoch (:meth:`repro.chain.elastico.ElasticoSimulation.run_epoch`)
per network size and records the scaling curve
``nodes -> {epoch wall, peak RSS, SE solve wall}``.  The preset tops out
at the beacon-chain shape -- ``SHARD_COUNT = 2**10`` shards of
``MAX_PERIOD_COMMITTEE_SIZE = 2**7`` members, i.e. 131 072 validators --
which the chunked fastpath kernels (:mod:`repro.chain.fastpath`) and the
memory-bounded crosslink aggregator (:mod:`repro.chain.final`) keep under
a 2 GiB peak-RSS budget.

Wall clocks and ``getrusage`` live here legitimately: the harness sits
outside the replayable packages (rule MV102 scopes ``repro.chain`` /
``repro.core`` / ``repro.sim``).  Peak RSS via
:func:`repro.harness.tracing.sample_resources` is process-lifetime
*monotone* (``ru_maxrss`` never decreases), so the curve is measured in
ascending size order and each point's reading is an upper bound that the
largest size dominates -- the budget assertion binds where it matters.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from typing import Optional, Sequence

import numpy as np

from repro.chain.elastico import ElasticoSimulation
from repro.chain.fastpath import available_cpus
from repro.chain.params import ChainParams
from repro.core.problem import MVComConfig
from repro.core.se import SEConfig, StochasticExploration
from repro.harness.presets import PRESETS
from repro.harness.tracing import emit_resource_gauge, sample_resources
from repro.obs.sinks import RingBufferSink
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry

#: Default shape (the preset is the single source of truth).
_PRESET = PRESETS["eth2scale"]


def run_eth2scale(
    network_sizes: Optional[Sequence[int]] = None,
    committee_size: Optional[int] = None,
    max_batch_bytes: Optional[int] = None,
    capacity_per_committee: Optional[int] = None,
    seed: int = 0,
    gamma: Optional[int] = None,
    se_iterations: Optional[int] = None,
    out_path: Optional[str] = "BENCH_eth2scale.json",
    telemetry=NULL_TELEMETRY,
) -> dict:
    """Measure the eth2-scale curve and (optionally) write the bench record.

    One streaming epoch per size, ascending (see the module docstring for
    why the order matters to ``ru_maxrss``).  The final committee runs the
    real SE scheduler (the default batched engine) and its solve wall is
    split out of the epoch wall, so the record separates chain-substrate
    time from scheduler time.  Each point also carries the stage-3 fallback count
    (committees replayed off the batched kernel), tallied from the chain's
    own ``chain.fastpath.fallback`` events, and the kernel's chunk rows,
    worker count and view-change rows (committees whose leading members
    are Byzantine) from its ``chain.fastpath.chunks`` event, next to the
    CPUs the process may use.  Returns the record dict that
    also lands in ``out_path`` when given.
    """
    sizes = tuple(
        int(n) for n in (network_sizes or _PRESET.extras["network_sizes"])
    )
    if sizes != tuple(sorted(sizes)):
        raise ValueError("network_sizes must be ascending (ru_maxrss is monotone)")
    c = int(committee_size or _PRESET.extras["committee_size"])
    budget = int(max_batch_bytes or _PRESET.extras["max_batch_bytes"])
    per_committee = int(
        capacity_per_committee or _PRESET.extras["capacity_per_committee"]
    )
    iterations = int(se_iterations or _PRESET.se_iterations)
    replicas = int(gamma or _PRESET.gamma)
    records = RingBufferSink()
    if getattr(telemetry, "enabled", False):
        telemetry.add_sink(records)
        hub = telemetry
    else:
        hub = Telemetry(sinks=[records])

    points = []
    for num_nodes in sizes:
        params = ChainParams(
            num_nodes=num_nodes,
            committee_size=c,
            seed=seed,
            chain_engine="fastpath",
            max_batch_bytes=budget,
        )
        solver = StochasticExploration(
            SEConfig(
                num_threads=replicas,
                max_iterations=iterations,
                convergence_window=min(iterations, _PRESET.convergence_window),
                seed=seed,
            )
        )
        se_wall = {"s": 0.0, "solves": 0}

        def scheduler(instance) -> np.ndarray:
            started = time.perf_counter()
            mask = solver.solve(instance).best_mask
            se_wall["s"] += time.perf_counter() - started
            se_wall["solves"] += 1
            return mask

        sim = ElasticoSimulation(
            params,
            mvcom_config=MVComConfig(
                capacity=per_committee * max(params.num_committees, 1)
            ),
            scheduler=scheduler,
            telemetry=hub,
        )
        records.clear()
        started = time.perf_counter()
        outcome = sim.run_epoch()
        epoch_wall = time.perf_counter() - started
        sample = sample_resources()
        if telemetry is not NULL_TELEMETRY and getattr(telemetry, "enabled", False):
            emit_resource_gauge(telemetry, wall_s=epoch_wall)
        final = outcome.final
        fallbacks = Counter(
            record["reason"]
            for record in records.records
            if record.get("name") == "chain.fastpath.fallback"
        )
        # The kernel's chunk plan as the chain reported it (absent when no
        # committee was kernel-eligible).
        plan = next(
            (r for r in records.records if r.get("name") == "chain.fastpath.chunks"), {}
        )
        points.append(
            {
                "nodes": num_nodes,
                "committees": params.num_committees,
                "committees_formed": len(outcome.committees),
                "shards_submitted": outcome.shards_submitted,
                "shards_permitted": final.permitted_committees if final else 0,
                "permitted_txs": final.permitted_txs if final else 0,
                "epoch_wall_s": epoch_wall,
                "se_wall_s": se_wall["s"],
                "se_solves": se_wall["solves"],
                "fallbacks": sum(fallbacks.values()),
                "fallbacks_by_reason": dict(sorted(fallbacks.items())),
                "peak_rss_kib": sample["peak_rss_kib"] if sample else None,
                "kernel_chunk_rows": plan.get("chunk_rows"),
                "kernel_workers": plan.get("workers"),
                "view_change_rows": plan.get("view_change_rows"),
                "cpu_count": available_cpus(),
            }
        )

    record = {
        "figure": "eth2scale",
        "committee_size": c,
        "max_batch_bytes": budget,
        "capacity_per_committee": per_committee,
        "gamma": replicas,
        "se_iterations": iterations,
        "seed": seed,
        "points": points,
    }
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return record


def render_points(points: Sequence[dict]) -> str:
    """Fixed-width text table of the scaling curve (for the CLI)."""
    header = (
        f"{'nodes':>8} {'formed':>7} {'submitted':>9} {'permitted':>9} "
        f"{'view-chg':>8} {'fallbacks':>9} {'epoch wall':>11} {'SE wall':>9} {'peak RSS':>10}"
    )
    lines = [header]
    for point in points:
        rss = point["peak_rss_kib"]
        rss_text = f"{rss / 1024:.0f}MiB" if rss is not None else "n/a"
        lines.append(
            f"{point['nodes']:>8} {point['committees_formed']:>7} "
            f"{point['shards_submitted']:>9} {point['shards_permitted']:>9} "
            f"{point['view_change_rows'] or 0:>8} {point['fallbacks']:>9} "
            f"{point['epoch_wall_s']:>10.2f}s "
            f"{point['se_wall_s']:>8.2f}s "
            f"{rss_text:>10}"
        )
    return "\n".join(lines)


def run_eth2scale_cli(args) -> int:
    """``mvcom eth2scale``: run the curve with CLI overrides, print, write."""
    from repro.harness.tracing import build_telemetry

    sizes = None
    if args.network_sizes:
        sizes = tuple(int(part) for part in args.network_sizes.split(",") if part)
    telemetry = build_telemetry(args.trace) if args.trace else NULL_TELEMETRY
    record = run_eth2scale(
        network_sizes=sizes,
        committee_size=args.committee_size,
        max_batch_bytes=args.max_batch_bytes,
        seed=args.seed,
        gamma=args.gamma,
        se_iterations=args.iterations,
        out_path=args.out or "BENCH_eth2scale.json",
        telemetry=telemetry,
    )
    print(f"eth2scale: committee_size={record['committee_size']}, "
          f"max_batch_bytes={record['max_batch_bytes']}, "
          f"Gamma={record['gamma']}, seed={record['seed']}")
    print(render_points(record["points"]))
    print(f"[record written to {args.out or 'BENCH_eth2scale.json'}]")
    if args.trace:
        print(f"[trace written to {args.trace}]")
    return 0
