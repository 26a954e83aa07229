"""``mvcom serve`` — the long-running warm-started scheduling service.

One process owns the whole epoch lifecycle: an :class:`EpochStream`
mempool feeder replays the trace at a configurable rate, every epoch's
instance goes through one SE solve, and — in the default warm mode — the
solve is seeded from the previous epoch's :class:`SEWarmState` so the Γ
replicas never re-bootstrap from scratch.  The PR 7 streaming
observability stack (:class:`MetricsAggregator` + :class:`SloTracker`)
rides along as live telemetry sinks, so steady-state p50/p99 decision
latency and SLO violations come out of the same run that produced the
schedule.

Cold mode (``--cold``) constructs a fresh solver per epoch with the seed
``derive_seed(seed, "serve-epoch-{e}")`` and calls the plain per-epoch
``solve()`` path — byte-identical to invoking today's standalone solver
on the same instance, which is what the CI ``serve-smoke`` parity check
pins.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.core.se import SEConfig, SEResult, StochasticExploration
from repro.data.stream import EpochStream, EpochStreamConfig
from repro.harness.tracing import build_telemetry
from repro.obs.metrics import MetricsAggregator
from repro.obs.slo import SLO_SPECS, SloTracker
from repro.sim.rng import derive_seed

__all__ = [
    "ServeConfig",
    "EpochRow",
    "ServeReport",
    "run_serve",
    "run_serve_cli",
    "run_serve_comparison",
    "rounds_to_target",
]


@dataclass(frozen=True)
class ServeConfig:
    """One serve run: stream shape x solver shape x mode."""

    epochs: int = 8
    num_committees: int = 60
    rate: float = 1.3
    churn: float = 0.15
    growth: int = 0
    gamma: int = 10
    seed: int = 0
    max_iterations: int = 1500
    convergence_window: int = 300
    engine: str = "vectorized"
    warm: bool = True
    alpha: float = 1.5
    capacity: Optional[int] = None
    trace_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        SEConfig(engine=self.engine)  # raises unless it names the race kernel

    def stream_config(self) -> EpochStreamConfig:
        return EpochStreamConfig(
            num_committees=self.num_committees,
            capacity=self.capacity,
            alpha=self.alpha,
            seed=self.seed,
            rate=self.rate,
            churn=self.churn,
            growth=self.growth,
        )

    def solver_config(self, epoch: int) -> SEConfig:
        """Per-epoch solver seed — shared by warm (epoch 0) and cold paths."""
        return SEConfig(
            num_threads=self.gamma,
            max_iterations=self.max_iterations,
            convergence_window=self.convergence_window,
            seed=derive_seed(self.seed, f"serve-epoch-{epoch}"),
            engine=self.engine,
        )


@dataclass(frozen=True)
class EpochRow:
    """Steady-state measurements for one served epoch."""

    epoch: int
    committees: int
    scheduled: int
    utility: float
    weight: int
    iterations: int
    converged: bool
    wall_s: float
    wall_to_99_s: float
    engine: str
    txs_fed: int
    joined: int
    departed: int

    def to_json(self) -> dict:
        return {
            "epoch": self.epoch,
            "committees": self.committees,
            "scheduled": self.scheduled,
            "utility": round(self.utility, 6),
            "weight": self.weight,
            "iterations": self.iterations,
            "converged": self.converged,
            "wall_s": round(self.wall_s, 6),
            "wall_to_99_s": round(self.wall_to_99_s, 6),
            "engine": self.engine,
            "txs_fed": self.txs_fed,
            "joined": self.joined,
            "departed": self.departed,
        }


@dataclass
class ServeReport:
    """Aggregate service-level numbers for one serve run."""

    config: ServeConfig
    rows: List[EpochRow]
    solves_per_s: float
    tx_scheduled_per_s: float
    decision_p50_s: float
    decision_p99_s: float
    mean_wall_to_99_s: float
    final_utility: float
    slo_violations: List[dict] = field(default_factory=list)
    #: Full per-epoch results, only when ``collect_results`` was requested
    #: (utility traces feed the warm-vs-cold comparison); never serialised.
    results: List[SEResult] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "mode": "warm" if self.config.warm else "cold",
            "epochs": self.config.epochs,
            "gamma": self.config.gamma,
            "num_committees": self.config.num_committees,
            "churn": self.config.churn,
            "growth": self.config.growth,
            "engine": self.config.engine,
            "seed": self.config.seed,
            "solves_per_s": round(self.solves_per_s, 4),
            "tx_scheduled_per_s": round(self.tx_scheduled_per_s, 2),
            "decision_p50_s": round(self.decision_p50_s, 6),
            "decision_p99_s": round(self.decision_p99_s, 6),
            "mean_wall_to_99_s": round(self.mean_wall_to_99_s, 6),
            "final_utility": round(self.final_utility, 6),
            "slo_violations": self.slo_violations,
            "rows": [row.to_json() for row in self.rows],
        }


def time_to_99(result: SEResult, wall_s: float) -> float:
    """Wall seconds until the incumbent reached 99% of its final utility.

    The trace is per-round, so the wall estimate prorates the measured
    solve wall by the first round index at 99% — the same convention the
    convergence bench uses for time-to-quality comparisons.
    """
    trace = result.utility_trace
    if len(trace) == 0:
        return wall_s
    final = trace[-1]
    threshold = 0.99 * final if final >= 0 else final / 0.99
    first = int(np.argmax(trace >= threshold))
    return wall_s * (first + 1) / len(trace)


def _scheduled_ids(result: SEResult) -> List[int]:
    """Shard ids of the permitted committees (next epoch's drain set)."""
    instance = result.final_instance
    return [
        instance.shard_ids[i]
        for i in range(instance.num_shards)
        if result.best_mask[i]
    ]


def attach_serve_sinks(telemetry) -> Tuple[MetricsAggregator, SloTracker]:
    """Attach serve's live sinks to ``telemetry``: aggregator, then SLOs.

    The tracker evaluates :data:`repro.obs.slo.SLO_SPECS` against the
    aggregator and emits its violations back into ``telemetry``.
    """
    aggregator = MetricsAggregator()
    telemetry.add_sink(aggregator)
    tracker = SloTracker(SLO_SPECS, aggregator, telemetry=telemetry)
    telemetry.add_sink(tracker)
    return aggregator, tracker


def run_serve(
    config: ServeConfig, telemetry=None, collect_results: bool = False
) -> ServeReport:
    """Run the steady-state service loop and aggregate its SLIs.

    ``telemetry`` defaults to the harness's standard hub (ring buffer +
    optional JSONL at ``config.trace_path``); the aggregation and SLO
    stack is attached to whichever hub runs as live sinks, and the
    report's decision p50/p99 and solves/s are read off the aggregator's
    ``serve.decision_latency_s`` series.  ``collect_results`` keeps every
    epoch's full :class:`SEResult` on the report (utility traces for the
    warm-vs-cold convergence comparison); off by default so long serve
    runs don't accumulate per-round arrays.

    A hub built here is closed before returning, so the JSONL trace at
    ``config.trace_path`` is complete as soon as the call returns.  A hub
    the caller passes in stays open: the caller owns it.
    """
    if telemetry is not None:
        return _serve_loop(config, telemetry, collect_results)
    telemetry = build_telemetry(config.trace_path)
    try:
        return _serve_loop(config, telemetry, collect_results)
    finally:
        telemetry.close()


def _serve_loop(config: ServeConfig, telemetry, collect_results: bool) -> ServeReport:
    """:func:`run_serve`'s body on a hub whose lifetime the caller owns."""
    aggregator, tracker = attach_serve_sinks(telemetry)

    stream = EpochStream(config.stream_config())
    warm_solver = StochasticExploration(config.solver_config(0), telemetry)
    previous: Optional[SEResult] = None
    permitted: List[int] = []
    rows: List[EpochRow] = []
    total_scheduled_tx = 0

    results: List[SEResult] = []
    for epoch in range(config.epochs):
        tick = stream.advance(permitted)
        start = time.perf_counter()
        if config.warm:
            result = warm_solver.solve(tick.instance, warm=previous)
            previous = result
        else:
            solver = StochasticExploration(config.solver_config(epoch), telemetry)
            result = solver.solve(tick.instance)
        wall = time.perf_counter() - start
        wall99 = time_to_99(result, wall)
        if collect_results:
            results.append(result)
        permitted = _scheduled_ids(result)
        total_scheduled_tx += int(result.best_weight)
        telemetry.observe("serve.decision_latency_s", wall, epoch=epoch)
        telemetry.event(
            "serve.epoch",
            epoch=epoch,
            committees=tick.live,
            scheduled=len(permitted),
            utility=result.best_utility,
            weight=result.best_weight,
            iterations=result.iterations,
            engine=result.engine,
            warm=config.warm,
            joined=len(tick.joined),
            departed=len(tick.departed),
        )
        rows.append(
            EpochRow(
                epoch=epoch,
                committees=tick.live,
                scheduled=len(permitted),
                utility=result.best_utility,
                weight=int(result.best_weight),
                iterations=result.iterations,
                converged=result.converged,
                wall_s=wall,
                wall_to_99_s=wall99,
                engine=result.engine,
                txs_fed=tick.txs_fed,
                joined=len(tick.joined),
                departed=len(tick.departed),
            )
        )

    violations = tracker.check()
    latencies = aggregator.series("hist", "serve.decision_latency_s").sketch
    wall = max(latencies.total, 1e-9)
    return ServeReport(
        config=config,
        rows=rows,
        solves_per_s=len(rows) / wall,
        tx_scheduled_per_s=total_scheduled_tx / wall,
        decision_p50_s=latencies.quantile(0.5),
        decision_p99_s=latencies.quantile(0.99),
        mean_wall_to_99_s=float(np.mean([row.wall_to_99_s for row in rows])),
        final_utility=rows[-1].utility,
        slo_violations=violations,
        results=results,
    )


def rounds_to_target(trace: np.ndarray, target: float) -> int:
    """First race round (1-based) at which the incumbent reached ``target``.

    Falls back to the trace length when the run never got there — the
    comparison then charges the full solve, which only *understates* the
    slower side's deficit.
    """
    hit = trace >= target
    return int(np.argmax(hit)) + 1 if hit.any() else len(trace)


def run_serve_comparison(
    config: Optional[ServeConfig] = None, out_path: Optional[str] = None
) -> dict:
    """Warm-vs-cold steady state on the same drifting committee stream.

    Runs the service loop twice — warm (one solver chained through
    :class:`SEWarmState`) and cold (a fresh solver per epoch, today's
    standalone path) — over byte-identical epoch streams, then compares
    time-to-99%-utility per epoch.  The target is *shared*:
    ``0.99 * min(warm_final, cold_final)`` for each epoch, so neither run
    is graded against a finish line only it can see.  Epoch 0 is excluded
    (both runs bootstrap identically there, by construction).

    The primary speedup is measured in race rounds — machine-independent,
    so the recorded artifact reproduces anywhere — with the wall-clock
    prorated equivalent alongside.  Writes ``out_path`` when given and
    returns the record.
    """
    if config is None:
        config = ServeConfig()
    warm_report = run_serve(replace(config, warm=True), collect_results=True)
    cold_report = run_serve(replace(config, warm=False), collect_results=True)
    epochs = []
    warm_rounds: List[int] = []
    cold_rounds: List[int] = []
    for epoch in range(1, config.epochs):
        warm_trace = warm_report.results[epoch].utility_trace
        cold_trace = cold_report.results[epoch].utility_trace
        target = 0.99 * min(float(warm_trace[-1]), float(cold_trace[-1]))
        w = rounds_to_target(warm_trace, target)
        c = rounds_to_target(cold_trace, target)
        warm_rounds.append(w)
        cold_rounds.append(c)
        epochs.append(
            {
                "epoch": epoch,
                "target_utility": round(target, 6),
                "warm_rounds_to_99": w,
                "cold_rounds_to_99": c,
                "warm_final_utility": round(float(warm_trace[-1]), 6),
                "cold_final_utility": round(float(cold_trace[-1]), 6),
            }
        )
    speedup_rounds = float(np.mean(cold_rounds) / max(np.mean(warm_rounds), 1e-9))
    speedup_wall = float(
        cold_report.mean_wall_to_99_s / max(warm_report.mean_wall_to_99_s, 1e-9)
    )
    record = {
        "bench": "serve",
        "gamma": config.gamma,
        "num_committees": config.num_committees,
        "churn": config.churn,
        "rate": config.rate,
        "epochs": config.epochs,
        "seed": config.seed,
        "engine": config.engine,
        "warm_speedup_rounds_to_99": round(speedup_rounds, 4),
        "warm_speedup_wall_to_99": round(speedup_wall, 4),
        "mean_warm_rounds_to_99": round(float(np.mean(warm_rounds)), 2),
        "mean_cold_rounds_to_99": round(float(np.mean(cold_rounds)), 2),
        "per_epoch": epochs,
        "warm": warm_report.to_json(),
        "cold": cold_report.to_json(),
    }
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return record


# ------------------------------------------------------------------ #
# CLI glue
# ------------------------------------------------------------------ #
def run_serve_cli(args) -> int:
    """``mvcom serve``: run the service loop and print/persist the report."""
    config = ServeConfig(
        epochs=args.epochs if args.epochs is not None else 8,
        num_committees=args.committees,
        rate=args.rate,
        churn=args.churn,
        growth=args.growth,
        gamma=args.gamma,
        seed=args.seed,
        max_iterations=args.iterations,
        warm=not args.cold,
        capacity=args.capacity,
        trace_path=args.trace,
    )
    mode = "warm" if config.warm else "cold"
    print(
        f"serve: {config.epochs} epochs x {config.num_committees} committees "
        f"(churn {config.churn}, growth {config.growth:+d}), "
        f"Gamma={config.gamma}, engine={config.engine}, mode={mode}"
    )
    report = run_serve(config)
    for row in report.rows:
        print(
            f"  epoch {row.epoch:3d}: {row.committees:4d} committees, "
            f"{row.scheduled:4d} scheduled, u={row.utility:14.2f}, "
            f"{row.iterations:5d} iters, {row.wall_s*1e3:8.1f} ms "
            f"[{row.engine}]"
        )
    print(
        f"steady state: {report.solves_per_s:.2f} solves/s, "
        f"{report.tx_scheduled_per_s:,.0f} tx/s, "
        f"decision p50 {report.decision_p50_s*1e3:.1f} ms / "
        f"p99 {report.decision_p99_s*1e3:.1f} ms, "
        f"mean time-to-99% {report.mean_wall_to_99_s*1e3:.1f} ms"
    )
    if report.slo_violations:
        print(f"SLO violations: {len(report.slo_violations)}")
        for violation in report.slo_violations:
            print(f"  {violation}")
    else:
        print("SLOs: all passing")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[serve report written to {args.out}]")
    if args.trace:
        print(f"[trace written to {args.trace}]")
    return 1 if report.slo_violations else 0
