"""Telemetry overhead on the SE hot path (acceptance gate for repro.obs).

Four claims, all on a 100-committee solve:

1. **Determinism** -- with the default ``NULL_TELEMETRY`` and with a live
   hub attached, ``StochasticExploration.solve`` returns byte-identical
   results on a fixed seed (instrumentation draws no randomness and never
   branches on telemetry state).
2. **Null-path overhead < 5%** -- the instrumentation a Null run pays is
   exactly: one hoisted ``enabled`` load per round, a ``transitions``
   counter increment and a ``last_swap`` tuple assignment per fired
   replica.  We micro-time those very operations at the solve's measured
   round/firing counts and bound their share of the solve wall time.
3. **Enabled-path + aggregation overhead < 10%** -- a live hub fanning
   into a streaming :class:`~repro.obs.metrics.MetricsAggregator` sink
   (sketch adds, rate bookkeeping, windowed means on every record) stays
   within 10% of the Null solve, so ``mvcom serve``-style always-on
   metrics are affordable.
4. **Serve hub overhead < 10%** -- a warm Γ=25 solve (epoch 1 of the
   ``mvcom serve`` stream) under the hub ``run_serve`` attaches (ring
   buffer + ``MetricsAggregator`` + ``SloTracker``) stays within 10% of
   the same warm solve on ``NULL_TELEMETRY``.  The race's transitions
   reach those sinks as one columnar record per round.
"""

import copy
import time

import numpy as np

from repro.core.se import SEConfig, StochasticExploration
from repro.data.stream import EpochStream
from repro.data.workload import WorkloadConfig, generate_epoch_workload
from repro.harness.serve import ServeConfig, attach_serve_sinks
from repro.harness.tracing import build_telemetry
from repro.obs.metrics import MetricsAggregator
from repro.obs.sinks import RingBufferSink
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry

NUM_COMMITTEES = 100
GAMMA = 10
CONFIG = SEConfig(num_threads=GAMMA, max_iterations=600, convergence_window=300, seed=0)


def _workload():
    return generate_epoch_workload(
        WorkloadConfig(num_committees=NUM_COMMITTEES, capacity=1000 * NUM_COMMITTEES, seed=0)
    )


def _solve(instance, telemetry=NULL_TELEMETRY):
    return StochasticExploration(CONFIG, telemetry=telemetry).solve(instance)


def _best_interleaved(n, fns):
    """Best-of-``n`` for several paths, measured round-robin.

    Interleaving keeps a transient load spike from landing entirely on one
    path's measurements, which matters for the relative-overhead asserts
    on a busy shared box.
    """
    bests = [float("inf")] * len(fns)
    for _ in range(n):
        for index, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
            if elapsed < bests[index]:
                bests[index] = elapsed
    return bests


def test_se_telemetry_determinism_and_overhead(perf_recorder):
    instance = _workload().instance

    # -- claim 1: byte-identical results, Null vs live hub ----------------
    base = _solve(instance)
    ring = RingBufferSink()
    traced = _solve(instance, telemetry=Telemetry(sinks=[ring]))
    assert np.array_equal(base.best_mask, traced.best_mask)
    assert base.best_utility == traced.best_utility
    assert np.array_equal(base.utility_trace, traced.utility_trace)
    assert np.array_equal(base.current_trace, traced.current_trace)
    assert base.iterations == traced.iterations
    assert len(ring) > 0, "live hub captured nothing"

    # -- claim 2: Null-path instrumentation cost < 5% of the solve -------
    null_s, live_s, metrics_s = _best_interleaved(
        5,
        [
            lambda: _solve(instance),
            lambda: _solve(instance, telemetry=Telemetry(sinks=[RingBufferSink()])),
            lambda: _solve(instance, telemetry=Telemetry(sinks=[MetricsAggregator()])),
        ],
    )

    # Replay the Null path's added work at the measured scale: per round one
    # guard load + counter reset, per firing one increment + one tuple store.
    rounds = base.iterations
    firings = rounds * GAMMA
    sink = NULL_TELEMETRY
    holder = [None]
    start = time.perf_counter()
    for _ in range(rounds):
        traced_flag = sink.enabled
        transitions = 0
        for i in range(GAMMA):
            transitions += 1
            holder[0] = (i, i + 1)
            if traced_flag:  # pragma: no cover - Null path
                pass
    guard_s = time.perf_counter() - start
    overhead_pct = 100.0 * guard_s / null_s
    assert overhead_pct < 5.0, (
        f"Null-path instrumentation costs {overhead_pct:.2f}% of a "
        f"{NUM_COMMITTEES}-committee solve (budget: 5%)"
    )

    # -- claim 3: live hub + streaming MetricsAggregator sink < 10% ------
    metrics_overhead_pct = 100.0 * max(0.0, metrics_s - null_s) / null_s
    assert metrics_overhead_pct < 10.0, (
        f"live hub + MetricsAggregator costs {metrics_overhead_pct:.2f}% over "
        f"the Null solve on {NUM_COMMITTEES} committees (budget: 10%)"
    )
    aggregator = MetricsAggregator()
    _solve(instance, telemetry=Telemetry(sinks=[aggregator]))
    aggregated_series = len(aggregator.snapshot()["series"])

    perf_recorder(
        "se_convergence_100c",
        wall_s=null_s,
        trace=base.utility_trace,
        committees=NUM_COMMITTEES,
        gamma=GAMMA,
        traced_wall_s=live_s,
        traced_records=len(ring),
        null_overhead_pct=round(overhead_pct, 4),
        metrics_wall_s=metrics_s,
        metrics_overhead_pct=round(metrics_overhead_pct, 4),
        metrics_series=aggregated_series,
        firings=firings,
    )
    print()
    print(
        f"100-committee solve: null={null_s * 1e3:.1f}ms  live={live_s * 1e3:.1f}ms  "
        f"metrics={metrics_s * 1e3:.1f}ms  null-path overhead={overhead_pct:.3f}%  "
        f"metrics overhead={metrics_overhead_pct:.2f}%  records={len(ring)}  "
        f"series={aggregated_series}"
    )


# ---------------------------------------------------------------------- #
# claim 4: the serve hub on a warm Γ=25 solve
# ---------------------------------------------------------------------- #
#: The shipped ``mvcom serve`` steady-state shape (100 committees, Γ=25).
SERVE = ServeConfig(epochs=2, num_committees=100, gamma=25, churn=0.1,
                    max_iterations=2000, convergence_window=400, seed=0)


def _warm_epoch():
    """Epoch 1's instance and the epoch-0 result it warm-starts from."""
    stream = EpochStream(SERVE.stream_config())
    first = StochasticExploration(SERVE.solver_config(0)).solve(stream.advance([]).instance)
    instance = first.final_instance
    permitted = [instance.shard_ids[i] for i in np.flatnonzero(first.best_mask)]
    return stream.advance(permitted).instance, first


def _serve_hub():
    hub = build_telemetry()
    attach_serve_sinks(hub)
    return hub


def test_serve_hub_overhead_on_a_warm_solve(perf_recorder):
    instance, previous = _warm_epoch()
    repeats = 5
    # A warm solve advances the state it adopts, so every timed solve
    # gets its own copy, made outside the timing.
    warm = {path: [copy.deepcopy(previous) for _ in range(repeats + 1)]
            for path in ("null", "serve")}

    def solve(path):
        telemetry = _serve_hub() if path == "serve" else NULL_TELEMETRY
        return StochasticExploration(SERVE.solver_config(0), telemetry).solve(
            instance, warm=warm[path].pop()
        )

    base, traced = solve("null"), solve("serve")
    assert base.best_utility == traced.best_utility
    assert np.array_equal(base.utility_trace, traced.utility_trace)
    null_s, serve_s = _best_interleaved(
        repeats, [lambda: solve("null"), lambda: solve("serve")]
    )
    overhead_pct = 100.0 * max(0.0, serve_s - null_s) / null_s
    assert overhead_pct < 10.0, (
        f"the serve hub costs {overhead_pct:.2f}% over the Null warm solve "
        f"(Γ={SERVE.gamma} x {SERVE.num_committees} committees; budget: 10%)"
    )
    perf_recorder(
        "serve_hub_warm_100c",
        wall_s=null_s,
        trace=base.utility_trace,
        committees=SERVE.num_committees,
        gamma=SERVE.gamma,
        serve_hub_wall_s=serve_s,
        serve_hub_overhead_pct=round(overhead_pct, 4),
    )
    print()
    print(
        f"warm Γ={SERVE.gamma} x {SERVE.num_committees} solve: null={null_s * 1e3:.1f}ms  "
        f"serve hub={serve_s * 1e3:.1f}ms  overhead={overhead_pct:.2f}%  "
        f"rounds={base.iterations}"
    )
