"""Churn-storm throughput: how many armed storms the harness survives per second.

The fault-injection harness is only useful if it is cheap enough to run on
every CI push, so this bench measures **survived storms per second** — one
storm being a full SE solve under a 40-event schedule with every default
invariant armed — and asserts:

1. every storm in the battery survives (or degrades gracefully) — the CI
   acceptance property that the dynamic-path bugfixes hold under churn;
2. the armed probe's cost stays small: a probed solve is at most 1.5x the
   bare solve on the same schedule and the same solver the storm builds
   (the probe only observes at event boundaries, never inside the race
   loop).
"""

import time

import numpy as np

from repro.core.dynamics import DynamicSchedule
from repro.faultinject import StormConfig, build_storm_instance, generate_storm, run_storm
from repro.faultinject.runner import storm_solver
from repro.obs.telemetry import NULL_TELEMETRY
from repro.sim.rng import RandomStreams

NUM_STORMS = 8
BASE = StormConfig(
    seed=0, num_events=40, num_committees=24, gamma=4,
    max_iterations=500, convergence_window=200,
)


def _battery():
    return [
        StormConfig(
            seed=seed,
            num_events=BASE.num_events,
            num_committees=BASE.num_committees,
            gamma=BASE.gamma,
            max_iterations=BASE.max_iterations,
            convergence_window=BASE.convergence_window,
        )
        for seed in range(NUM_STORMS)
    ]


def test_survived_storms_per_second(perf_recorder):
    configs = _battery()

    started = time.perf_counter()
    outcomes = [run_storm(config) for config in configs]
    wall_s = time.perf_counter() - started

    survived = sum(1 for outcome in outcomes if outcome.status == "survived")
    infeasible = sum(1 for outcome in outcomes if outcome.status == "infeasible")
    violated = [outcome for outcome in outcomes if outcome.status == "violated"]
    assert not violated, f"storms violated invariants: {[o.signature for o in violated]}"
    assert survived > 0

    checks = sum(outcome.checks_run for outcome in outcomes)
    storms_per_s = len(configs) / wall_s

    # Probe overhead: same schedule, bare solve vs armed storm run.
    config = configs[0]
    instance = build_storm_instance(config)
    events = generate_storm(instance, config, RandomStreams(config.seed))

    def bare():
        storm_solver(config, NULL_TELEMETRY).solve(
            instance, schedule=DynamicSchedule(events=list(events))
        )

    def armed():
        run_storm(config, events=events)

    bare_s = min(_timed(bare) for _ in range(3))
    armed_s = min(_timed(armed) for _ in range(3))
    overhead = armed_s / bare_s

    print()
    print("churn-storm battery (default invariants armed)")
    print(
        f"  storms: {len(configs)}  survived: {survived}  "
        f"infeasible (graceful): {infeasible}"
    )
    print(f"  boundary checks: {checks}")
    print(
        f"  throughput: {storms_per_s:.2f} survived storms/s "
        f"({wall_s / len(configs) * 1e3:.0f} ms per storm)"
    )
    print(f"  probe overhead: {overhead:.2f}x bare solve")
    perf_recorder(
        "faultinject_storms",
        wall_s=wall_s / len(configs),
        storms=len(configs),
        survived=survived,
        infeasible_graceful=infeasible,
        boundary_checks=checks,
        storms_per_s=round(storms_per_s, 3),
        probe_overhead_x=round(overhead, 3),
    )
    assert overhead < 1.5, f"armed probe costs {overhead:.2f}x the bare solve"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_storm_results_reproducible_across_battery():
    """Same battery twice -> byte-identical best masks (CI flake guard)."""
    configs = _battery()[:3]
    first = [run_storm(config) for config in configs]
    second = [run_storm(config) for config in configs]
    for a, b in zip(first, second):
        assert a.status == b.status
        if a.result is not None:
            assert np.array_equal(a.result.best_mask, b.result.best_mask)
            assert a.result.best_utility == b.result.best_utility
