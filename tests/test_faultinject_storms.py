"""Tests for repro.faultinject: storms, invariants, shrinking, replay."""

import json

import numpy as np
import pytest

from repro.core.dynamics import CommitteeEvent, DynamicSchedule, EventKind
from repro.core.se import InfeasibleEpochError, SEConfig, StochasticExploration
from repro.faultinject import (
    DEFAULT_ARMED,
    StormConfig,
    StormInvariantViolation,
    StormProbe,
    build_storm_instance,
    check_trace_monotone,
    event_from_json,
    event_to_json,
    generate_storm,
    load_reproducer,
    make_reproducer,
    replay_reproducer,
    run_storm,
    save_reproducer,
    shrink_events,
    shrink_storm,
)
from repro.sim.rng import RandomStreams

from tests.conftest import random_instance

#: Small, fast storm used by most tests.
FAST = StormConfig(
    seed=3, num_events=40, num_committees=18, max_iterations=400, convergence_window=150
)

#: The config (found by seed scan) whose storm relaxes N_min mid-run —
#: the honest trigger for the opt-in strict-n-min drill invariant.
DRILL = StormConfig(
    seed=13,
    num_events=60,
    num_committees=12,
    capacity=9_000,
    max_iterations=400,
    convergence_window=150,
    leave_fraction=0.6,
    min_live=1,
)
DRILL_ARMED = DEFAULT_ARMED + ("strict-n-min",)


def _assert_results_identical(a, b):
    assert np.array_equal(a.best_mask, b.best_mask)
    assert a.best_utility == b.best_utility
    assert np.array_equal(a.utility_trace, b.utility_trace)
    assert np.array_equal(a.current_trace, b.current_trace)
    assert a.iterations == b.iterations
    assert a.events_applied == b.events_applied
    assert a.final_instance.shard_ids == b.final_instance.shard_ids


class TestGenerateStorm:
    def test_deterministic_per_seed(self):
        instance = build_storm_instance(FAST)
        first = generate_storm(instance, FAST, RandomStreams(FAST.seed))
        second = generate_storm(instance, FAST, RandomStreams(FAST.seed))
        assert first == second
        assert len(first) == FAST.num_events

    def test_different_seeds_differ(self):
        instance = build_storm_instance(FAST)
        a = generate_storm(instance, FAST, RandomStreams(1))
        b = generate_storm(instance, FAST, RandomStreams(2))
        assert a != b

    def test_events_respect_membership(self):
        """Replaying the schedule never leaves fewer than min_live committees."""
        instance = build_storm_instance(FAST)
        events = generate_storm(instance, FAST, RandomStreams(FAST.seed))
        live = set(instance.shard_ids)
        ever = set(live)
        # Stable sort by iteration = the order the solver applies them.
        for event in sorted(events, key=lambda e: e.iteration):
            if event.kind is EventKind.LEAVE:
                assert event.shard_id in ever  # duplicates target known ids
                live.discard(event.shard_id)
            else:
                assert event.tx_count is not None and event.latency is not None
                live.add(event.shard_id)
                ever.add(event.shard_id)
            assert len(live) >= FAST.min_live

    def test_storm_includes_leaves_joins_and_stragglers(self):
        instance = build_storm_instance(FAST)
        events = generate_storm(instance, FAST, RandomStreams(FAST.seed))
        kinds = {event.kind for event in events}
        assert kinds == {EventKind.LEAVE, EventKind.JOIN}
        ddl = float(instance.latencies.max())
        joins = [e for e in events if e.kind is EventKind.JOIN]
        assert any(e.latency > ddl for e in joins), "no DDL-shifting straggler"


class TestRunStorm:
    def test_same_seed_byte_identical_result(self):
        first = run_storm(FAST)
        second = run_storm(FAST)
        assert first.status == second.status == "survived"
        _assert_results_identical(first.result, second.result)
        assert first.boundaries == second.boundaries

    def test_probe_never_perturbs_the_trajectory(self):
        """Armed invariants observe only: bare solve == probed solve."""
        instance = build_storm_instance(FAST)
        events = generate_storm(instance, FAST, RandomStreams(FAST.seed))
        config = SEConfig(
            num_threads=FAST.gamma,
            max_iterations=FAST.max_iterations,
            convergence_window=FAST.convergence_window,
            seed=FAST.seed,
        )
        bare = StochasticExploration(config).solve(
            instance, schedule=DynamicSchedule(events=list(events))
        )
        probed = run_storm(FAST, events=events)
        assert probed.status == "survived"
        _assert_results_identical(bare, probed.result)

    def test_duplicate_leave_tolerated(self):
        instance = build_storm_instance(FAST)
        victim = instance.shard_ids[0]
        events = [
            CommitteeEvent(iteration=50, kind=EventKind.LEAVE, shard_id=victim),
            CommitteeEvent(iteration=60, kind=EventKind.LEAVE, shard_id=victim),
        ]
        outcome = run_storm(FAST, events=events)
        assert outcome.status == "survived"
        assert victim not in outcome.result.final_instance.shard_ids
        assert outcome.result.final_instance.num_shards == instance.num_shards - 1

    def test_leave_storm_to_n_min_stays_feasible(self):
        """Leaves down to the cardinality floor must yield a feasible result."""
        instance = build_storm_instance(FAST)
        survivors = 4
        events = [
            CommitteeEvent(iteration=20 + 10 * rank, kind=EventKind.LEAVE, shard_id=sid)
            for rank, sid in enumerate(instance.shard_ids[survivors:])
        ]
        outcome = run_storm(FAST, events=events)
        assert outcome.status == "survived"
        final = outcome.result.final_instance
        assert final.num_shards == survivors
        assert outcome.result.best_count >= final.n_min
        assert outcome.result.best_weight <= final.capacity

    def test_leave_storm_below_one_shard_degrades_gracefully(self):
        """Emptying the epoch raises InfeasibleEpochError, never a bad result."""
        instance = build_storm_instance(FAST)
        events = [
            CommitteeEvent(iteration=20 + 10 * rank, kind=EventKind.LEAVE, shard_id=sid)
            for rank, sid in enumerate(instance.shard_ids)
        ]
        outcome = run_storm(FAST, events=events)
        assert outcome.status == "infeasible"
        assert outcome.result is None

    def test_ddl_shifting_join_revalues_shards(self):
        instance = build_storm_instance(FAST)
        straggler_latency = float(instance.latencies.max()) * 1.5
        events = [
            CommitteeEvent(
                iteration=50,
                kind=EventKind.JOIN,
                shard_id=99_999,
                tx_count=1_500,
                latency=straggler_latency,
            )
        ]
        outcome = run_storm(FAST, events=events)
        assert outcome.status == "survived"
        final = outcome.result.final_instance
        assert final.ddl == pytest.approx(straggler_latency)
        # Every pre-existing shard aged by the DDL shift: values dropped.
        for shard_id in instance.shard_ids:
            before = instance.values[instance.position_of(shard_id)]
            after = final.values[final.position_of(shard_id)]
            assert after < before


class TestInvariants:
    def test_unknown_invariant_rejected(self):
        instance = random_instance(10, seed=1)
        solver = StochasticExploration(SEConfig())
        with pytest.raises(ValueError, match="unknown invariants"):
            StormProbe(solver, instance, armed=("no-such-check",))

    def test_trace_monotone_accepts_boundary_dip(self):
        trace = np.array([1.0, 2.0, 3.0, 2.5, 2.6])
        check_trace_monotone(trace, boundaries=[3])

    def test_trace_monotone_rejects_off_boundary_dip(self):
        trace = np.array([1.0, 2.0, 3.0, 2.5, 2.6])
        with pytest.raises(StormInvariantViolation, match="trace-monotone"):
            check_trace_monotone(trace, boundaries=[4])

    def test_strict_n_min_drill_fires_on_mid_storm_relaxation(self):
        assert not build_storm_instance(DRILL).n_min_relaxed
        outcome = run_storm(DRILL, armed=DRILL_ARMED)
        assert outcome.status == "violated"
        assert outcome.signature == "strict-n-min"
        assert outcome.violation.iteration is not None

    def test_default_invariants_hold_on_storm_battery(self):
        """The acceptance storm: default invariants, several seeds, zero hits."""
        for seed in range(4):
            config = StormConfig(
                seed=seed,
                num_events=40,
                num_committees=14,
                max_iterations=300,
                convergence_window=120,
            )
            outcome = run_storm(config)
            assert outcome.status in ("survived", "infeasible"), outcome.signature
            assert outcome.checks_run > 0

    def test_theorem2_checks_run_on_small_instances(self):
        config = StormConfig(
            seed=5, num_events=40, num_committees=12, max_iterations=400,
            convergence_window=150,
        )
        outcome = run_storm(config)
        assert outcome.status == "survived"
        assert outcome.theorem2_checked > 0


class TestShrinkAndReplay:
    def test_shrink_events_minimality_oracle(self):
        """Pure shrinker: minimal list is 1-minimal under the oracle."""
        events = [
            CommitteeEvent(iteration=10 * k, kind=EventKind.LEAVE, shard_id=k)
            for k in range(12)
        ]
        needed = {3, 7}

        def still_fails(candidate):
            return needed <= {event.shard_id for event in candidate}

        minimal, probes = shrink_events(events, still_fails)
        assert {event.shard_id for event in minimal} == needed
        assert probes > 0

    def test_shrink_events_rejects_passing_schedule(self):
        with pytest.raises(ValueError, match="does not reproduce"):
            shrink_events([], lambda candidate: False)

    def test_shrunk_storm_is_one_minimal_and_deterministic(self):
        outcome = run_storm(DRILL, armed=DRILL_ARMED)
        minimal, _ = shrink_storm(outcome)
        again, _ = shrink_storm(outcome)
        assert minimal == again
        assert 0 < len(minimal) < len(outcome.events)
        # 1-minimal: dropping any single event loses the failure signature.
        for index in range(len(minimal)):
            candidate = minimal[:index] + minimal[index + 1 :]
            replayed = run_storm(DRILL, events=candidate, armed=DRILL_ARMED)
            assert not (
                replayed.status == "violated" and replayed.signature == "strict-n-min"
            ), f"event {index} was removable"

    def test_reproducer_round_trip_and_replay(self, tmp_path):
        outcome = run_storm(DRILL, armed=DRILL_ARMED)
        minimal, _ = shrink_storm(outcome)
        reproducer = make_reproducer(outcome, minimal)
        path = str(tmp_path / "reproducer.json")
        save_reproducer(path, reproducer)
        loaded = load_reproducer(path)
        assert loaded == reproducer
        replayed = replay_reproducer(loaded)
        assert replayed.status == "violated"
        assert replayed.signature == outcome.signature

    def test_reproducer_serialisation_deterministic(self, tmp_path):
        outcome = run_storm(DRILL, armed=DRILL_ARMED)
        reproducer = make_reproducer(outcome)
        first, second = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save_reproducer(first, reproducer)
        save_reproducer(second, reproducer)
        assert open(first, "rb").read() == open(second, "rb").read()

    def test_event_json_round_trip(self):
        events = [
            CommitteeEvent(iteration=5, kind=EventKind.LEAVE, shard_id=3),
            CommitteeEvent(
                iteration=9, kind=EventKind.JOIN, shard_id=8, tx_count=700, latency=42.5
            ),
        ]
        for event in events:
            payload = json.loads(json.dumps(event_to_json(event)))
            assert event_from_json(payload) == event

    def test_reproducer_format_tag_enforced(self, tmp_path):
        path = str(tmp_path / "bogus.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"format": "something-else"}, handle)
        with pytest.raises(ValueError, match="not a mvcom-storm-reproducer"):
            load_reproducer(path)


class TestStormTelemetry:
    def test_storm_events_flow_through_injected_hub(self):
        from repro.harness.tracing import build_telemetry
        from repro.obs.sinks import RingBufferSink

        telemetry = build_telemetry(None)
        try:
            run_storm(FAST, telemetry=telemetry)
            ring = next(s for s in telemetry.sinks if isinstance(s, RingBufferSink))
            names = {record["name"] for record in ring.records}
        finally:
            telemetry.close()
        assert "storm.run" in names
        assert "storm.boundaries" in names
