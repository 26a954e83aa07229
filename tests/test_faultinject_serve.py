"""Serve-mode churn storms: contracts armed *across* epoch boundaries.

The single-solve storm battery (``test_faultinject_storms``) checks
invariants at dynamic-event boundaries inside one solve.  The serve-mode
battery chains warm-started solves over a drifting
:class:`~repro.data.stream.EpochStream` and additionally checks the
boundary this PR created: iteration 0 of a warm solve, where the adopted
replicas, repaired carried solutions, and rebased incumbent must already
satisfy every armed invariant.  A violation serialises to a replayable
``mvcom-serve-reproducer-v1`` document.
"""

import json

import pytest

from repro.faultinject.invariants import StormInvariantViolation
from repro.faultinject.runner import DEFAULT_ARMED
from repro.faultinject.serve import (
    SERVE_REPRODUCER_FORMAT,
    ServeStormConfig,
    load_serve_reproducer,
    make_serve_reproducer,
    replay_serve_reproducer,
    run_serve_storm,
    save_serve_reproducer,
)

SMALL = ServeStormConfig(
    seed=0,
    epochs=4,
    num_committees=30,
    churn=0.1,
    events_per_epoch=30,
    gamma=4,
    max_iterations=500,
    convergence_window=250,
)


class TestServeStormSurvival:
    def test_default_invariants_hold_across_warm_epochs(self):
        outcome = run_serve_storm(SMALL)
        assert outcome.survived
        assert len(outcome.results) == SMALL.epochs
        assert outcome.checks_run > 0
        # Every epoch after the first adopted warm state, and each solve
        # still hit storm boundaries of its own.
        assert len(outcome.boundaries_by_epoch) == SMALL.epochs
        assert all(len(b) > 0 for b in outcome.boundaries_by_epoch)

    def test_warm_boundary_is_probed_at_iteration_zero(self):
        seen = []

        def boundary_spy(*, iteration, events, instance, best, population):
            if iteration == 0:
                seen.append(len(population.replica_ids))

        outcome = run_serve_storm(
            SMALL, extra_invariants={"boundary-spy": boundary_spy}
        )
        assert outcome.survived
        # Warm epochs (all but the first) call the probe on the adopted
        # population before any race round runs.
        assert len(seen) >= SMALL.epochs - 1
        assert all(count == SMALL.gamma for count in seen)

    def test_deterministic_per_seed(self):
        first = run_serve_storm(SMALL)
        second = run_serve_storm(SMALL)
        assert [r.best_utility for r in first.results] == [
            r.best_utility for r in second.results
        ]
        assert [
            [str(e) for e in events] for events in first.events_by_epoch
        ] == [[str(e) for e in events] for events in second.events_by_epoch]

    def test_cold_serve_storm_also_survives(self):
        outcome = run_serve_storm(
            ServeStormConfig(
                seed=1,
                epochs=3,
                num_committees=30,
                gamma=4,
                max_iterations=500,
                convergence_window=250,
                warm=False,
            )
        )
        assert outcome.survived


class TestServeStormViolation:
    def violated_outcome(self):
        calls = {"n": 0}

        def bomb(*, iteration, events, instance, best, population):
            calls["n"] += 1
            if calls["n"] > 20:
                raise StormInvariantViolation(
                    "bomb", "synthetic failure", iteration=iteration
                )

        return run_serve_storm(SMALL, extra_invariants={"bomb": bomb})

    def test_violation_records_failed_epoch(self):
        outcome = self.violated_outcome()
        assert outcome.status == "violated"
        assert not outcome.survived
        assert outcome.violation.invariant == "bomb"
        assert outcome.failed_epoch is not None
        assert outcome.failed_epoch > 0
        # Event history covers every epoch up to and including the failure.
        assert len(outcome.events_by_epoch) == outcome.failed_epoch + 1

    def test_armed_includes_extra_invariants(self):
        outcome = self.violated_outcome()
        assert "bomb" in outcome.armed
        assert set(DEFAULT_ARMED) <= set(outcome.armed)

    def test_reproducer_requires_a_failure(self):
        survived = run_serve_storm(SMALL)
        with pytest.raises(ValueError, match="records a failure"):
            make_serve_reproducer(survived)


class TestServeReproducer:
    def test_round_trip_and_replay(self, tmp_path):
        calls = {"n": 0}

        def bomb(*, iteration, events, instance, best, population):
            calls["n"] += 1
            if calls["n"] > 20:
                raise StormInvariantViolation(
                    "bomb", "synthetic failure", iteration=iteration
                )

        outcome = run_serve_storm(SMALL, extra_invariants={"bomb": bomb})
        reproducer = make_serve_reproducer(outcome)
        path = tmp_path / "serve_reproducer.json"
        save_serve_reproducer(str(path), reproducer)

        loaded = load_serve_reproducer(str(path))
        assert loaded["format"] == SERVE_REPRODUCER_FORMAT
        assert loaded["failure"]["invariant"] == "bomb"
        assert loaded["failure"]["epoch"] == outcome.failed_epoch

        # Extra invariants cannot serialise: the replay runs the stored
        # event history under the built-in armed subset, deterministically.
        replayed = replay_serve_reproducer(loaded)
        assert len(replayed.events_by_epoch) <= len(outcome.events_by_epoch)
        again = replay_serve_reproducer(loaded)
        assert replayed.status == again.status
        assert [r.best_utility for r in replayed.results] == [
            r.best_utility for r in again.results
        ]

    def test_serialisation_deterministic(self, tmp_path):
        calls = {"n": 0}

        def bomb(*, iteration, events, instance, best, population):
            calls["n"] += 1
            if calls["n"] > 20:
                raise StormInvariantViolation(
                    "bomb", "synthetic failure", iteration=iteration
                )

        outcome = run_serve_storm(SMALL, extra_invariants={"bomb": bomb})
        reproducer = make_serve_reproducer(outcome)
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        save_serve_reproducer(str(first), reproducer)
        save_serve_reproducer(str(second), make_serve_reproducer(outcome))
        assert first.read_text() == second.read_text()

    def test_format_tag_enforced(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match=SERVE_REPRODUCER_FORMAT):
            load_serve_reproducer(str(path))
