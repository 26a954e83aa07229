"""Tests for the fairness metrics."""

import numpy as np
import pytest

from repro.metrics.fairness import (
    fairness_report,
    jain_index,
    selection_counts,
    starved_fraction,
)


class TestJain:
    def test_even_allocation_is_one(self):
        assert jain_index([3, 3, 3, 3]) == pytest.approx(1.0)

    def test_single_winner_is_one_over_n(self):
        assert jain_index([5, 0, 0, 0, 0]) == pytest.approx(1 / 5)

    def test_all_zero_is_trivially_even(self):
        assert jain_index([0, 0, 0]) == 1.0

    def test_scale_invariant(self):
        assert jain_index([1, 2, 3]) == pytest.approx(jain_index([10, 20, 30]))

    def test_validation(self):
        with pytest.raises(ValueError):
            jain_index([])
        with pytest.raises(ValueError):
            jain_index([-1, 2])


class TestSelectionCounts:
    def test_tallies_across_epochs(self):
        epochs = [
            ([1, 2, 3], [True, False, True]),
            ([1, 2, 4], [True, True, False]),
        ]
        counts = selection_counts(epochs)
        assert counts == {1: 2, 2: 1, 3: 1, 4: 0}

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            selection_counts([([1, 2], [True])])

    def test_starved_fraction(self):
        counts = {1: 2, 2: 0, 3: 0, 4: 1}
        assert starved_fraction(counts) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            starved_fraction({})


class TestReportOnSchedulerOutput:
    def test_report_from_se_epochs(self):
        """Wire fairness accounting to actual scheduler selections."""
        from repro.core.se import SEConfig, StochasticExploration
        from repro.data.stream import EpochStream, EpochStreamConfig

        stream = EpochStream(
            EpochStreamConfig(num_committees=20, capacity=16_000, churn=0.0, seed=8)
        )
        epochs = []
        permitted = []
        for _ in range(3):
            instance = stream.advance(permitted).instance
            result = StochasticExploration(
                SEConfig(num_threads=2, max_iterations=500, convergence_window=250, seed=1)
            ).solve(instance)
            epochs.append((instance.shard_ids, result.best_mask.tolist()))
            permitted = [sid for sid, keep in zip(*epochs[-1]) if keep]
        report = fairness_report(epochs)
        # Without churn the same 20 committees are candidates every epoch.
        assert report["committees_seen"] == 20
        assert 0.0 < report["jain_index"] <= 1.0
        assert 0.0 <= report["starved_fraction"] < 1.0
