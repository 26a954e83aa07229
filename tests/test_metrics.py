"""Tests for metrics: Valuable Degree, summaries, traces."""

import numpy as np
import pytest

from repro.core.problem import EpochInstance, MVComConfig
from repro.metrics.ks import holm
from repro.metrics.summary import summarize_schedule
from repro.metrics.traces import (
    align_traces,
    converged_value,
    iterations_to_reach,
    trace_statistics,
)
from repro.metrics.valuable_degree import per_shard_valuable_degree, valuable_degree


@pytest.fixture
def instance():
    config = MVComConfig(alpha=1.5, capacity=10_000)
    return EpochInstance(
        tx_counts=[1_000, 2_000, 3_000],
        latencies=[100.0, 300.0, 500.0],
        config=config,
    )


class TestValuableDegree:
    def test_formula(self, instance):
        """VD = sum x_i s_i / Pi_i with ages (400, 200, floor)."""
        mask = np.array([True, True, True])
        expected = 1_000 / 400.0 + 2_000 / 200.0 + 3_000 / 1.0  # slowest floored
        assert valuable_degree(instance, mask) == pytest.approx(expected)

    def test_unselected_contribute_zero(self, instance):
        mask = np.array([True, False, False])
        contributions = per_shard_valuable_degree(instance, mask)
        assert contributions[1] == 0.0 and contributions[2] == 0.0
        assert contributions[0] == pytest.approx(2.5)

    def test_age_floor_guards_division(self, instance):
        mask = np.array([False, False, True])  # the DDL-defining shard, age 0
        assert np.isfinite(valuable_degree(instance, mask))
        assert valuable_degree(instance, mask) == pytest.approx(3_000.0)

    def test_custom_floor(self, instance):
        mask = np.array([False, False, True])
        assert valuable_degree(instance, mask, age_floor=10.0) == pytest.approx(300.0)

    def test_invalid_floor_rejected(self, instance):
        with pytest.raises(ValueError):
            valuable_degree(instance, np.ones(3, dtype=bool), age_floor=0.0)

    def test_wrong_mask_length_rejected(self, instance):
        with pytest.raises(ValueError):
            valuable_degree(instance, np.ones(2, dtype=bool))

    def test_fresher_selection_has_higher_vd(self, instance):
        """VD rewards low-age picks at equal TX mass -- the Fig. 10 intuition."""
        config = MVComConfig(alpha=1.5, capacity=10_000)
        equal = EpochInstance([1_000, 1_000, 1], [100.0, 400.0, 500.0], config)
        fresh = valuable_degree(equal, np.array([False, True, False]))  # age 100
        stale = valuable_degree(equal, np.array([True, False, False]))  # age 400
        assert fresh > stale


class TestSummary:
    def test_summary_fields(self, instance):
        mask = np.array([True, True, False])
        summary = summarize_schedule(instance, mask, algorithm="X")
        assert summary.algorithm == "X"
        assert summary.throughput_txs == 3_000
        assert summary.committees_selected == 2
        assert summary.cumulative_age == pytest.approx(600.0)
        assert summary.capacity_used_fraction == pytest.approx(0.3)
        assert summary.utility == pytest.approx(instance.utility(mask))

    def test_feasibility_flag(self, instance):
        summary = summarize_schedule(instance, np.array([True, False, False]))
        assert not summary.feasible  # n_min is 2
        summary = summarize_schedule(instance, np.array([True, True, False]))
        assert summary.feasible

    def test_as_row_roundtrip(self, instance):
        row = summarize_schedule(instance, np.ones(3, dtype=bool), "Y").as_row()
        assert row["algorithm"] == "Y"
        assert set(row) >= {"utility", "throughput_txs", "valuable_degree", "feasible"}


class TestTraces:
    def test_align_pads_with_last_value(self):
        aligned = align_traces({"a": [1.0, 2.0, 3.0], "b": [10.0]})
        assert aligned["b"].tolist() == [10.0, 10.0, 10.0]

    def test_align_truncates_to_requested_length(self):
        aligned = align_traces({"a": [1.0, 2.0, 3.0]}, length=2)
        assert aligned["a"].tolist() == [1.0, 2.0]

    def test_align_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            align_traces({"a": []})

    def test_align_explicit_length_shorter_than_longest(self):
        # An explicit length below the longest trace truncates the long
        # series and still pads the short ones to the same axis.
        aligned = align_traces({"long": [1.0, 2.0, 3.0, 4.0], "short": [7.0]}, length=2)
        assert aligned["long"].tolist() == [1.0, 2.0]
        assert aligned["short"].tolist() == [7.0, 7.0]
        assert {a.size for a in aligned.values()} == {2}

    def test_align_returns_copies_not_views(self):
        source = np.array([1.0, 2.0, 3.0])
        aligned = align_traces({"a": source}, length=2)
        aligned["a"][0] = 99.0
        assert source[0] == 1.0

    def test_converged_value_tail_mean(self):
        trace = [0.0] * 90 + [10.0] * 10
        assert converged_value(trace, tail_fraction=0.1) == pytest.approx(10.0)

    def test_converged_value_validation(self):
        with pytest.raises(ValueError):
            converged_value([])
        with pytest.raises(ValueError):
            converged_value([1.0], tail_fraction=0.0)

    def test_iterations_to_reach(self):
        trace = [0.0, 1.0, 2.0, 5.0, 5.0]
        assert iterations_to_reach(trace, 2.0) == 2
        assert iterations_to_reach(trace, 9.0) == -1

    def test_single_point_trace(self):
        # One-shot algorithms (DP, Greedy) produce length-1 traces; every
        # statistic must degrade gracefully instead of slicing to empty.
        assert converged_value([5.0]) == 5.0
        assert iterations_to_reach([5.0], 5.0) == 0
        assert iterations_to_reach([5.0], 6.0) == -1
        stats = trace_statistics([5.0])
        assert stats == {
            "first": 5.0,
            "last": 5.0,
            "max": 5.0,
            "converged": 5.0,
            "iterations": 1,
            "iters_to_99pct": 0,
        }

    def test_trace_statistics(self):
        stats = trace_statistics([1.0, 2.0, 4.0, 4.0])
        assert stats["first"] == 1.0
        assert stats["last"] == 4.0
        assert stats["max"] == 4.0
        assert stats["iterations"] == 4
        assert stats["iters_to_99pct"] == 2


class TestHolm:
    def test_hand_worked_step_down(self):
        """m = 4, alpha = 0.05: sorted p 0.005 <= 0.05/4 and 0.01 <= 0.05/3
        are rejected; 0.03 > 0.05/2 stops the walk, so 0.04 stands."""
        assert holm([0.01, 0.04, 0.03, 0.005], 0.05) == [True, False, False, True]

    def test_step_down_rejects_more_than_bonferroni(self):
        """0.001 <= 0.05/3, 0.02 <= 0.05/2, 0.04 <= 0.05/1: all three
        rejected, where Bonferroni (0.05/3 each) rejects only 0.001."""
        assert holm([0.02, 0.001, 0.04], 0.05) == [True, True, True]

    def test_first_acceptance_stops_the_walk(self):
        """0.012 <= 0.05/3 is rejected; 0.03 > 0.05/2 stops, so 0.04
        stands although it is below its own threshold 0.05/1."""
        assert holm([0.03, 0.012, 0.04], 0.05) == [False, True, False]

    def test_empty_family_and_level_validation(self):
        assert holm([], 0.01) == []
        with pytest.raises(ValueError, match="alpha"):
            holm([0.5], 0.0)
