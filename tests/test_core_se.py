"""Tests for the Stochastic-Exploration algorithm (static epochs)."""

import numpy as np
import pytest

from repro.core.exact import branch_and_bound_optimum
from repro.core.problem import EpochInstance, MVComConfig
from repro.core.se import InfeasibleEpochError, SEConfig, StochasticExploration

from tests.conftest import random_instance


def solve(instance, **kwargs):
    defaults = dict(num_threads=5, max_iterations=2_000, convergence_window=600, seed=1)
    defaults.update(kwargs)
    return StochasticExploration(SEConfig(**defaults)).solve(instance)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"beta": 0}, {"num_threads": 0}, {"max_iterations": 0},
        {"pair_tries": 0}, {"max_solution_threads": 0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SEConfig(**kwargs)

    def test_paper_defaults(self):
        config = SEConfig()
        assert config.beta == 2.0
        assert config.tau == 0.0


class TestFeasibility:
    def test_result_respects_capacity(self, small_instance):
        result = solve(small_instance)
        assert result.best_weight <= small_instance.capacity

    def test_result_respects_n_min(self, small_instance):
        result = solve(small_instance)
        assert result.best_count >= small_instance.n_min

    def test_mask_matches_aggregates(self, small_instance):
        result = solve(small_instance)
        assert small_instance.weight(result.best_mask) == result.best_weight
        assert small_instance.utility(result.best_mask) == pytest.approx(result.best_utility)

    def test_infeasible_epoch_raises(self):
        config = MVComConfig(alpha=1.5, capacity=5)
        instance = EpochInstance([100, 200], [1.0, 2.0], config)
        with pytest.raises(InfeasibleEpochError):
            solve(instance)


class TestQuality:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_near_optimal_on_small_instances(self, seed):
        instance = random_instance(14, seed=seed)
        optimum = branch_and_bound_optimum(instance)
        result = solve(instance, num_threads=10, max_iterations=4_000, convergence_window=1_500)
        assert result.best_utility >= 0.97 * optimum.utility

    def test_never_worse_than_initial(self, small_instance):
        result = solve(small_instance)
        assert result.best_utility >= result.utility_trace[0]

    def test_trace_is_monotone_nondecreasing(self, small_instance):
        result = solve(small_instance)
        diffs = np.diff(result.utility_trace)
        assert (diffs >= -1e-9).all()

    def test_full_solution_considered_when_capacity_allows(self):
        """Alg. 1 line 25: f_{|I_j|} must win when everything fits and pays."""
        config = MVComConfig(alpha=10.0, capacity=10**9)
        instance = EpochInstance([1000] * 6, [10.0 * i for i in range(6)], config)
        result = solve(instance)
        assert result.best_count == 6


class TestGammaAndThreads:
    def test_one_thread_per_cardinality(self, small_instance):
        se = StochasticExploration(SEConfig(max_solution_threads=None))
        cardinalities = se.thread_cardinalities(small_instance)
        n_hi = small_instance.max_feasible_cardinality
        n_lo = min(small_instance.n_min, n_hi)
        assert cardinalities == list(range(max(1, n_lo), n_hi + 1))

    def test_subsampling_keeps_endpoints(self, small_instance):
        se = StochasticExploration(SEConfig(max_solution_threads=4))
        cardinalities = se.thread_cardinalities(small_instance)
        full = StochasticExploration(SEConfig(max_solution_threads=None)).thread_cardinalities(
            small_instance
        )
        assert len(cardinalities) <= 4
        assert cardinalities[0] == full[0]
        assert cardinalities[-1] == full[-1]

    def test_num_replicas_recorded(self, small_instance):
        result = solve(small_instance, num_threads=3)
        assert result.num_replicas == 3

    def test_more_replicas_never_hurt_much(self, small_instance):
        """Fig. 8's direction: Gamma=8 should match or beat Gamma=1."""
        low = solve(small_instance, num_threads=1, max_iterations=1_500, convergence_window=1_500)
        high = solve(small_instance, num_threads=8, max_iterations=1_500, convergence_window=1_500)
        assert high.best_utility >= 0.995 * low.best_utility


class TestDeterminism:
    def test_same_seed_reproduces(self, small_instance):
        a = solve(small_instance, seed=11)
        b = solve(small_instance, seed=11)
        assert a.best_utility == b.best_utility
        assert np.array_equal(a.best_mask, b.best_mask)
        assert np.array_equal(a.utility_trace, b.utility_trace)

    def test_different_seeds_explore_differently(self, small_instance):
        a = solve(small_instance, seed=11, max_iterations=300, convergence_window=300)
        b = solve(small_instance, seed=12, max_iterations=300, convergence_window=300)
        assert not np.array_equal(a.utility_trace, b.utility_trace)


class TestTraces:
    def test_trace_lengths_agree(self, small_instance):
        result = solve(small_instance)
        assert len(result.utility_trace) == len(result.current_trace)
        assert len(result.utility_trace) == len(result.virtual_time_trace)

    def test_virtual_time_is_monotone(self, small_instance):
        result = solve(small_instance)
        diffs = np.diff(result.virtual_time_trace)
        assert (diffs >= -1e-12).all()

    def test_current_never_exceeds_best(self, small_instance):
        result = solve(small_instance)
        assert (result.current_trace <= result.utility_trace + 1e-9).all()

    def test_converged_flag_set_on_plateau(self, small_instance):
        result = solve(small_instance, max_iterations=5_000, convergence_window=300)
        assert result.converged
        assert result.iterations < 5_000
