"""Warm-start contract tests for the incremental SE solver.

The two load-bearing guarantees of the epoch-chaining layer:

* **Zero drift is a no-op**: warm-starting on a value-equal instance is
  byte-identical to *continuing the same solve* — concatenated utility
  traces match an uninterrupted run and every per-thread Mersenne stream
  lands in the same end state (probed via ``getstate()``).
* **Drift adoption repairs, never discards**: under churn the carried
  threads are rebased, resized back to their exact cardinality via
  :func:`repro.core.repair.resize_rows`, and re-anchored with improving
  swaps; only unrepairable threads re-initialise.  The adopted
  population must stay feasible and reproducible on the race kernel and
  on the serial oracle.

Solves race on the serial oracle (``tests/serial_oracle.py``) unless a
test names the kernel: its per-thread Mersenne streams are what the
zero-drift pins read.
"""

import itertools

import numpy as np
import pytest

from repro.core.problem import EpochInstance
from repro.core.se import (
    SEConfig,
    SEResult,
    SEWarmState,
    StochasticExploration,
    instances_match,
)
from repro.data.workload import WorkloadConfig, generate_epoch_workload
from repro.obs.sinks import RingBufferSink
from repro.obs.telemetry import Telemetry
from repro.sim.rng import RandomStreams

from tests.serial_oracle import racing, thread_rngs

pytestmark = pytest.mark.usefixtures("serial_race")


@pytest.fixture
def telemetry_ring():
    ring = RingBufferSink()
    return Telemetry(sinks=[ring]), ring


def base_instance(seed=3, num_committees=40, capacity=40_000):
    workload = generate_epoch_workload(
        WorkloadConfig(num_committees=num_committees, capacity=capacity, seed=seed)
    )
    return workload.instance


def drifted_instance(instance, drop=(1, 7, 13, 30), seed=99):
    """A churned sibling: some committees depart, the rest re-value."""
    rng = RandomStreams(seed).get("drift")
    keep = np.ones(instance.num_shards, bool)
    keep[list(drop)] = False
    tx = np.maximum(
        instance.tx_counts[keep] + rng.integers(-50, 200, int(keep.sum())), 0
    )
    latencies = instance.latencies[keep] * rng.uniform(0.8, 1.2, int(keep.sum()))
    ids = tuple(np.asarray(instance.shard_ids)[keep])
    return EpochInstance(tx, latencies, instance.config, shard_ids=ids)


def config(engine="vectorized", *, gamma=4, max_iterations=400,
           convergence_window=200, seed=11):
    return SEConfig(
        num_threads=gamma,
        max_iterations=max_iterations,
        convergence_window=convergence_window,
        seed=seed,
        engine=engine,
    )


def thread_rng_states(warm_state):
    """Every per-thread Mersenne end state, keyed by (replica, cardinality)."""
    population = warm_state.population
    keys = itertools.product(population.replica_ids, population.cardinalities.tolist())
    rngs = thread_rngs(population, warm_state.streams.seed)
    return {key: rng._rnd.getstate() for key, rng in zip(keys, rngs)}


# --------------------------------------------------------------------- #
# zero drift: a warm start is the same solve, split in two
# --------------------------------------------------------------------- #
class TestZeroDrift:
    def test_split_solve_is_byte_identical_to_continuous(self):
        instance = base_instance()
        # Big window so neither half converges early: the split point is
        # then purely an artifact of max_iterations.
        continuous = StochasticExploration(
            config(max_iterations=400, convergence_window=10_000)
        ).solve(instance)

        solver = StochasticExploration(
            config(max_iterations=200, convergence_window=10_000)
        )
        first = solver.solve(instance)
        second = solver.solve(instance, warm=first)

        assert np.array_equal(second.best_mask, continuous.best_mask)
        assert second.best_utility == continuous.best_utility
        stitched = np.concatenate([first.utility_trace, second.utility_trace])
        assert np.array_equal(stitched, continuous.utility_trace)

    def test_rng_end_states_match_continuous_run(self):
        instance = base_instance()
        continuous = StochasticExploration(
            config(max_iterations=400, convergence_window=10_000)
        ).solve(instance)
        solver = StochasticExploration(
            config(max_iterations=200, convergence_window=10_000)
        )
        chained = solver.solve(instance, warm=solver.solve(instance))
        assert thread_rng_states(chained.warm_state) == thread_rng_states(
            continuous.warm_state
        )

    def test_zero_drift_adoption_reports_all_retained(self, telemetry_ring):
        telemetry, ring = telemetry_ring
        instance = base_instance()
        solver = StochasticExploration(config(), telemetry=telemetry)
        first = solver.solve(instance)
        solver.solve(instance, warm=first)
        starts = [r for r in ring.records if r.get("name") == "se.warm_start"]
        assert len(starts) == 1
        assert starts[0]["zero_drift"] is True
        assert starts[0]["reseated"] == 0
        assert starts[0]["spawned"] == 0

    def test_instances_match_is_value_equality(self):
        instance = base_instance()
        clone = EpochInstance(
            instance.tx_counts.copy(),
            instance.latencies.copy(),
            instance.config,
            shard_ids=tuple(instance.shard_ids),
        )
        assert instances_match(instance, clone)
        assert not instances_match(instance, drifted_instance(instance))


# --------------------------------------------------------------------- #
# drift adoption: repair the carried population
# --------------------------------------------------------------------- #
class TestDriftAdoption:
    @pytest.mark.parametrize("engine", ["serial", "vectorized", "auto"])
    def test_warm_solve_is_feasible_and_reproducible(self, engine):
        # "auto" is the kernel's retired alias; "serial" races the oracle.
        instance = base_instance()
        drifted = drifted_instance(instance)
        results = []
        for _ in range(2):
            solver = StochasticExploration(config("auto" if engine == "auto" else "vectorized"))
            with racing("serial" if engine == "serial" else "vectorized"):
                results.append(solver.solve(drifted, warm=solver.solve(instance)))
        first, second = results
        assert first.best_count >= drifted.n_min
        assert first.best_weight <= drifted.capacity
        assert np.array_equal(first.best_mask, second.best_mask)
        assert first.best_utility == second.best_utility

    def test_drift_adoption_repairs_rather_than_reseats(self, telemetry_ring):
        telemetry, ring = telemetry_ring
        instance = base_instance()
        drifted = drifted_instance(instance)
        solver = StochasticExploration(config(), telemetry=telemetry)
        solver.solve(drifted, warm=solver.solve(instance))
        starts = [r for r in ring.records if r.get("name") == "se.warm_start"]
        assert len(starts) == 1
        stats = starts[0]
        assert stats["zero_drift"] is False
        # Dropping 4 of 40 committees breaks most exact-n memberships;
        # the resize repair keeps them carried instead of re-initialised.
        assert stats["retained"] > stats["reseated"]
        assert stats["retained"] > 0

    def test_adopted_population_is_feasible_at_iteration_zero(self):
        instance = base_instance()
        drifted = drifted_instance(instance)
        solver = StochasticExploration(config())
        warm = solver.solve(instance).warm_state
        solver._adopt_replicas(warm, drifted)
        rows = warm.population.rows
        cardinality = np.tile(warm.population.cardinalities, len(warm.population.replica_ids))
        assert np.array_equal(rows.count[rows.ok], cardinality[rows.ok])
        assert (rows.weight[rows.ok] <= drifted.capacity).all()

    def test_generation_counts_handoffs(self):
        instance = base_instance()
        solver = StochasticExploration(config())
        first = solver.solve(instance)
        assert first.warm_state.generation == 1
        second = solver.solve(instance, warm=first)
        assert second.warm_state.generation == 2


# --------------------------------------------------------------------- #
# argument validation
# --------------------------------------------------------------------- #
class TestWarmValidation:
    def test_gamma_mismatch_raises(self):
        instance = base_instance()
        warm = StochasticExploration(config(gamma=4)).solve(instance)
        with pytest.raises(ValueError, match="cannot resize Gamma"):
            StochasticExploration(config(gamma=6)).solve(instance, warm=warm)

    def test_bad_warm_type_raises(self):
        instance = base_instance()
        solver = StochasticExploration(config())
        with pytest.raises(TypeError, match="SEResult or SEWarmState"):
            solver.solve(instance, warm="yesterday")

    def test_warm_accepts_result_or_state(self):
        instance = base_instance()
        solver = StochasticExploration(config())
        first = solver.solve(instance)
        assert isinstance(first, SEResult)
        assert isinstance(first.warm_state, SEWarmState)
        second = StochasticExploration(config()).solve(
            instance, warm=first.warm_state
        )
        assert second.best_count >= instance.n_min
