"""The SE race kernel against the serial oracle.

Two races share one algorithm:

* ``serial`` — the reference loop, kept as the test oracle
  (``tests/serial_oracle.py``); pinned by the wider suite and by the
  golden fingerprint below.
* ``vectorized`` — the batched race kernel (:mod:`repro.core.engine`),
  the one every production solve runs, with its own stream layout;
  validated *distributionally*: χ² of per-round state occupancy against
  the Gibbs distribution ``p* ∝ exp(βU_f)`` (eq. 6) on a small instance,
  and a KS comparison of converged utilities vs serial across seeds.
  Where no timer can fire (every pair rejected) it must match serial
  byte for byte, which pins the chunked-convergence truncation edges it
  shares with the serial loop through ``segment_length``.
"""

import itertools
import math

import numpy as np
import pytest

from repro.core import engine as engine_module
from repro.core import se as se_module
from repro.core.dynamics import (
    CommitteeEvent,
    DynamicSchedule,
    EventKind,
    fail_and_recover_schedule,
)
from repro.core.problem import EpochInstance, MVComConfig
from repro.core.se import SEConfig, SEResult, StochasticExploration
from repro.data.workload import WorkloadConfig, generate_epoch_workload
from repro.harness.serve import ServeConfig
from repro.metrics.ks import ks_two_sample

from tests.serial_oracle import RACES, racing


def solve_with(engine, *, num_committees=30, capacity=25_000, seed=0, gamma=4,
               max_iterations=500, convergence_window=200, schedule=None):
    """One seeded solve raced on ``engine`` (``"auto"`` names the kernel)."""
    workload = generate_epoch_workload(
        WorkloadConfig(num_committees=num_committees, capacity=capacity, seed=seed)
    )
    config = SEConfig(
        num_threads=gamma,
        max_iterations=max_iterations,
        convergence_window=convergence_window,
        seed=seed,
        engine="auto" if engine == "auto" else "vectorized",
    )
    if schedule is not None:
        schedule.reset()
    with racing("serial" if engine == "serial" else "vectorized"):
        return StochasticExploration(config).solve(workload.instance, schedule=schedule)


def solve_on(engine, config, instance, **kwargs):
    """``StochasticExploration(config).solve(instance, ...)`` raced on ``engine``."""
    with racing(engine):
        return StochasticExploration(config).solve(instance, **kwargs)


def assert_byte_identical(a: SEResult, b: SEResult) -> None:
    """Bit-for-bit equality of everything an SEResult carries."""
    assert np.array_equal(a.best_mask, b.best_mask)
    assert a.best_utility == b.best_utility
    assert a.best_weight == b.best_weight
    assert a.best_count == b.best_count
    assert a.iterations == b.iterations
    assert a.converged == b.converged
    assert np.array_equal(a.utility_trace, b.utility_trace)
    assert np.array_equal(a.current_trace, b.current_trace)
    assert np.array_equal(a.virtual_time_trace, b.virtual_time_trace)
    assert a.thread_cardinalities == b.thread_cardinalities
    assert a.events_applied == b.events_applied


# ---------------------------------------------------------------------- #
# config plumbing
# ---------------------------------------------------------------------- #
class TestEngineConfig:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            SEConfig(engine="gpu")

    def test_parallel_engine_rejected(self):
        with pytest.raises(ValueError):
            SEConfig(engine="parallel")

    @pytest.mark.parametrize("make", [SEConfig, ServeConfig])
    def test_serial_engine_points_to_the_oracle(self, make):
        # Production races only the kernel; the serial loop is a test oracle.
        with pytest.raises(ValueError, match="tests/serial_oracle.py"):
            make(engine="serial")

    def test_only_the_kernel_races_in_the_package(self):
        assert RACES["vectorized"] is engine_module.run_vectorized
        for name in ("ENGINE_NAMES", "run_serial", "_SolutionThread", "_Replica",
                     "_ThreadRng"):
            assert not hasattr(engine_module, name)
            assert not hasattr(se_module, name)


# ---------------------------------------------------------------------- #
# serial golden fingerprint (pins the reference engine)
# ---------------------------------------------------------------------- #
class TestSerialGolden:
    def test_serial_run_is_reproducible(self):
        first = solve_with("serial", seed=0)
        second = solve_with("serial", seed=0)
        assert_byte_identical(first, second)


# ---------------------------------------------------------------------- #
# chunked-convergence truncation edges
# ---------------------------------------------------------------------- #
def _frozen_instance() -> EpochInstance:
    """An instance whose threads can never swap: every pair is rejected.

    Geometric tx counts with capacity equal to the lightest-k prefix sum
    make any swap-in strictly heavier than the swap-out it replaces, so
    every thread parks each round and the detector converges after exactly
    ``convergence_window`` stale rounds.
    """
    tx = [1, 2, 4, 8, 16, 32]
    config = MVComConfig(alpha=4.0, capacity=3, n_min_fraction=0.3)  # Ĉ fits {1,2}
    return EpochInstance(tx_counts=tx, latencies=[10.0 * (i + 1) for i in range(6)],
                        config=config, ddl=60.0)


class TestChunkTruncation:
    def test_convergence_at_first_round_of_chunk(self):
        """Window w ⇒ converged at iteration w (round index w-1): the serial
        and vectorized engines must truncate the second chunk at its first
        round."""
        instance = _frozen_instance()
        config = SEConfig(num_threads=3, max_iterations=500, convergence_window=100, seed=1)
        serial, batched = (solve_on(engine, config, instance)
                           for engine in ("serial", "vectorized"))
        assert serial.converged and serial.iterations == 101
        assert_byte_identical(serial, batched)

    @pytest.mark.parametrize("window", [99, 100, 101])
    def test_convergence_around_chunk_boundary(self, window):
        """±1 around the segment size: truncation may fall on the last round
        of a chunk, exactly at the boundary, or one round into the next."""
        instance = _frozen_instance()
        config = SEConfig(num_threads=2, max_iterations=400, convergence_window=window, seed=2)
        results = [solve_on(engine, config, instance) for engine in ("serial", "vectorized")]
        assert results[0].converged
        assert_byte_identical(results[0], results[1])

    def test_max_iterations_exhausts_mid_chunk(self):
        """max_iterations not a multiple of the window: the final segment is
        shorter than convergence_window and both engines stop at the cap."""
        serial = solve_with("serial", seed=4, max_iterations=250, convergence_window=400)
        batched = solve_with("vectorized", seed=4, max_iterations=250, convergence_window=400)
        assert not serial.converged and serial.iterations == 250
        assert not batched.converged and batched.iterations == 250
        assert len(batched.utility_trace) == len(serial.utility_trace) == 250


# ---------------------------------------------------------------------- #
# vectorized engine: distributional validation
# ---------------------------------------------------------------------- #
def wilson_hilferty_critical(df: int, z: float) -> float:
    """Upper χ² quantile via the Wilson–Hilferty cube approximation."""
    return df * (1.0 - 2.0 / (9.0 * df) + z * math.sqrt(2.0 / (9.0 * df))) ** 3


def _flat_race_instance(num_shards: int) -> EpochInstance:
    """Equal tx counts (capacity never binds) with a linear value ladder:
    alpha*s - (ddl - l) makes shard k worth exactly 5(k+1) utility units."""
    config = MVComConfig(alpha=4.0, capacity=10 * num_shards, n_min_fraction=1.0 / num_shards)
    latencies = [5.0 * (i + 1) for i in range(num_shards)]
    return EpochInstance(
        tx_counts=[10] * num_shards, latencies=latencies, config=config,
        ddl=5.0 * num_shards,
    )


class TestVectorizedGibbs:
    def test_chi_square_stationarity(self):
        """Per-round occupancy of the cardinality-2 threads matches the Gibbs
        distribution p* ∝ exp(βU_f) (eq. 6) and decisively rejects uniform.

        Occupancy is counted per *round* (not per fire): a thread parks in a
        state for a number of rounds inversely proportional to its race-win
        probability, which is what restores the exp(βU) weighting that the
        raw jump chain lacks.  The race against finitely many sibling
        threads shrinks the effective β by ~1/#threads (win probability
        saturates as r/(r+R)); 16 shards → 15 racing siblings keep that
        bias inside the α=0.001 χ² band at this sample size, while the
        uniform hypothesis is rejected by >3× the critical value.
        """
        num_shards, card, beta = 16, 2, 1.0 / 60.0
        gamma, rounds, burn, every = 8, 30_000, 500, 90
        instance = _flat_race_instance(num_shards)
        config = SEConfig(
            num_threads=gamma, max_iterations=rounds, convergence_window=10 ** 6,
            seed=3, beta=beta,
        )
        solver = StochasticExploration(config)
        run = engine_module._EngineRun(solver, instance, None, None)
        state = engine_module._VectorState(run.population, instance, solver.config)
        targets = [row for row in range(state.size) if state.cards[row] == card]
        assert len(targets) == gamma
        race_rng = run.streams.get("vectorized-race")

        counts: dict = {}
        done = 0
        while done < rounds:
            block = min(rounds - done, 512)
            state.start_block(race_rng, block)
            for k in range(block):
                state.race_round(k)
                round_index = done + k
                if round_index >= burn and (round_index - burn) % every == 0:
                    for row in targets:
                        offset = int(state.off_sel[row])
                        key = tuple(sorted(
                            int(x) for x in
                            state.sel_flat[offset: offset + int(state.n_sel[row])]
                        ))
                        counts[key] = counts.get(key, 0) + 1
            done += block

        states = list(itertools.combinations(range(num_shards), card))
        values = np.asarray(instance.values)
        utilities = np.array([values[list(s)].sum() for s in states])
        gibbs = np.exp(beta * (utilities - utilities.max()))
        gibbs /= gibbs.sum()
        uniform = np.full(len(states), 1.0 / len(states))
        observed = np.array([counts.get(s, 0) for s in states], dtype=float)
        total = observed.sum()
        assert total > 2_000  # enough mass for ~20 expected counts per state

        def chi_square(expected_p: np.ndarray) -> float:
            expected = expected_p * total
            return float(((observed - expected) ** 2 / expected).sum())

        critical = wilson_hilferty_critical(len(states) - 1, z=3.0902)  # α=0.001
        assert chi_square(gibbs) < critical
        assert chi_square(uniform) > 3.0 * critical

    def test_ks_converged_utilities_match_serial(self):
        """Two-sample KS over 50 seeds: converged best utilities of the
        vectorized kernel are distributionally indistinguishable from the
        serial oracle's (not rejected at α=0.01)."""
        seeds = range(50)
        serial_u, vector_u = [], []
        for seed in seeds:
            for engine, sink in (("serial", serial_u), ("vectorized", vector_u)):
                result = solve_with(
                    engine, num_committees=20, capacity=16_000, seed=seed,
                    gamma=2, max_iterations=300, convergence_window=150,
                )
                sink.append(result.best_utility)
        d_stat, p_value, rejected = ks_two_sample(serial_u, vector_u, alpha=0.01)
        assert not rejected, (d_stat, p_value)


class TestVectorizedBehaviour:
    def test_same_seed_reproducible(self):
        first = solve_with("vectorized", seed=9)
        second = solve_with("vectorized", seed=9)
        assert_byte_identical(first, second)

    def test_trace_monotone_and_feasible(self):
        result = solve_with("vectorized", seed=5)
        assert (np.diff(result.utility_trace) >= -1e-9).all()
        workload = generate_epoch_workload(
            WorkloadConfig(num_committees=30, capacity=25_000, seed=5)
        )
        assert workload.instance.weight(result.best_mask) == result.best_weight
        assert result.best_weight <= workload.instance.capacity
        assert result.best_count >= workload.instance.n_min

    def test_dynamic_schedule_applies_events(self):
        workload = generate_epoch_workload(
            WorkloadConfig(num_committees=30, capacity=25_000, seed=7)
        )
        instance = workload.instance
        schedule = fail_and_recover_schedule(
            shard_id=int(instance.shard_ids[2]),
            tx_count=int(instance.tx_counts[2]),
            latency=float(instance.latencies[2]),
            fail_at=60,
            recover_at=160,
        )
        config = SEConfig(num_threads=4, max_iterations=400, convergence_window=150, seed=7)
        result = StochasticExploration(config).solve(instance, schedule=schedule)
        assert len(result.events_applied) == 2
        final = result.final_instance
        assert final.weight(result.best_mask) <= final.capacity


# ---------------------------------------------------------------------- #
# the retired "auto" name
# ---------------------------------------------------------------------- #
class TestAutoEngine:
    """``engine="auto"`` survives only as an alias of the default kernel."""

    def test_default_and_auto_alias_are_vectorized(self):
        assert SEConfig().engine == "vectorized"
        assert SEConfig(engine="auto").engine == "vectorized"

    @pytest.mark.parametrize(
        "engine, ran", [("auto", "vectorized"), ("serial", "serial"), ("vectorized", "vectorized")]
    )
    def test_result_names_the_engine_that_ran(self, engine, ran):
        assert solve_with(engine, max_iterations=50).engine == ran


# ---------------------------------------------------------------------- #
# batched-kernel accounting regressions (all-parked rounds, empty racing
# set, racing_current downgrade bookkeeping)
# ---------------------------------------------------------------------- #
class TestBatchedAccounting:
    def test_all_parked_rounds_are_byte_identical_to_serial(self):
        """On the frozen instance every pair is rejected, so every round is
        all-parked: no timer fires, no utility moves, no virtual time
        accrues.  Serial and batched must then agree bit-for-bit — same
        iteration count (all-parked rounds still feed the convergence
        detector), same constant traces, same zero virtual time."""
        instance = _frozen_instance()
        config = SEConfig(num_threads=3, max_iterations=400, convergence_window=100, seed=11)
        results = {engine: solve_on(engine, config, instance)
                   for engine in ("serial", "vectorized")}
        assert_byte_identical(results["serial"], results["vectorized"])
        assert results["vectorized"].converged
        assert float(results["vectorized"].virtual_time_trace[-1]) == 0.0

    @pytest.mark.parametrize("engine", ["serial", "vectorized"])
    def test_leave_emptying_racing_set_keeps_virtual_time(self, engine):
        """A LEAVE that removes the last swappable pair empties the racing
        set mid-run.  The replica clocks advanced before the event must
        survive into every later trace entry (regression: the batched path
        reported 0.0 once no rows raced)."""
        config = MVComConfig(alpha=4.0, capacity=100, n_min_fraction=0.4)
        instance = EpochInstance(
            tx_counts=[5, 5], latencies=[5.0, 9.0], config=config, ddl=10.0
        )
        schedule = DynamicSchedule(events=[
            CommitteeEvent(iteration=20, kind=EventKind.LEAVE,
                           shard_id=int(instance.shard_ids[1]))
        ])
        se_config = SEConfig(num_threads=2, max_iterations=200, convergence_window=50, seed=3)
        result = solve_on(engine, se_config, instance, schedule=schedule)
        assert len(result.events_applied) == 1
        trace = np.asarray(result.virtual_time_trace)
        carried = float(trace[25])
        assert carried > 0.0  # clocks ran before the event
        assert np.all(trace[25:] == carried)

    def test_racing_current_tracks_utility_max_through_downgrades(self):
        """Drive the batched kernel round by round and pin the downgrade
        bookkeeping: after every round racing_current must equal the exact
        max over the racing rows' utilities, including rounds where the
        leading thread swapped downhill and a full rescan is required."""
        instance = _flat_race_instance(12)
        config = SEConfig(
            num_threads=4, max_iterations=600, convergence_window=10 ** 6,
            seed=5, beta=1.0 / 60.0,
        )
        solver = StochasticExploration(config)
        run = engine_module._EngineRun(solver, instance, None, None)
        state = engine_module._VectorState(
            run.population, instance, solver.config,
            retry_rng=run.streams.get("vectorized-race-retry"),
        )
        race_rng = run.streams.get("vectorized-race")
        downgrades = 0
        done, rounds = 0, 600
        previous_max = float(state.utility.max())
        while done < rounds:
            block = min(rounds - done, 128)
            state.start_block(race_rng, block)
            for k in range(block):
                state.race_round(k)
                current_max = float(state.utility.max())
                assert state.racing_current == current_max
                if current_max < previous_max:
                    downgrades += 1
                previous_max = current_max
            done += block
        assert downgrades > 0  # the rescan path was actually exercised
