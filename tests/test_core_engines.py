"""Engine-equivalence tests for the SE execution-engine layer.

Two engines share one algorithm (:mod:`repro.core.engine`):

* ``serial`` — the reference loop; pinned by the wider suite and by the
  golden fingerprint below.
* ``vectorized`` — a batched race kernel with its own stream layout;
  validated *distributionally*: χ² of per-round state occupancy against
  the Gibbs distribution ``p* ∝ exp(βU_f)`` (eq. 6) on a small instance,
  and a KS comparison of converged utilities vs serial across seeds.
  Where no timer can fire (every pair rejected) it must match serial
  byte for byte, which pins the chunked-convergence truncation edges it
  shares with the serial loop through ``segment_length``.
"""

import itertools
import math
import os

import numpy as np
import pytest

from repro.core import engine as engine_module
from repro.core.dynamics import (
    CommitteeEvent,
    DynamicSchedule,
    EventKind,
    fail_and_recover_schedule,
)
from repro.core.problem import EpochInstance, MVComConfig
from repro.core.se import SEConfig, SEResult, StochasticExploration
from repro.data.workload import WorkloadConfig, generate_epoch_workload


def solve_with(engine, *, num_committees=30, capacity=25_000, seed=0, gamma=4,
               max_iterations=500, convergence_window=200, schedule=None):
    workload = generate_epoch_workload(
        WorkloadConfig(num_committees=num_committees, capacity=capacity, seed=seed)
    )
    config = SEConfig(
        num_threads=gamma,
        max_iterations=max_iterations,
        convergence_window=convergence_window,
        seed=seed,
        engine=engine,
    )
    if schedule is not None:
        schedule.reset()
    return StochasticExploration(config).solve(workload.instance, schedule=schedule)


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

    def test_engine_names_exported(self):
        assert engine_module.ENGINE_NAMES == ("serial", "vectorized")


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
        results = []
        for engine in ("serial", "vectorized"):
            config = SEConfig(
                num_threads=3, max_iterations=500, convergence_window=100,
                seed=1, engine=engine,
            )
            results.append(StochasticExploration(config).solve(instance))
        serial, batched = results
        assert serial.converged and serial.iterations == 101
        assert_byte_identical(serial, batched)

    @pytest.mark.parametrize("window", [99, 100, 101])
    def test_convergence_around_chunk_boundary(self, window):
        """±1 around the segment size: truncation may fall on the last round
        of a chunk, exactly at the boundary, or one round into the next."""
        instance = _frozen_instance()
        results = []
        for engine in ("serial", "vectorized"):
            config = SEConfig(
                num_threads=2, max_iterations=400, convergence_window=window,
                seed=2, engine=engine,
            )
            results.append(StochasticExploration(config).solve(instance))
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
            seed=3, engine="vectorized", beta=beta,
        )
        solver = StochasticExploration(config)
        run = engine_module._EngineRun(solver, instance, None, None)
        state = engine_module._VectorState(run.replicas, instance, solver.config)
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
        vectorized engine are distributionally indistinguishable from serial
        (α=0.01 ⇒ D < 1.628·sqrt(2/n))."""
        seeds = range(50)
        serial_u, vector_u = [], []
        for seed in seeds:
            for engine, sink in (("serial", serial_u), ("vectorized", vector_u)):
                result = solve_with(
                    engine, num_committees=20, capacity=16_000, seed=seed,
                    gamma=2, max_iterations=300, convergence_window=150,
                )
                sink.append(result.best_utility)
        a = np.sort(np.asarray(serial_u))
        b = np.sort(np.asarray(vector_u))
        grid = np.union1d(a, b)
        cdf_a = np.searchsorted(a, grid, side="right") / a.size
        cdf_b = np.searchsorted(b, grid, side="right") / b.size
        d_stat = float(np.abs(cdf_a - cdf_b).max())
        d_crit = 1.628 * math.sqrt((a.size + b.size) / (a.size * b.size))
        assert d_stat < d_crit


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
        config = SEConfig(
            num_threads=4, max_iterations=400, convergence_window=150,
            seed=7, engine="vectorized",
        )
        result = StochasticExploration(config).solve(instance, schedule=schedule)
        assert len(result.events_applied) == 2
        final = result.final_instance
        assert final.weight(result.best_mask) <= final.capacity


# ---------------------------------------------------------------------- #
# engine="auto" selection and equivalence
# ---------------------------------------------------------------------- #
class _CaptureSink:
    """Minimal telemetry sink: keeps every record for assertions."""

    def __init__(self):
        self.records = []

    def emit(self, record):
        self.records.append(record)

    def close(self):
        pass


def _dense_schedule(max_iterations, every=10):
    """A schedule whose mean event gap is well under AUTO_DENSE_GAP_ROUNDS."""
    return DynamicSchedule(events=[
        CommitteeEvent(iteration=i, kind=EventKind.LEAVE, shard_id=0)
        for i in range(0, max_iterations, every)
    ])


class TestAutoEngine:
    def test_selectable_engines_exported(self):
        assert engine_module.SELECTABLE_ENGINES == ("auto", "serial", "vectorized")
        assert SEConfig().engine == engine_module.AUTO_ENGINE

    @pytest.mark.parametrize("gamma,racing,cpus,dense,expected", [
        # Small work: the scalar loop wins regardless of the core count.
        (2, 10, 1, False, "serial"),
        (2, 10, 64, False, "serial"),
        # Sparse schedule + big work: batched kernel, cpu-independent.
        (8, 60, 1, False, "vectorized"),
        (8, 60, 64, False, "vectorized"),
        # A dense schedule keeps the scalar loop whatever the core count.
        (8, 600, 64, True, "serial"),
        (8, 600, 2, True, "serial"),
        (2, 600, 64, True, "serial"),
        (8, 100, 64, True, "serial"),
    ])
    def test_selection_matrix(self, monkeypatch, gamma, racing, cpus, dense, expected):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        config = SEConfig(
            num_threads=gamma, max_iterations=400, convergence_window=100
        )
        schedule = _dense_schedule(400) if dense else None
        engine, reason = engine_module.select_engine(config, racing, schedule=schedule)
        assert engine == expected, reason

    def test_selection_is_machine_independent_for_the_batched_split(self, monkeypatch):
        """The auto pick decides the trajectory, so it never depends on the
        core count the machine reports."""
        config = SEConfig(num_threads=8, max_iterations=400,
                          convergence_window=100)
        cases = [(10, None), (60, None), (600, _dense_schedule(400))]
        picks = {}
        for cpus in (1, 64):
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            picks[cpus] = [
                engine_module.select_engine(config, racing, schedule=schedule)
                for racing, schedule in cases
            ]
        assert picks[1] == picks[64]

    @pytest.mark.parametrize(
        "engine, ran", [("auto", "serial"), ("serial", "serial"), ("vectorized", "vectorized")]
    )
    def test_result_names_the_engine_that_ran(self, engine, ran):
        assert solve_with(engine, max_iterations=50).engine == ran

    def test_auto_small_instance_byte_identical_to_serial(self):
        """Default solve_with instance has work << AUTO_VECTORIZE_MIN_WORK,
        so auto must resolve to serial and reproduce its exact bytes."""
        assert_byte_identical(solve_with("auto"), solve_with("serial"))

    def test_auto_big_instance_matches_vectorized_and_logs_decision(self):
        """On a thread-rich instance auto resolves to the batched kernel:
        the pick is logged as an engine.auto event and the run is
        byte-identical to engine="vectorized" (same streams, same kernel) —
        which carries over the χ²-vs-Gibbs / KS validation of the batched
        kernel to every auto→batched pick."""
        from repro.obs.telemetry import Telemetry

        workload = generate_epoch_workload(
            WorkloadConfig(num_committees=150, capacity=150_000, seed=2)
        )
        kwargs = dict(num_threads=8, max_iterations=120,
                      convergence_window=10 ** 6, seed=2)
        sink = _CaptureSink()
        hub = Telemetry(sinks=[sink])
        auto_result = StochasticExploration(
            SEConfig(engine="auto", **kwargs), telemetry=hub
        ).solve(workload.instance)
        hub.close()
        decisions = [r for r in sink.records if r.get("name") == "engine.auto"]
        assert len(decisions) == 1
        assert decisions[0]["engine"] == "vectorized"
        assert decisions[0]["work"] >= engine_module.AUTO_VECTORIZE_MIN_WORK
        assert auto_result.engine == "vectorized"
        explicit = StochasticExploration(
            SEConfig(engine="vectorized", **kwargs)
        ).solve(workload.instance)
        assert_byte_identical(auto_result, explicit)

    def test_auto_batched_picks_match_serial_distributionally(self):
        """KS over 30 seeds on an instance where auto picks the batched
        kernel: converged utilities indistinguishable from serial
        (alpha=0.01 => D < 1.628*sqrt(2/n))."""
        serial_u, auto_u = [], []
        for seed in range(30):
            for engine, sink in (("serial", serial_u), ("auto", auto_u)):
                result = solve_with(
                    engine, num_committees=40, capacity=32_000, seed=seed,
                    gamma=8, max_iterations=250, convergence_window=120,
                )
                sink.append(result.best_utility)
        a = np.sort(np.asarray(serial_u))
        b = np.sort(np.asarray(auto_u))
        grid = np.union1d(a, b)
        cdf_a = np.searchsorted(a, grid, side="right") / a.size
        cdf_b = np.searchsorted(b, grid, side="right") / b.size
        d_stat = float(np.abs(cdf_a - cdf_b).max())
        d_crit = 1.628 * math.sqrt((a.size + b.size) / (a.size * b.size))
        assert d_stat < d_crit


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
        results = {}
        for engine in ("serial", "vectorized"):
            config = SEConfig(
                num_threads=3, max_iterations=400, convergence_window=100,
                seed=11, engine=engine,
            )
            results[engine] = StochasticExploration(config).solve(instance)
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
        se_config = SEConfig(
            num_threads=2, max_iterations=200, convergence_window=50,
            seed=3, engine=engine,
        )
        result = StochasticExploration(se_config).solve(
            instance, schedule=schedule
        )
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
            seed=5, engine="vectorized", beta=1.0 / 60.0,
        )
        solver = StochasticExploration(config)
        run = engine_module._EngineRun(solver, instance, None, None)
        state = engine_module._VectorState(
            run.replicas, instance, solver.config,
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
