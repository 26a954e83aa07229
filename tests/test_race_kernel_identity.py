"""Byte-identity pins for the batched race kernel's trajectories.

How :class:`repro.core.engine._VectorState` stores and gathers each racing
row's swap slots is free to change; what it races is not.  Each case runs
one solve (or a cold solve and a warm one after it) on the production
kernel and pins one sha256 over everything the race writes:

* the decision: mask bytes, ``repr`` of the utility, weight, count and
  race iterations;
* the utility, current-utility and virtual-time traces;
* every columnar ``se.transition`` record (replica, cardinality, swap
  positions, utility);
* the warm population: every row's mask, utility, weight, count and
  ``ok`` flag, and the replica clocks;
* the final state of the ``vectorized-race-retry`` stream.

The cases cover the kernel's branches:

* ``eth2_cold``: an eth2-shaped cold solve (~520 shards, Γ=10, 64
  threads) under a Ĉ that never binds, so no lane-0 pair is rejected;
* ``binding_retry_park``: a Ĉ at 45% of the submitted transactions, so
  rows retry on the retry stream and some exhaust the budget and park;
* ``single_try``: the same shape at ``pair_tries=1``, so rejected rows
  park without touching the retry stream;
* ``capacity_near_total``: a Ĉ just under the submitted transactions, so
  const. (4) binds but many rounds reject no lane-0 pair and fire every
  replica;
* ``warm_events``: a cold solve, then a warm solve on a drifted instance
  with a LEAVE and a JOIN mid-run;
* ``idle_replica``: a Ĉ that never binds, but one replica has no racing
  row, so no round fires every replica;
* ``shards_256``/``shards_257``: the largest instance whose shard
  positions fit a byte, and the smallest that does not.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core import engine as engine_module
from repro.core.dynamics import CommitteeEvent, DynamicSchedule, EventKind
from repro.core.problem import EpochInstance, MVComConfig
from repro.core.se import SEConfig, StochasticExploration
from repro.data.workload import WorkloadConfig, generate_epoch_workload
from repro.obs.telemetry import Telemetry
from repro.sim.rng import RandomStreams


class _Transitions:
    """Sink keeping only the columnar ``se.transition`` records."""

    def __init__(self):
        self.records = []

    def emit(self, record):
        if record.get("name") == "se.transition":
            self.records.append(record)


def _workload(num_committees: int, alpha: float, capacity_share: float, seed: int = 0):
    """A workload epoch whose Ĉ is ``capacity_share`` of its submitted TXs."""
    base = generate_epoch_workload(
        WorkloadConfig(num_committees=num_committees, alpha=alpha, seed=seed)
    ).instance
    config = replace(base.config, capacity=int(capacity_share * int(base.tx_counts.sum())))
    return EpochInstance(base.tx_counts, base.latencies, config,
                         shard_ids=tuple(base.shard_ids))


def _drifted(instance: EpochInstance, seed: int) -> EpochInstance:
    """``instance`` with every committee's TX count redrawn within ±20%."""
    rng = np.random.default_rng(seed)
    tx = np.maximum(1, instance.tx_counts * rng.uniform(0.8, 1.2, instance.num_shards))
    return EpochInstance(tx.astype(np.int64), instance.latencies, instance.config,
                         shard_ids=instance.shard_ids)


def _flat(num_shards: int) -> EpochInstance:
    """``num_shards`` seeded committees under a Ĉ at 60% of their TXs."""
    rng = np.random.default_rng(num_shards)
    tx = rng.integers(200, 2_000, num_shards)
    latencies = rng.uniform(50.0, 600.0, num_shards)
    return EpochInstance(tx, latencies, MVComConfig(capacity=int(0.6 * tx.sum()), alpha=1.5))


BINDING = SEConfig(num_threads=8, max_solution_threads=24, max_iterations=300,
                   convergence_window=10_000, seed=5)


def _solve(config, instance, sink, schedule=None, warm=None):
    solver = StochasticExploration(config, telemetry=Telemetry(sinks=[sink]))
    return solver.solve(instance, schedule=schedule, warm=warm)


def _eth2_cold(sink):
    config = SEConfig(num_threads=10, max_solution_threads=64, max_iterations=120,
                      convergence_window=10_000, seed=1)
    return _solve(config, _workload(650, 0.1, 2.0), sink)


def _binding_retry_park(sink):
    return _solve(BINDING, _workload(120, 1.5, 0.45), sink)


def _single_try(sink):
    return _solve(replace(BINDING, pair_tries=1), _workload(120, 1.5, 0.45), sink)


def _capacity_near_total(sink):
    return _solve(BINDING, _workload(120, 1.5, 0.995), sink)


def _warm_events(sink):
    first = _workload(120, 1.5, 0.45)
    cold = _solve(BINDING, first, sink)
    second = _drifted(first, seed=11)
    schedule = DynamicSchedule([
        CommitteeEvent(iteration=80, kind=EventKind.LEAVE,
                       shard_id=second.shard_ids[int(np.argmax(second.values))]),
        CommitteeEvent(iteration=160, kind=EventKind.JOIN, shard_id=10_000,
                       tx_count=900, latency=300.0),
    ])
    return _solve(BINDING, second, sink, schedule=schedule, warm=cold)


def _idle_replica(sink):
    instance = _workload(120, 1.5, 2.0)
    solver = StochasticExploration(BINDING, telemetry=Telemetry(sinks=[sink]))
    run = engine_module._EngineRun(solver, instance, None, None)
    rows = run.population.rows
    threads = run.population.cardinalities.size
    rows.ok[2 * threads: 3 * threads] = False  # replica 2 races nothing
    return engine_module.run_vectorized(run)


def _shards(num_shards):
    def solve(sink):
        config = SEConfig(num_threads=6, max_solution_threads=16, max_iterations=150,
                          convergence_window=10_000, seed=num_shards)
        return _solve(config, _flat(num_shards), sink)
    return solve


CASES = {
    "eth2_cold": _eth2_cold,
    "binding_retry_park": _binding_retry_park,
    "single_try": _single_try,
    "capacity_near_total": _capacity_near_total,
    "warm_events": _warm_events,
    "idle_replica": _idle_replica,
    "shards_256": _shards(256),
    "shards_257": _shards(257),
}

GOLDEN = {
    "eth2_cold": "96eb973121839f7de9fe91c53e755b9663ad711ba483403865f3f0f7b579849e",
    "binding_retry_park": "f25ee4d93e3c7f2874d939f7c96dc380afcbdf916b0d294eba18e129f18a6aa6",
    "single_try": "8743fd754ad8bed51e5d755c0a3f94fecc95304cde86da8cc0d212c8cc3b44b8",
    "capacity_near_total": "a25e76c2189089bfafaab4331efd5c8dc6efdb2dd3f14b16a56dc48c15ca796c",
    "warm_events": "f181fb599589161c704683ca807c2ad27ad34161cedf094c92e4f1efb1add986",
    "idle_replica": "238325729e7d55f13112c01053d8b851cb0c2f85f6681b117bd19199f3e936a3",
    "shards_256": "8843b0a2c10e9d14a65dee21454b0de08f28b32d4d652f7badb52b4aa7465cd4",
    "shards_257": "955908ebd56711b787cec2ca425a895c8618b39d3a4c6dc7330c5a06e02a9959",
}

TRANSITION_COLUMNS = (
    ("iteration", np.int64), ("replica", np.int64), ("cardinality", np.int64),
    ("swap_out", np.int64), ("swap_in", np.int64), ("utility", np.float64),
)


def _digest(result, transitions) -> str:
    digest = hashlib.sha256()

    def feed(array, dtype):
        digest.update(np.ascontiguousarray(np.asarray(array, dtype=dtype)).tobytes())

    feed(np.packbits(result.best_mask), np.uint8)
    digest.update(repr((result.best_utility, int(result.best_weight),
                        int(result.best_count), int(result.iterations))).encode())
    for trace in (result.utility_trace, result.current_trace, result.virtual_time_trace):
        feed(trace, np.float64)
    for record in transitions:
        for column, dtype in TRANSITION_COLUMNS:
            feed(record[column], dtype)
    warm = result.warm_state
    rows = warm.population.rows
    feed(np.packbits(rows.masks, axis=1), np.uint8)
    feed(rows.utility, np.float64)
    feed(rows.weight, np.int64)
    feed(rows.count, np.int64)
    feed(rows.ok, np.bool_)
    feed(warm.population.virtual_times, np.float64)
    digest.update(json.dumps(_retry_state(result), sort_keys=True).encode())
    return digest.hexdigest()


def _retry_state(result) -> dict:
    return result.warm_state.streams.get("vectorized-race-retry").bit_generator.state


@pytest.mark.parametrize("name", sorted(CASES))
def test_race_trajectory_matches_the_byte_identity_pin(name):
    sink = _Transitions()
    result = CASES[name](sink)
    assert result.engine == "vectorized"
    assert sink.records  # the race fired
    assert _digest(result, sink.records) == GOLDEN[name]


def test_retry_stream_is_read_only_when_a_row_retries():
    """The binding case draws retry lanes; at ``pair_tries=1`` rejected rows
    park without drawing."""
    fresh = RandomStreams(BINDING.seed).get("vectorized-race-retry").bit_generator.state
    assert _retry_state(_binding_retry_park(_Transitions())) != fresh
    assert _retry_state(_single_try(_Transitions())) == fresh


@pytest.mark.parametrize("num_shards, dtype", [(256, np.uint8), (257, np.uint16)])
def test_slots_hold_positions_in_the_smallest_unsigned_type(num_shards, dtype):
    instance = _flat(num_shards)
    solver = StochasticExploration(replace(BINDING, num_threads=2))
    run = engine_module._EngineRun(solver, instance, None, None)
    state = engine_module._VectorState(run.population, instance, solver.config)
    assert state.slots.dtype == dtype
