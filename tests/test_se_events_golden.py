"""Golden pins for SE solves with dynamic events (Alg. 1 lines 9-12).

A LEAVE or JOIN mid-solve moves the Γ×thread population onto the new
instance: rows that held a departed committee re-draw from the replica's
``replica-{id}-leave`` stream, the rest are rebased, and the re-spread
thread family spawns and re-draws from ``replica-{id}-init``.  These pins
cover that path on the race kernel and on the serial oracle
(``tests/serial_oracle.py``):

* ``fail_and_recover``: Fig. 9a's shape, the busiest committee fails and
  later rejoins (a DDL-shifting JOIN);
* ``duplicates_only``: every event leaves the instance unchanged (a LEAVE
  of an absent committee, a JOIN of a present one).  Under ``serial`` each
  thread keeps its swap-pair slot order across such a boundary, so this
  pin fails if the oracle rebuilds its threads there;
* ``storm``: a 40-event :func:`repro.faultinject.generate_storm` schedule
  (bursts, correlated failures, rejoins, duplicates, stragglers).

Each solve pins the decision mask bytes, ``repr`` of the utility, the race
iterations, the sha256 of the utility trace and every ``se.reseat``
event's fields.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.core.dynamics import (
    CommitteeEvent,
    DynamicSchedule,
    EventKind,
    fail_and_recover_schedule,
)
from repro.core.problem import EpochInstance
from repro.core.se import SEConfig, StochasticExploration
from repro.data.workload import WorkloadConfig, generate_epoch_workload
from repro.faultinject import StormConfig, build_storm_instance, generate_storm
from repro.obs.telemetry import Telemetry
from repro.sim.rng import RandomStreams

from tests.serial_oracle import racing


def _instance() -> EpochInstance:
    """A 48-committee workload epoch whose Ĉ is half its submitted TXs."""
    base = generate_epoch_workload(
        WorkloadConfig(num_committees=48, alpha=1.5, seed=2)
    ).instance
    config = replace(base.config, capacity=int(0.5 * int(base.tx_counts.sum())))
    return EpochInstance(base.tx_counts, base.latencies, config,
                         shard_ids=tuple(base.shard_ids))


def _fail_and_recover():
    instance = _instance()
    victim = int(np.argmax(instance.tx_counts))
    return instance, fail_and_recover_schedule(
        shard_id=instance.shard_ids[victim],
        tx_count=int(instance.tx_counts[victim]),
        latency=float(instance.latencies[victim]),
        fail_at=120,
        recover_at=260,
    )


def _duplicates_only():
    instance = _instance()
    present = instance.shard_ids[5]
    return instance, DynamicSchedule([
        CommitteeEvent(iteration=90, kind=EventKind.LEAVE, shard_id=99_999),
        CommitteeEvent(iteration=90, kind=EventKind.JOIN, shard_id=present,
                       tx_count=123, latency=45.0),
        CommitteeEvent(iteration=210, kind=EventKind.JOIN, shard_id=present,
                       tx_count=456, latency=78.0),
    ])


def _storm():
    config = StormConfig(seed=6, num_events=40, num_committees=24, gamma=3,
                         max_iterations=400, convergence_window=10_000)
    instance = build_storm_instance(config)
    events = generate_storm(instance, config, RandomStreams(config.seed))
    return instance, DynamicSchedule(events)


SCHEDULES = {
    "fail_and_recover": _fail_and_recover,
    "duplicates_only": _duplicates_only,
    "storm": _storm,
}


def _config() -> SEConfig:
    return SEConfig(num_threads=3, max_solution_threads=10, max_iterations=400,
                    convergence_window=10_000, seed=9)


class _Reseats:
    """Sink keeping only the ``se.reseat`` events."""

    def __init__(self):
        self.records = []

    def emit(self, record):
        if record.get("name") == "se.reseat":
            self.records.append(record)


RESEAT_KEYS = ("events", "threads_spawned", "threads_reinitialised", "num_shards")


def _pin(result, reseats) -> dict:
    trace = np.asarray(result.utility_trace, dtype=np.float64)
    return {
        "mask": np.packbits(result.best_mask).tobytes().hex(),
        "utility": repr(result.best_utility),
        "iterations": int(result.iterations),
        "trace_sha256": hashlib.sha256(trace.tobytes()).hexdigest(),
        "reseats": [[record[key] for key in RESEAT_KEYS] for record in reseats],
    }


def _solve(name: str, engine: str) -> dict:
    instance, schedule = SCHEDULES[name]()
    sink = _Reseats()
    solver = StochasticExploration(_config(), telemetry=Telemetry(sinks=[sink]))
    with racing(engine):
        result = solver.solve(instance, schedule=schedule)
    assert result.engine == engine
    assert len(result.events_applied) == len(schedule)
    return _pin(result, sink.records)


GOLDEN = {
    ("duplicates_only", "serial"): {
        "mask": "0100c7fffc",
        "utility": "32851.47028781862",
        "iterations": 400,
        "trace_sha256": ("62f46e6676f8f3ef75cf11dad8ad40b6"
                         "743df7b1d2ece68db41b6c0ba7e2314a"),
        "reseats": [[2, 0, 0, 38], [1, 0, 0, 38]],
    },
    ("duplicates_only", "vectorized"): {
        "mask": "003251dffc",
        "utility": "32985.98753594784",
        "iterations": 400,
        "trace_sha256": ("507986cf199eb2a78aa9738c06e36cc8"
                         "f3c5a2d44ee44f329f571330ab766d7e"),
        "reseats": [[2, 0, 0, 38], [1, 0, 0, 38]],
    },
    ("fail_and_recover", "serial"): {
        "mask": "0841aefdf8",
        "utility": "32406.453419718375",
        "iterations": 400,
        "trace_sha256": ("8e0e8634bf5881cfe2799a148ebaa64a"
                         "83ca82affc02a25ed360f1465fa91a2c"),
        "reseats": [[1, 0, 0, 37], [1, 0, 0, 38]],
    },
    ("fail_and_recover", "vectorized"): {
        "mask": "00a83bffb8",
        "utility": "32601.676110091892",
        "iterations": 400,
        "trace_sha256": ("903989c699d647045497991bfbe4297b"
                         "b0dcf5b9d8106722739e265aaf4d1554"),
        "reseats": [[1, 0, 0, 37], [1, 0, 0, 38]],
    },
    ("storm", "serial"): {
        "mask": "3f3f80",
        "utility": "28804.09609774436",
        "iterations": 400,
        "trace_sha256": ("b943d40de017c69973f3d018031a951d"
                         "7b31837c823b79423ce293a8c973e3d5"),
        "reseats": [[8, 3, 0, 19], [1, 3, 0, 18], [7, 0, 3, 19], [4, 3, 0, 17],
                    [2, 0, 3, 17], [13, 0, 0, 19], [1, 0, 0, 20], [4, 3, 0, 17]],
    },
    ("storm", "vectorized"): {
        "mask": "3f3f80",
        "utility": "28804.09609774436",
        "iterations": 400,
        "trace_sha256": ("cf7dace26f3239ba1a640f9dc3a3614b"
                         "67b1b10aec98153d6cdc3716ce01cf04"),
        "reseats": [[8, 3, 0, 19], [1, 3, 0, 18], [7, 0, 3, 19], [4, 3, 0, 17],
                    [2, 0, 3, 17], [13, 0, 0, 19], [1, 0, 0, 20], [4, 3, 0, 17]],
    },
}


@pytest.mark.parametrize("engine", ["serial", "vectorized"])
@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_dynamic_event_solve_matches_the_golden_pin(name, engine):
    assert _solve(name, engine) == GOLDEN[(name, engine)]
