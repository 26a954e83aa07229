"""Golden pins for cold ``engine="vectorized"`` solves.

A cold solve bootstraps the Γ×thread population from the per-replica
``replica-{id}-init`` streams (Alg. 1 line 3, Alg. 2) and then races it
on the batched kernel.  ``tests/test_serve_warm_golden.py`` pins only one
cold vectorized bootstrap (its epoch 0); these pins cover the two shapes
the bootstrap takes:

* ``eth2_shape``: 409 shards (35 with a positive value), Γ=10,
  ``max_solution_threads=64`` and a Ĉ that never binds, so every draw is
  accepted as drawn;
* ``binding_capacity``: a Ĉ at 45% of the submitted transactions, so most
  draws take Alg. 2's heavy/light swap repair;
* ``dynamic_events``: the binding-Ĉ shape with a LEAVE and a JOIN mid-run,
  so the raced rows go back to the population, through thread objects for
  the event re-seat, and back into a rebuilt batched state twice.

Each solve pins the decision mask bytes, ``repr`` of the utility, the
weight, the race iterations, the sha256 of the utility trace and the
``se.bootstrap`` event's fields.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.core.dynamics import CommitteeEvent, DynamicSchedule, EventKind
from repro.core.problem import EpochInstance
from repro.core.se import SEConfig, StochasticExploration
from repro.data.workload import WorkloadConfig, generate_epoch_workload
from repro.obs.telemetry import Telemetry


def _instance(num_committees: int, alpha: float, capacity_share: float) -> EpochInstance:
    """A workload epoch whose Ĉ is ``capacity_share`` of its submitted TXs."""
    base = generate_epoch_workload(
        WorkloadConfig(num_committees=num_committees, alpha=alpha, seed=0)
    ).instance
    config = replace(base.config, capacity=int(capacity_share * int(base.tx_counts.sum())))
    return EpochInstance(base.tx_counts, base.latencies, config,
                         shard_ids=tuple(base.shard_ids))


def _events(instance: EpochInstance) -> DynamicSchedule:
    """A selected-heavy LEAVE at round 100 and a JOIN at round 200."""
    return DynamicSchedule([
        CommitteeEvent(iteration=100, kind=EventKind.LEAVE,
                       shard_id=instance.shard_ids[int(np.argmax(instance.values))]),
        CommitteeEvent(iteration=200, kind=EventKind.JOIN, shard_id=10_000,
                       tx_count=900, latency=300.0),
    ])


BINDING = SEConfig(num_threads=8, max_solution_threads=24, max_iterations=300,
                   convergence_window=10_000, seed=5, engine="vectorized")

CASES = {
    "eth2_shape": (
        lambda: _instance(512, 0.1, 2.0),
        SEConfig(num_threads=10, max_solution_threads=64, max_iterations=300,
                 convergence_window=10_000, seed=0, engine="vectorized"),
        None,
    ),
    "binding_capacity": (lambda: _instance(120, 1.5, 0.45), BINDING, None),
    "dynamic_events": (lambda: _instance(120, 1.5, 0.45), BINDING, _events),
}

GOLDEN = {
    "eth2_shape": {
        "shards": 409,
        "mask": (
            "46580b213ca748404d6a137bc38a806f7a3aa7a4736529c505cf40ac0986ea5d"
            "bfc9498d556180cedffff9eebc0d97aff3acdb00"
        ),
        "utility": "-84819.40645223421",
        "weight": 310581,
        "iterations": 300,
        "trace_sha256": "ce6ee864d1f0b8cb2aec47dad8da68e866ab24e83b875306f4fd970237da4afc",
        "bootstrap": {"replicas": 10, "solution_threads": 64, "n_lo": 205, "n_hi": 409,
                      "num_shards": 409, "capacity": 1198902},
    },
    "binding_capacity": {
        "shards": 96,
        "mask": "1a0201040809b75bf7f75fff",
        "utility": "75845.92707265331",
        "weight": 64665,
        "iterations": 300,
        "trace_sha256": "dba4bee8119cab815eaa1438461b90d8a0d7a7a8b888bb80bbf64e0e554409f1",
        "bootstrap": {"replicas": 8, "solution_threads": 15, "n_lo": 48, "n_hi": 62,
                      "num_shards": 96, "capacity": 64770},
    },
    "dynamic_events": {
        "shards": 96,
        "mask": "111a40081ae36f367f8e3efe",
        "utility": "73695.4147185665",
        "weight": 64745,
        "iterations": 300,
        "trace_sha256": "4b6d78fcc24302b35e59c43ca6573a66f727ba66e7177962393702eb7896fcfc",
        "bootstrap": {"replicas": 8, "solution_threads": 15, "n_lo": 48, "n_hi": 62,
                      "num_shards": 96, "capacity": 64770},
    },
}


class _Bootstraps:
    """Sink keeping only the ``se.bootstrap`` events."""

    def __init__(self):
        self.records = []

    def emit(self, record):
        if record.get("name") == "se.bootstrap":
            self.records.append(record)


BOOTSTRAP_KEYS = ("replicas", "solution_threads", "n_lo", "n_hi", "num_shards", "capacity")


def _pin(result, bootstrap) -> dict:
    trace = np.asarray(result.utility_trace, dtype=np.float64)
    return {
        "shards": int(result.best_mask.size),
        "mask": np.packbits(result.best_mask).tobytes().hex(),
        "utility": repr(result.best_utility),
        "weight": int(result.best_weight),
        "iterations": int(result.iterations),
        "trace_sha256": hashlib.sha256(trace.tobytes()).hexdigest(),
        "bootstrap": {key: bootstrap[key] for key in BOOTSTRAP_KEYS},
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_cold_vectorized_solve_matches_the_golden_pin(name):
    make_instance, config, make_schedule = CASES[name]
    instance = make_instance()
    schedule = make_schedule(instance) if make_schedule else None
    sink = _Bootstraps()
    result = StochasticExploration(config, telemetry=Telemetry(sinks=[sink])).solve(
        instance, schedule=schedule
    )
    assert result.engine == "vectorized"
    assert len(result.events_applied) == (len(schedule) if schedule else 0)
    assert len(sink.records) == 1
    assert _pin(result, sink.records[0]) == GOLDEN[name]
