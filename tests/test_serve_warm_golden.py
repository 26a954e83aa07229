"""Golden pins for warm-started serve decisions.

``mvcom serve`` seeds every epoch's SE solve from the previous epoch's
carried thread population (``StochasticExploration._adopt_replicas``).
``tests/test_core_warm.py`` pins byte identity only for zero drift; these
pins cover drift adoption, where every carried thread is rebased, resized
back to its cardinality and re-anchored, and missing cardinalities spawn.
Two runs are pinned epoch by epoch:

* ``spawn_heavy_serial``: the serial oracle (``tests/serial_oracle.py``)
  under heavy churn and growth, so adoption spawns threads at every warm
  epoch;
* ``vectorized_gamma25``: the batched engine at the serve-warm shape
  (Γ=25 × 100 committees), so adoption re-seats 675–825 threads.

Each epoch pins the decision mask bytes, ``repr`` of the utility, the
weight, the race iterations and the sha256 of the utility trace; each warm
epoch pins the ``se.warm_start`` re-seat counts.
"""

import hashlib

import numpy as np
import pytest

from repro.harness.serve import ServeConfig, run_serve
from repro.obs.telemetry import Telemetry

from tests.serial_oracle import racing

RUNS = {
    "spawn_heavy_serial": ServeConfig(
        epochs=5, num_committees=40, churn=0.5, growth=5, gamma=4, seed=3,
    ),
    "vectorized_gamma25": ServeConfig(
        epochs=3, num_committees=100, churn=0.1, gamma=25, seed=0,
        max_iterations=2000, convergence_window=400,
    ),
}

#: The race each run is served on.
ENGINES = {"spawn_heavy_serial": "serial", "vectorized_gamma25": "vectorized"}

STAT_KEYS = ("retained", "reseated", "spawned", "zero_drift")

GOLDEN = {
    "spawn_heavy_serial": {
        "epochs": [
            {
                "shards": 45,
                "mask": "26bd94c8e4d8",
                "utility": "39074.97664092831",
                "weight": 44892,
                "iterations": 829,
                "trace_sha256": "09ac883dd0ae3aca68aac8d02438ee43bf63338b86963cd2e839cf961fdc62b0",
            },
            {
                "shards": 50,
                "mask": "8d14de32d17680",
                "utility": "51234.59507111731",
                "weight": 49972,
                "iterations": 380,
                "trace_sha256": "771e4405d3c3cb94b89e806eadcd2ce02f5b8343f48cc2f478aee5d6cc5fb8be",
            },
            {
                "shards": 55,
                "mask": "a5d161b09779d8",
                "utility": "24533.602741957373",
                "weight": 54795,
                "iterations": 604,
                "trace_sha256": "bc83078f38d12b3812ea12adf2cc3fb80711338e63a1d8bf149a09c000881629",
            },
            {
                "shards": 60,
                "mask": "b48a741692edfa40",
                "utility": "51868.322337233854",
                "weight": 59999,
                "iterations": 1135,
                "trace_sha256": "a5e7cf5f7caff210fd3f51acc88cbd988ec2fc0faf44086a0a4a6e381fb28a66",
            },
            {
                "shards": 65,
                "mask": "888e3aa41d33cd3f80",
                "utility": "29575.409203431707",
                "weight": 64627,
                "iterations": 1084,
                "trace_sha256": "e93bf91ce426e3eb99f46693e1e4c90d873a6cbb4280f31bd972733e29c5c375",
            },
        ],
        "warm_start": [
            {"retained": 68, "reseated": 0, "spawned": 8, "zero_drift": False},
            {"retained": 64, "reseated": 0, "spawned": 16, "zero_drift": False},
            {"retained": 72, "reseated": 0, "spawned": 8, "zero_drift": False},
            {"retained": 68, "reseated": 0, "spawned": 16, "zero_drift": False},
        ],
    },
    "vectorized_gamma25": {
        "epochs": [
            {
                "shards": 100,
                "mask": "8a33f883249d81fb3754c3b870",
                "utility": "55468.85295667934",
                "weight": 99886,
                "iterations": 1760,
                "trace_sha256": "3fec1e3e753bfcf575bba1b29e5fcf3a66a2f2a1e58684951e970ed24760a052",
            },
            {
                "shards": 100,
                "mask": "a833942a11a6ef57538ee8f540",
                "utility": "45140.89764898706",
                "weight": 99966,
                "iterations": 785,
                "trace_sha256": "d9eb63ef54cd59b0c0fdf058e350bf7dcdef6bd7bccfe208a5eaaee5a3759d25",
            },
            {
                "shards": 100,
                "mask": "a8331c6a510163ef691a7e1fe0",
                "utility": "38044.144939570935",
                "weight": 99945,
                "iterations": 1570,
                "trace_sha256": "1fb36281f7f46374977f401765596142118f7fce00f19b6dd0046c0c9d3d92ae",
            },
        ],
        "warm_start": [
            {"retained": 825, "reseated": 0, "spawned": 0, "zero_drift": False},
            {"retained": 675, "reseated": 0, "spawned": 0, "zero_drift": False},
        ],
    },
}


class _WarmStarts:
    """Sink keeping only the ``se.warm_start`` events."""

    def __init__(self):
        self.records = []

    def emit(self, record):
        if record.get("name") == "se.warm_start":
            self.records.append(record)


def _epoch_pin(result) -> dict:
    mask = result.best_mask
    trace = np.asarray(result.utility_trace, dtype=np.float64)
    return {
        "shards": int(mask.size),
        "mask": np.packbits(mask).tobytes().hex(),
        "utility": repr(result.best_utility),
        "weight": int(result.best_weight),
        "iterations": int(result.iterations),
        "trace_sha256": hashlib.sha256(trace.tobytes()).hexdigest(),
    }


@pytest.fixture(scope="module", params=sorted(RUNS))
def served(request):
    config = RUNS[request.param]
    starts = _WarmStarts()
    with racing(ENGINES[request.param]):
        report = run_serve(config, telemetry=Telemetry(sinks=[starts]), collect_results=True)
    return request.param, report, starts.records


def test_decisions_match_the_golden_pins(served):
    name, report, _ = served
    assert [_epoch_pin(result) for result in report.results] == GOLDEN[name]["epochs"]


def test_warm_start_stats_match_the_golden_pins(served):
    name, _, starts = served
    stats = [{key: record[key] for key in STAT_KEYS} for record in starts]
    assert stats == GOLDEN[name]["warm_start"]


def test_runs_exercise_the_engine_and_spawn_paths(served):
    name, report, starts = served
    assert {row.engine for row in report.rows} == {ENGINES[name]}
    assert len(starts) == RUNS[name].epochs - 1
    if name == "spawn_heavy_serial":
        assert all(record["spawned"] > 0 for record in starts)
    else:
        assert all(record["retained"] >= 675 for record in starts)
