"""Tests for ``mvcom serve`` — the steady-state scheduling service loop.

Pins the three service-level contracts:

* **Cold parity**: ``--cold`` is byte-identical to running today's
  standalone per-epoch solver over the same stream — the serve loop adds
  telemetry, never trajectory.
* **Warm chaining**: the default mode threads one solver's
  :class:`SEWarmState` through every epoch and reports honest SLIs.
* **Per-epoch auto selection**: ``engine="auto"`` re-evaluates its
  scalar-vs-batched split *inside every epoch's solve* and the growing
  population actually crosses it (the selection matrix).
"""

import json

import numpy as np
import pytest

from repro.core.se import SEConfig, StochasticExploration
from repro.data.stream import EpochStream, EpochStreamConfig
from repro.harness.cli import main
from repro.harness.serve import (
    ServeConfig,
    rounds_to_target,
    run_serve,
    run_serve_comparison,
    time_to_99,
)
from repro.obs.metrics import LogHistogram
from repro.obs.sinks import RingBufferSink
from repro.obs.telemetry import Telemetry

SMALL = dict(
    epochs=3,
    num_committees=30,
    gamma=4,
    max_iterations=400,
    convergence_window=200,
    seed=5,
)


# --------------------------------------------------------------------- #
# cold mode: parity with the standalone solver
# --------------------------------------------------------------------- #
class TestColdParity:
    def test_cold_serve_matches_standalone_per_epoch_solves(self):
        config = ServeConfig(warm=False, **SMALL)
        report = run_serve(config, collect_results=True)

        # Replay the identical stream through today's standalone path:
        # a fresh solver per epoch, no serve loop, no telemetry.
        stream = EpochStream(config.stream_config())
        permitted = []
        for epoch, row in enumerate(report.rows):
            tick = stream.advance(permitted)
            result = StochasticExploration(config.solver_config(epoch)).solve(
                tick.instance
            )
            assert result.best_utility == row.utility
            assert int(result.best_weight) == row.weight
            assert result.iterations == row.iterations
            assert np.array_equal(
                result.best_mask, report.results[epoch].best_mask
            )
            final = result.final_instance
            permitted = [
                final.shard_ids[i]
                for i in range(final.num_shards)
                if result.best_mask[i]
            ]

    def test_cold_is_reproducible(self):
        config = ServeConfig(warm=False, **SMALL)
        first = run_serve(config)
        second = run_serve(config)
        assert [row.utility for row in first.rows] == [
            row.utility for row in second.rows
        ]


# --------------------------------------------------------------------- #
# warm mode: the chained service loop
# --------------------------------------------------------------------- #
class TestWarmServe:
    def test_warm_serve_reports_sane_slis(self):
        report = run_serve(ServeConfig(**SMALL))
        assert len(report.rows) == SMALL["epochs"]
        assert report.solves_per_s > 0.0
        assert report.tx_scheduled_per_s > 0.0
        assert report.decision_p99_s >= report.decision_p50_s > 0.0
        assert report.mean_wall_to_99_s > 0.0
        assert report.slo_violations == []
        for row in report.rows:
            assert row.scheduled > 0
            assert row.weight > 0
            assert row.wall_to_99_s <= row.wall_s

    def test_warm_emits_one_warm_start_per_chained_epoch(self):
        ring = RingBufferSink()
        report = run_serve(
            ServeConfig(**SMALL), telemetry=Telemetry(sinks=[ring])
        )
        starts = [r for r in ring.records if r.get("name") == "se.warm_start"]
        # Epoch 0 bootstraps; every later epoch adopts the previous state.
        assert len(starts) == SMALL["epochs"] - 1
        epochs = [r for r in ring.records if r.get("name") == "serve.epoch"]
        assert [r["epoch"] for r in epochs] == list(range(SMALL["epochs"]))
        assert all(r["warm"] for r in epochs)
        assert len(report.rows) == SMALL["epochs"]

    def test_warm_is_reproducible(self):
        first = run_serve(ServeConfig(**SMALL))
        second = run_serve(ServeConfig(**SMALL))
        assert [row.utility for row in first.rows] == [
            row.utility for row in second.rows
        ]

    def test_comparison_record_shape(self, tmp_path):
        out = tmp_path / "bench.json"
        record = run_serve_comparison(ServeConfig(**SMALL), out_path=str(out))
        assert record["warm_speedup_rounds_to_99"] > 0
        assert len(record["per_epoch"]) == SMALL["epochs"] - 1
        assert json.loads(out.read_text())["bench"] == "serve"
        # Shared target: neither run is graded against a finish line only
        # it can see.
        for row in record["per_epoch"]:
            assert row["target_utility"] <= 0.99 * max(
                row["warm_final_utility"], row["cold_final_utility"]
            ) + 1e-6


# --------------------------------------------------------------------- #
# decision SLIs: read off the aggregator's serve.decision_latency_s series
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("warm", [True, False])
def test_decision_slis_equal_a_sketch_over_the_rows(warm):
    report = run_serve(ServeConfig(warm=warm, **SMALL))
    walls = [row.wall_s for row in report.rows]
    sketch = LogHistogram()
    for wall in walls:
        sketch.add(wall)
    assert report.decision_p50_s == sketch.quantile(0.5)
    assert report.decision_p99_s == sketch.quantile(0.99)
    assert report.solves_per_s == len(walls) / max(sum(walls), 1e-9)


# --------------------------------------------------------------------- #
# per-epoch auto engine selection
# --------------------------------------------------------------------- #
class TestAutoSelectionMatrix:
    def test_growing_population_crosses_the_batched_split(self):
        # Γ=8 over a population growing 44 -> 104 sweeps the racing work
        # across AUTO_VECTORIZE_MIN_WORK (152 -> 248): early epochs
        # resolve scalar, late epochs batched — re-evaluated per epoch,
        # not once.
        ring = RingBufferSink()
        run_serve(
            ServeConfig(
                epochs=4,
                num_committees=24,
                growth=20,
                gamma=8,
                max_iterations=300,
                convergence_window=150,
                seed=0,
            ),
            telemetry=Telemetry(sinks=[ring]),
        )
        autos = [r for r in ring.records if r.get("name") == "engine.auto"]
        assert len(autos) == 4, "auto must re-resolve inside every epoch"
        chosen = [r["engine"] for r in autos]
        assert "serial" in chosen and "vectorized" in chosen, chosen
        assert chosen == sorted(chosen, key=("serial", "vectorized").index), (
            f"growing work must move the split monotonically: {chosen}"
        )
        epoch_rows = [r for r in ring.records if r.get("name") == "serve.epoch"]
        assert [r["engine"] for r in epoch_rows] == chosen

    def test_pinned_engine_skips_auto_resolution(self):
        ring = RingBufferSink()
        run_serve(
            ServeConfig(engine="serial", **SMALL),
            telemetry=Telemetry(sinks=[ring]),
        )
        assert not [r for r in ring.records if r.get("name") == "engine.auto"]


# --------------------------------------------------------------------- #
# helpers and CLI
# --------------------------------------------------------------------- #
class TestServeHelpers:
    def test_rounds_to_target(self):
        trace = np.array([1.0, 2.0, 3.0, 3.0])
        assert rounds_to_target(trace, 2.0) == 2
        assert rounds_to_target(trace, 99.0) == 4

    def test_time_to_99_prorates_by_first_hit(self):
        class Result:
            utility_trace = np.array([50.0, 99.5, 100.0, 100.0])

        assert time_to_99(Result(), 4.0) == pytest.approx(2.0)


class TestServeCli:
    def test_serve_cli_smoke(self, capsys, tmp_path):
        out = tmp_path / "serve.json"
        code = main(
            [
                "serve",
                "--epochs", "2",
                "--committees", "24",
                "--gamma", "3",
                "--iterations", "200",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "mode=warm" in printed
        assert "steady state:" in printed
        assert json.loads(out.read_text())["mode"] == "warm"

    def test_serve_cli_cold_flag(self, capsys):
        code = main(
            [
                "serve", "--cold",
                "--epochs", "1",
                "--committees", "24",
                "--gamma", "3",
                "--iterations", "200",
            ]
        )
        assert code == 0
        assert "mode=cold" in capsys.readouterr().out

    def test_serve_rejects_positional_paths(self):
        with pytest.raises(SystemExit):
            main(["serve", "unexpected.json"])
