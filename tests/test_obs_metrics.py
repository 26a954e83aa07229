"""Quantile sketch accuracy, aggregator keying, and the trace-diff engine."""

import json
import math

import numpy as np
import pytest

from repro.harness.tracing import traced_solve
from repro.obs.metrics import (
    AGGREGATE_FORMAT,
    DIFF_EXCLUDE,
    RELATIVE_ACCURACY,
    WINDOW,
    LogHistogram,
    MetricsAggregator,
    diff_snapshots,
    load_aggregate,
    series_key,
)
from repro.obs.telemetry import Telemetry


# ---------------------------------------------------------------------- #
# LogHistogram: bounded relative error, merge associativity, round-trip
# ---------------------------------------------------------------------- #
class TestLogHistogram:
    RA = 0.01

    @pytest.mark.parametrize(
        "sample",
        [
            np.random.default_rng(0).lognormal(mean=1.0, sigma=1.2, size=5000),
            np.random.default_rng(1).uniform(0.001, 50.0, size=4000),
            np.random.default_rng(2).exponential(scale=3.0, size=3000),
        ],
        ids=["lognormal", "uniform", "exponential"],
    )
    def test_quantiles_track_numpy_within_relative_accuracy(self, sample):
        sketch = LogHistogram(relative_accuracy=self.RA)
        for value in sample:
            sketch.add(float(value))
        for q in (0.50, 0.90, 0.99):
            exact = float(np.percentile(sample, 100 * q))
            estimate = sketch.quantile(q)
            # Bin midpoints guarantee |est - exact| <= ra * exact for the
            # value the rank lands on; 2.5x covers rank-interpolation slack
            # (numpy interpolates between order statistics, the sketch
            # returns a bin representative).
            assert abs(estimate - exact) <= 2.5 * self.RA * exact, (
                f"q={q}: sketch {estimate} vs numpy {exact}"
            )

    def test_zero_and_negative_values_stay_sign_exact(self):
        sketch = LogHistogram()
        for value in (-4.0, -2.0, 0.0, 0.0, 1.0, 3.0):
            sketch.add(value)
        assert sketch.quantile(0.0) == -4.0  # exact at the minimum
        assert sketch.quantile(0.5) == 0.0  # zero bucket is exact
        assert sketch.quantile(1.0) <= sketch.maximum
        assert sketch.minimum == -4.0 and sketch.maximum == 3.0
        assert sketch.zero_count == 2

    def test_merge_is_associative_on_bins_and_quantiles(self):
        rng = np.random.default_rng(7)
        chunks = [rng.lognormal(size=500) for _ in range(3)]

        def build(values):
            sketch = LogHistogram()
            for value in values:
                sketch.add(float(value))
            return sketch

        left = build(chunks[0])
        left.merge(build(chunks[1]))
        left.merge(build(chunks[2]))  # (a + b) + c

        tail = build(chunks[1])
        tail.merge(build(chunks[2]))
        right = build(chunks[0])
        right.merge(tail)  # a + (b + c)

        # Bin counts are integers, so the merged *structure* is exactly
        # order-independent; only the float totals carry summation order.
        left_state, right_state = left.to_dict(), right.to_dict()
        assert left_state["bins"] == right_state["bins"]
        assert left_state["neg_bins"] == right_state["neg_bins"]
        assert left_state["count"] == right_state["count"]
        for q in (0.5, 0.9, 0.99):
            assert left.quantile(q) == right.quantile(q)
        assert left.total == pytest.approx(right.total, rel=1e-12)

    def test_merge_matches_single_sketch(self):
        values = list(np.random.default_rng(3).exponential(size=800))
        whole = LogHistogram()
        for value in values:
            whole.add(value)
        half_a, half_b = LogHistogram(), LogHistogram()
        for value in values[:400]:
            half_a.add(value)
        for value in values[400:]:
            half_b.add(value)
        half_a.merge(half_b)
        assert half_a.to_dict()["bins"] == whole.to_dict()["bins"]
        assert half_a.quantile(0.99) == whole.quantile(0.99)

    def test_round_trip_preserves_quantiles(self):
        sketch = LogHistogram()
        for value in (0.5, 1.5, 2.5, -1.0, 0.0):
            sketch.add(value)
        clone = LogHistogram.from_dict(sketch.to_dict())
        assert clone.to_dict() == sketch.to_dict()
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert clone.quantile(q) == sketch.quantile(q)

    def test_guards(self):
        with pytest.raises(ValueError):
            LogHistogram(relative_accuracy=0.0)
        with pytest.raises(ValueError):
            LogHistogram().quantile(0.5)  # empty
        with pytest.raises(ValueError):
            sketch = LogHistogram()
            sketch.add(1.0)
            sketch.quantile(1.5)
        with pytest.raises(ValueError):
            LogHistogram(relative_accuracy=0.01).merge(LogHistogram(relative_accuracy=0.02))


# ---------------------------------------------------------------------- #
# MetricsAggregator: keying, tags, rates, windows, snapshots
# ---------------------------------------------------------------------- #
def _hist(name, value, t, **fields):
    record = {"t": t, "type": "hist", "name": name, "value": value}
    record.update(fields)
    return record


class TestMetricsAggregator:
    def test_tagged_series_also_fold_into_untagged_parent(self):
        aggregator = MetricsAggregator()
        aggregator.consume(
            [
                _hist("chain.mempool.age_s", 1.0, 0, epoch=0),
                _hist("chain.mempool.age_s", 3.0, 1, epoch=1),
            ]
        )
        parent = aggregator.series("hist", "chain.mempool.age_s")
        assert parent.count == 2
        assert aggregator.series("hist", "chain.mempool.age_s", "epoch=0").count == 1
        assert aggregator.series("hist", "chain.mempool.age_s", "epoch=1").count == 1

    def test_span_records_feed_dt_sketch_and_lazy_wall_series(self):
        aggregator = MetricsAggregator()
        aggregator.emit(
            {"t": 5.0, "type": "span", "name": "chain.pbft.round",
             "t0": 0.0, "t1": 5.0, "dt": 5.0, "tag": "epoch0-committee1"}
        )
        span = aggregator.series("span", "chain.pbft.round", "tag=epoch0-committee1")
        assert span.sketch.count == 1
        assert span.stats()["p50"] == pytest.approx(5.0, rel=0.02)
        # No wall_dt anywhere in the stream -> no span.wall series at all.
        assert aggregator.series("span.wall", "chain.pbft.round") is None
        aggregator.emit(
            {"t": 6.0, "type": "span", "name": "chain.pbft.round",
             "t0": 5.0, "t1": 6.0, "dt": 1.0, "wall_dt": 0.002,
             "tag": "epoch0-committee1"}
        )
        wall = aggregator.series("span.wall", "chain.pbft.round")
        assert wall is not None and wall.count == 1

    def test_counter_rate_uses_increment_total_over_t(self):
        aggregator = MetricsAggregator()
        for t in range(11):  # 11 increments of 2 across t = 0..10
            aggregator.emit({"t": t, "type": "counter", "name": "se.reset_broadcasts",
                             "inc": 2, "total": 2 * (t + 1)})
        series = aggregator.series("counter", "se.reset_broadcasts")
        assert series.total == 22.0
        assert series.rate == pytest.approx(2.2)  # 22 increments / 10 t-units
        assert series.stats()["total"] == 22.0

    def test_gauge_keeps_last_value_and_window_mean(self):
        aggregator = MetricsAggregator()
        values = [float(v) for v in range(WINDOW + 3)]
        for t, value in enumerate(values):
            aggregator.emit({"t": t, "type": "gauge", "name": "g", "value": value})
        stats = aggregator.series("gauge", "g").stats()
        assert stats["last"] == values[-1]
        # The window holds the last WINDOW values; the first three fell out.
        assert stats["window_mean"] == pytest.approx(sum(values[3:]) / WINDOW)
        assert stats["mean"] == pytest.approx(sum(values) / len(values))

    def test_event_fields_become_field_series(self):
        aggregator = MetricsAggregator()
        aggregator.consume(
            [
                {"t": 0, "type": "event", "name": "se.round",
                 "best_utility": 10.0, "current_utility": 8.0, "transitions": 3},
                {"t": 1, "type": "event", "name": "se.round",
                 "best_utility": 12.0, "current_utility": 11.0, "transitions": 1},
            ]
        )
        assert aggregator.series("event", "se.round").count == 2
        best = aggregator.series("field", "se.round.best_utility")
        assert best.count == 2
        assert best.sketch.total == pytest.approx(22.0)
        # Non-numeric / bool field values never reach a sketch.
        aggregator.emit({"t": 2, "type": "event", "name": "se.round",
                         "best_utility": True})
        assert best.count == 2

    def test_snapshot_is_sorted_and_byte_stable(self, tmp_path):
        aggregator = MetricsAggregator()
        aggregator.consume([_hist("b", 1.0, 0), _hist("a", 2.0, 1, epoch=3)])
        snapshot = aggregator.snapshot()
        assert snapshot["format"] == AGGREGATE_FORMAT
        assert list(snapshot["series"]) == sorted(snapshot["series"])
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        aggregator.write_snapshot(path_a)
        aggregator.write_snapshot(path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_sink_protocol_on_a_live_hub(self):
        aggregator = MetricsAggregator()
        hub = Telemetry(sinks=[aggregator])
        hub.observe("x", 1.5)
        hub.count("c")
        hub.close()
        assert aggregator.records == 2
        assert aggregator.series("hist", "x").count == 1
        assert aggregator.series("counter", "c").total == 1.0

    def test_series_key_and_find_series(self):
        assert series_key("hist", "x") == "hist|x"
        assert series_key("hist", "x", "epoch=1") == "hist|x|epoch=1"
        aggregator = MetricsAggregator()
        aggregator.consume([_hist("x", 1.0, 0, epoch=1), _hist("x", 2.0, 1, epoch=2)])
        found = aggregator.find_series("x")
        assert [series.tag for series in found] == ["", "epoch=1", "epoch=2"]
        assert [series.tag for series in aggregator.find_series("x", "epoch=2")] == ["epoch=2"]


# ---------------------------------------------------------------------- #
# acceptance: aggregated p50/p99 of a traced 100-committee solve match a
# numpy recomputation from the raw records within the sketch error bound
# ---------------------------------------------------------------------- #
class TestTracedSolveAcceptance:
    @pytest.fixture(scope="class")
    def run_and_aggregate(self):
        run = traced_solve(
            num_committees=100, gamma=10, seed=0,
            max_iterations=400, convergence_window=200,
        )
        aggregator = MetricsAggregator().consume(iter(run.records))
        return run, aggregator

    def test_field_series_quantiles_match_numpy(self, run_and_aggregate):
        run, aggregator = run_and_aggregate
        raw = np.array(
            [r["best_utility"] for r in run.records if r.get("name") == "se.round"]
        )
        assert len(raw) == run.result.iterations
        series = aggregator.series("field", "se.round.best_utility")
        assert series.count == len(raw)
        ra = RELATIVE_ACCURACY
        for q, stat in ((0.50, "p50"), (0.99, "p99")):
            exact = float(np.percentile(raw, 100 * q))
            assert abs(series.stats()[stat] - exact) <= 2.5 * ra * abs(exact)

    def test_span_series_cover_every_layer(self, run_and_aggregate):
        _, aggregator = run_and_aggregate
        spans = {series.name for series in aggregator.find_series("chain.pbft.round")}
        assert "chain.pbft.round" in spans
        assert aggregator.series("span", "harness.se_solve").count == 1
        assert aggregator.series("event", "se.transition").count > 0


# ---------------------------------------------------------------------- #
# diff engine
# ---------------------------------------------------------------------- #
def _snapshot(records):
    return MetricsAggregator().consume(records).snapshot()


class TestDiffSnapshots:
    BASE = [_hist("m", 1.0, 0), _hist("m", 2.0, 1)]

    def test_identical_snapshots_have_zero_deltas(self):
        rows, breaches = diff_snapshots(_snapshot(self.BASE), _snapshot(self.BASE))
        assert rows and not breaches
        assert all(row["delta_pct"] == 0.0 for row in rows)

    def test_value_shift_breaches_zero_threshold_not_loose_one(self):
        candidate = [_hist("m", 1.0, 0), _hist("m", 2.02, 1)]
        _, strict = diff_snapshots(_snapshot(self.BASE), _snapshot(candidate))
        assert strict
        _, loose = diff_snapshots(
            _snapshot(self.BASE), _snapshot(candidate), threshold=5.0
        )
        assert not loose

    def test_missing_series_is_always_a_breach(self):
        candidate = self.BASE + [_hist("extra", 1.0, 2)]
        _, breaches = diff_snapshots(
            _snapshot(self.BASE), _snapshot(candidate), threshold=100.0
        )
        assert any(
            row["stat"] == "presence" and row["delta_pct"] == math.inf
            for row in breaches
        )

    def test_wall_and_resource_series_are_excluded_by_default(self):
        noisy = self.BASE + [
            {"t": 2, "type": "span", "name": "s", "t0": 0, "t1": 2, "dt": 2.0,
             "wall_dt": 0.5},
            {"t": 3, "type": "gauge", "name": "obs.resources.peak_rss_kib",
             "value": 4096.0},
            {"t": 4, "type": "event", "name": "profile.hotspots"},
        ]
        perturbed = self.BASE + [
            {"t": 2, "type": "span", "name": "s", "t0": 0, "t1": 2, "dt": 2.0,
             "wall_dt": 0.9},
            {"t": 3, "type": "gauge", "name": "obs.resources.peak_rss_kib",
             "value": 9999.0},
            {"t": 4, "type": "event", "name": "profile.hotspots"},
        ]
        rows, breaches = diff_snapshots(_snapshot(noisy), _snapshot(perturbed))
        assert not breaches  # machine-dependent series skipped
        assert not any(row["series"].startswith("span.wall") for row in rows)
        _, wall_breaches = diff_snapshots(
            _snapshot(noisy), _snapshot(perturbed), include_wall=True
        )
        assert any(row["series"].startswith("span.wall") for row in wall_breaches)
        assert DIFF_EXCLUDE == ("obs.resources", "profile.")


class TestLoadAggregate:
    def test_jsonl_and_snapshot_paths_agree(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        with open(trace, "w") as handle:
            for record in self_records():
                handle.write(json.dumps(record) + "\n")
        aggregator = MetricsAggregator.from_jsonl(trace)
        snapshot_path = tmp_path / "agg.json"
        aggregator.write_snapshot(snapshot_path)
        assert load_aggregate(snapshot_path) == load_aggregate(trace)

    def test_non_aggregate_json_falls_back_to_jsonl_parse(self, tmp_path):
        # A JSONL trace with a .json suffix still streams correctly.
        path = tmp_path / "trace.json"
        with open(path, "w") as handle:
            for record in self_records():
                handle.write(json.dumps(record) + "\n")
        assert load_aggregate(path)["records"] == len(self_records())


def self_records():
    return [_hist("m", 1.0, 0), _hist("m", 2.0, 1),
            {"t": 2, "type": "counter", "name": "c", "inc": 1, "total": 1}]
