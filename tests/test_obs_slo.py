"""Declarative SLO specs: the shipped constant, online evaluation, hub feedback."""

import pytest

from repro.obs.metrics import MetricsAggregator
from repro.obs.slo import SLO_KINDS, SLO_SPECS, SloSpec, SloSpecError, SloTracker
from repro.obs.sinks import RingBufferSink
from repro.obs.telemetry import Telemetry


# ---------------------------------------------------------------------- #
# spec construction + the shipped specs
# ---------------------------------------------------------------------- #
class TestSpecLoading:
    def test_shipped_specs_sorted_and_typed(self):
        # Name order is the order slo.violation events are emitted in.
        names = [spec.name for spec in SLO_SPECS]
        assert names == sorted(names)
        assert all(spec.kind in SLO_KINDS for spec in SLO_SPECS)
        assert all(type(spec.threshold) is float for spec in SLO_SPECS)

    def test_shipped_specs_pinned(self):
        # The five objectives, field for field.
        assert [
            (spec.name, spec.metric, spec.kind, spec.threshold, spec.tag, spec.field)
            for spec in SLO_SPECS
        ] == [
            ("best-utility-monotone", "se.round", "monotone_budget", 0.0, "",
             "best_utility"),
            ("mempool-age-p99", "chain.mempool.age_s", "max_p99", 30.0, "", ""),
            ("pbft-round-p99", "chain.pbft.round", "max_p99", 120.0, "", ""),
            ("reset-churn", "se.reset_broadcasts", "max_rate", 2.0, "", ""),
            ("serve-decision-p99", "serve.decision_latency_s", "max_p99", 60.0,
             "", ""),
        ]

    def test_missing_metric_raises(self):
        with pytest.raises(SloSpecError):
            SloSpec(name="x", metric="", kind="max_p99", threshold=1)

    def test_monotone_budget_requires_field(self):
        with pytest.raises(SloSpecError):
            SloSpec(name="x", metric="se.round", kind="monotone_budget", threshold=1)
        spec = SloSpec(name="x", metric="se.round", kind="monotone_budget",
                       threshold=1, field="best_utility")
        assert spec.field == "best_utility"

    def test_unknown_kind_raises(self):
        with pytest.raises(SloSpecError):
            SloSpec(name="x", metric="m", kind="min_p99", threshold=1)


# ---------------------------------------------------------------------- #
# online evaluation
# ---------------------------------------------------------------------- #
def _hist(name, value, t, **fields):
    record = {"t": t, "type": "hist", "name": name, "value": value}
    record.update(fields)
    return record


def _tracked(specs, records, check_interval=256):
    aggregator = MetricsAggregator()
    tracker = SloTracker(specs, aggregator, check_interval=check_interval)
    for record in records:
        aggregator.emit(record)
        tracker.emit(record)
    return tracker.check()


class TestSloEvaluation:
    def test_max_p99_breaches_and_passes(self):
        spec = SloSpec(name="age", metric="chain.mempool.age_s",
                       kind="max_p99", threshold=10.0)
        low = [_hist("chain.mempool.age_s", 1.0 + i * 0.01, i) for i in range(50)]
        assert _tracked([spec], low) == []
        # A >1% heavy tail moves the (lower-rank) p99 above the threshold.
        high = low + [_hist("chain.mempool.age_s", 100.0, 99 + i) for i in range(3)]
        violations = _tracked([spec], high)
        assert len(violations) == 1
        assert violations[0]["slo"] == "age"
        assert violations[0]["observed"] > 10.0

    def test_max_p99_tag_scoping(self):
        # Tagged spec watches only epoch=1; the breach lives in epoch=0.
        records = (
            [_hist("chain.mempool.age_s", 100.0, i, epoch=0) for i in range(10)]
            + [_hist("chain.mempool.age_s", 1.0, 10 + i, epoch=1) for i in range(10)]
        )
        scoped = SloSpec(name="a", metric="chain.mempool.age_s",
                         kind="max_p99", threshold=10.0, tag="1")
        assert _tracked([scoped], records) == []
        unscoped = SloSpec(name="a", metric="chain.mempool.age_s",
                           kind="max_p99", threshold=10.0)
        violations = _tracked([unscoped], records)
        assert violations and "tag" not in violations[0]  # cross-tag aggregate

    def test_max_rate_on_counter(self):
        spec = SloSpec(name="churn", metric="c", kind="max_rate", threshold=1.5)
        slow = [{"t": 2 * i, "type": "counter", "name": "c", "inc": 1}
                for i in range(20)]  # 0.5/t-unit
        assert _tracked([spec], slow) == []
        fast = [{"t": i * 0.5, "type": "counter", "name": "c", "inc": 1}
                for i in range(20)]  # 2/t-unit
        violations = _tracked([spec], fast)
        assert violations and violations[0]["kind"] == "max_rate"

    def test_monotone_budget_tolerates_exactly_budget_drops(self):
        spec = SloSpec(name="mono", metric="se.round", kind="monotone_budget",
                       threshold=1, field="best_utility")
        one_drop = [
            {"t": t, "type": "event", "name": "se.round", "best_utility": u}
            for t, u in enumerate((1.0, 2.0, 1.5, 3.0))  # one decrease
        ]
        assert _tracked([spec], one_drop) == []
        two_drops = one_drop + [
            {"t": 4, "type": "event", "name": "se.round", "best_utility": 2.0}
        ]
        violations = _tracked([spec], two_drops)
        assert violations and "decreased" in violations[0]["detail"]
        assert violations[0]["observed"] == 2.0  # the drop count

    def test_each_spec_breaches_at_most_once(self):
        spec = SloSpec(name="mono", metric="e", kind="monotone_budget",
                       threshold=0, field="v")
        records = [{"t": t, "type": "event", "name": "e", "v": v}
                   for t, v in enumerate((3.0, 2.0, 1.0, 0.5))]
        assert len(_tracked([spec], records)) == 1

    def test_periodic_evaluation_fires_without_final_check(self):
        spec = SloSpec(name="age", metric="m", kind="max_p99", threshold=1.0)
        aggregator = MetricsAggregator()
        tracker = SloTracker([spec], aggregator, check_interval=4)
        for i in range(8):
            record = _hist("m", 100.0, i)
            aggregator.emit(record)
            tracker.emit(record)
        assert tracker.violations  # breached at a periodic checkpoint

    def test_check_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            SloTracker([], MetricsAggregator(), check_interval=0)


# ---------------------------------------------------------------------- #
# hub integration: violations land back in the recorded stream
# ---------------------------------------------------------------------- #
def test_violation_emitted_into_hub_stream():
    spec = SloSpec(name="age", metric="m", kind="max_p99", threshold=1.0)
    ring = RingBufferSink()
    aggregator = MetricsAggregator()
    tracker = SloTracker([spec], aggregator, check_interval=2)
    # Attach order matters: aggregator before tracker, so each record is
    # aggregated before the tracker evaluates; the hub reference closes
    # the loop so violations re-enter the recorded stream.
    hub = Telemetry(sinks=[ring, aggregator, tracker])
    tracker.telemetry = hub
    for _ in range(4):
        hub.observe("m", 50.0)
    hub.close()
    violations = [r for r in ring.records if r["name"] == "slo.violation"]
    assert len(violations) == 1
    assert violations[0]["slo"] == "age"
    assert violations[0]["metric"] == "m"
    # The echo of our own violation through the hub did not recurse.
    assert tracker.violations[0]["observed"] > 1.0


def test_columnar_rows_count_toward_the_check_interval():
    spec = SloSpec(name="age", metric="m", kind="max_p99", threshold=1.0)
    aggregator = MetricsAggregator()
    tracker = SloTracker([spec], aggregator, check_interval=4)
    hub = Telemetry(sinks=[aggregator, tracker])
    hub.observe("m", 50.0)
    hub.event_rows("batch", 2, x=[1, 2])
    assert not tracker.violations  # 3 rows: no checkpoint yet
    hub.event_rows("batch", 2, x=[3, 4])  # 5 rows: the 4th crossed one
    assert tracker.violations


# ---------------------------------------------------------------------- #
# SLO series lookup: direct, yet the verdicts of a full scan
# ---------------------------------------------------------------------- #
def _scan_verdicts(specs, aggregator):
    """The first breaching series per spec, found by scanning every series."""

    def matches(series_tag, spec_tag):
        if spec_tag == "":
            return series_tag == ""
        return series_tag == spec_tag or series_tag.partition("=")[2] == spec_tag

    verdicts = []
    for spec in specs:
        for series in aggregator.find_series(spec.metric):
            if not matches(series.tag, spec.tag):
                continue
            if spec.kind == "max_p99":
                if series.sketch is None or not series.sketch.count:
                    continue
                observed = series.sketch.quantile(0.99)
            elif series.kind in ("counter", "event") and series.rate is not None:
                observed = series.rate
            else:
                continue
            if observed > spec.threshold:
                verdicts.append((spec.name, observed, series.tag))
                break
    return verdicts


def test_slo_lookup_matches_a_scan_for_tagged_and_untagged_specs():
    aggregator = MetricsAggregator()
    hub = Telemetry(sinks=[aggregator])
    for epoch in range(12):
        hub.observe("lat", 0.1 * (epoch + 1), epoch=epoch)
        hub.record_span("pbft", 0.0, 3.0 + epoch, tag=f"c{epoch % 3}")
        hub.count("churn", 2 + epoch % 2, kind="JOIN" if epoch % 2 else "LEAVE")
        hub.event("tick", kind="JOIN")
    specs = [
        SloSpec("lat-all", "lat", "max_p99", 0.5),
        SloSpec("lat-bare", "lat", "max_p99", 0.3, tag="7"),
        SloSpec("lat-promoted", "lat", "max_p99", 0.3, tag="epoch=9"),
        SloSpec("lat-low", "lat", "max_p99", 5.0, tag="3"),
        SloSpec("pbft-bare", "pbft", "max_p99", 4.0, tag="c2"),
        SloSpec("pbft-tag", "pbft", "max_p99", 4.0, tag="tag=c1"),
        SloSpec("churn-all", "churn", "max_rate", 0.5),
        SloSpec("churn-join", "churn", "max_rate", 0.4, tag="JOIN"),
        SloSpec("tick-rate", "tick", "max_rate", 0.1, tag="kind=JOIN"),
        SloSpec("absent", "missing", "max_rate", 0.0, tag="1"),
    ]
    tracker = SloTracker(specs, aggregator, check_interval=10**9)
    found = [(v["slo"], v["observed"], v.get("tag", "")) for v in tracker.check()]
    assert found == _scan_verdicts(specs, aggregator)
    assert {name for name, _, _ in found} == {
        "lat-all", "lat-bare", "lat-promoted", "pbft-bare", "pbft-tag",
        "churn-all", "churn-join", "tick-rate",
    }
