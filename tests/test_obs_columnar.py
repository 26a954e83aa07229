"""Columnar ``se.transition`` records against their per-row expansion.

The race kernel and the serial oracle (``tests/serial_oracle.py``) emit
one ``se.transition`` record per race round carrying
``rows: n`` and one array per field.  Every reader must see exactly what
``n`` separate per-row events stamped ``t + i``/``seq + i`` would have
shown it, so each test here expands the columnar stream by hand and
requires byte-equal output from the aggregator, the text summary, both
exporters and the SLO tracker.
"""

import io
import json

import numpy as np
import pytest

from repro.core.se import SEConfig, StochasticExploration
from repro.data.workload import WorkloadConfig, generate_epoch_workload
from repro.harness.serve import ServeConfig, run_serve
from repro.harness.tracing import build_telemetry
from repro.obs.export import openmetrics_text, write_perfetto
from repro.obs.metrics import MetricsAggregator
from repro.obs.sinks import JsonlSink, RingBufferSink, read_jsonl
from repro.obs.slo import SLO_SPECS, SloSpec, SloTracker
from repro.obs.summary import summarize_records
from repro.obs.telemetry import Telemetry, iter_rows

from tests.serial_oracle import racing

TRANSITION_COLUMNS = ("iteration", "replica", "cardinality", "swap_out", "swap_in", "utility")


def _expand(records):
    """Per-row records, built independently of :func:`iter_rows`."""
    for record in records:
        rows = record.get("rows")
        if rows is None:
            yield record
            continue
        columns = {
            key: np.asarray(value)
            for key, value in record.items()
            if key not in ("seq", "t", "wall", "type", "name", "rows")
        }
        for i in range(rows):
            row = {"t": record["t"] + i, "type": record["type"], "name": record["name"]}
            row.update((key, column[i].item()) for key, column in columns.items())
            row["seq"] = record["seq"] + i
            if "wall" in record:
                row["wall"] = record["wall"]
            yield row


def _solve_records(engine):
    instance = generate_epoch_workload(
        WorkloadConfig(num_committees=30, capacity=30_000, seed=2)
    ).instance
    ring = RingBufferSink(capacity=1_000_000)
    config = SEConfig(num_threads=6, max_iterations=300, convergence_window=150, seed=4)
    with racing(engine):
        StochasticExploration(config, telemetry=Telemetry(sinks=[ring])).solve(instance)
    return ring.records


def _serve_records():
    hub = build_telemetry()
    run_serve(
        ServeConfig(epochs=2, num_committees=20, gamma=4, max_iterations=200,
                    convergence_window=100, seed=3),
        telemetry=hub,
    )
    return hub.sinks[0].records


@pytest.fixture(scope="module")
def streams():
    return {
        "serial": _solve_records("serial"),
        "vectorized": _solve_records("vectorized"),
        "serve": _serve_records(),
    }


TRACES = ("serial", "vectorized", "serve")


def _aggregate(records):
    return MetricsAggregator().consume(records)


def _slo_specs():
    """The shipped specs with thresholds every trace breaches, plus a
    per-row monotone check on the columnar records themselves."""
    specs = [
        SloSpec(spec.name, spec.metric, spec.kind, 0.0, spec.tag, spec.field)
        for spec in SLO_SPECS
    ]
    specs.append(SloSpec("transition-utility", "se.transition", "monotone_budget",
                         2.0, field="utility"))
    specs.append(SloSpec("latency-epoch-1", "serve.decision_latency_s", "max_p99",
                         0.0, tag="1"))
    return specs


def _verdicts(records):
    aggregator = MetricsAggregator()
    tracker = SloTracker(_slo_specs(), aggregator, check_interval=64)
    for record in records:
        aggregator.emit(record)
        tracker.emit(record)
    return tracker.check()


@pytest.mark.parametrize("trace", TRACES)
def test_streams_are_columnar(streams, trace):
    transitions = [r for r in streams[trace] if r["name"] == "se.transition"]
    assert transitions and all("rows" in r for r in transitions)
    assert any(r["rows"] > 1 for r in transitions)
    for record in transitions:
        assert all(len(record[column]) == record["rows"] for column in TRANSITION_COLUMNS)
        assert len(set(record["iteration"].tolist())) == 1  # one race round


@pytest.mark.parametrize("trace", TRACES)
def test_transition_position_columns_are_int64(streams, trace):
    """The kernel races shard positions as uint8/uint16 slots; the
    ``se.transition`` columns stay int64 and equal their expanded rows."""
    transitions = [r for r in streams[trace] if r["name"] == "se.transition"]
    for record in transitions:
        rows = list(_expand([record]))
        for column in ("swap_out", "swap_in", "cardinality"):
            assert record[column].dtype == np.int64
            assert [row[column] for row in rows] == record[column].tolist()


@pytest.mark.parametrize("trace", TRACES)
def test_aggregate_snapshot_equals_the_expanded_stream(streams, trace):
    records = streams[trace]
    columnar = _aggregate(records).snapshot()
    expanded = _aggregate(_expand(records)).snapshot()
    assert json.dumps(columnar, sort_keys=True) == json.dumps(expanded, sort_keys=True)
    assert columnar["records"] == sum(r.get("rows", 1) for r in records)


@pytest.mark.parametrize("trace", TRACES)
def test_summary_text_equals_the_expanded_stream(streams, trace):
    records = streams[trace]
    assert summarize_records(records) == summarize_records(_expand(records))


@pytest.mark.parametrize("trace", TRACES)
def test_exports_equal_the_expanded_stream(streams, trace):
    records = streams[trace]
    columnar, expanded = io.StringIO(), io.StringIO()
    written = write_perfetto(records, columnar)
    assert written == write_perfetto(_expand(records), expanded)
    assert written == sum(r.get("rows", 1) for r in records)
    assert columnar.getvalue() == expanded.getvalue()
    assert openmetrics_text(_aggregate(records)) == openmetrics_text(
        _aggregate(_expand(records))
    )


@pytest.mark.parametrize("trace", TRACES)
def test_slo_verdicts_equal_the_expanded_stream(streams, trace):
    records = streams[trace]
    verdicts = _verdicts(records)
    assert verdicts == _verdicts(_expand(records))
    assert {v["slo"] for v in verdicts} >= {"reset-churn", "transition-utility"}


def test_iter_rows_matches_the_hand_expansion(streams):
    records = streams["vectorized"]
    assert list(_expand(records)) == [row for r in records for row in iter_rows(r)]


def test_jsonl_round_trip_reads_like_the_live_stream(streams, tmp_path):
    records = streams["serial"]
    path = tmp_path / "columnar.jsonl"
    with JsonlSink(str(path)) as sink:
        for record in records:
            sink.emit(record)
    stored = read_jsonl(path)
    assert _aggregate(stored).snapshot() == _aggregate(records).snapshot()
    assert list(_expand(stored)) == list(_expand(records))


def test_serial_and_vectorized_emit_the_same_columns(streams):
    def layout(records):
        record = next(r for r in records if r["name"] == "se.transition")
        return {
            key: value.dtype.str
            for key, value in record.items()
            if key not in ("seq", "t", "wall", "type", "name", "rows")
        }

    serial = layout(streams["serial"])
    assert set(serial) == set(TRANSITION_COLUMNS)
    assert serial == layout(streams["vectorized"])
    assert serial["utility"] == np.dtype(np.float64).str
    assert serial["replica"] == np.dtype(np.int64).str


def test_hub_sequence_advances_by_rows():
    ring = RingBufferSink()
    hub = Telemetry(sinks=[ring])
    hub.event("before")
    hub.event_rows("batch", 3, x=np.array([1, 2, 3]))
    hub.event("after")
    before, batch, after = ring.records
    assert (batch["t"], batch["seq"], batch["rows"]) == (1.0, 2, 3)
    assert (after["t"], after["seq"]) == (4.0, 5)  # as if three events ran
    assert [row["x"] for row in iter_rows(batch)] == [1, 2, 3]
    assert [row["seq"] for row in iter_rows(batch)] == [2, 3, 4]


def test_ring_buffer_capacity_counts_rows():
    ring = RingBufferSink(capacity=5)
    hub = Telemetry(sinks=[ring])
    hub.event("a")
    hub.event_rows("batch", 3, x=np.arange(3))
    assert len(ring) == 4 and len(ring.records) == 2
    hub.event_rows("batch", 2, x=np.arange(2))  # 6 rows > 5: evict "a"
    assert [r["name"] for r in ring.records] == ["batch", "batch"]
    assert len(ring) == 5
    hub.event("b")  # 6 rows again: the oldest 3-row record goes whole
    assert [r.get("rows", 1) for r in ring.records] == [2, 1]
    assert len(ring) == 3
    ring.clear()
    assert len(ring) == 0 and ring.records == []


def test_ring_holds_the_newest_rows_of_a_traced_solve(streams):
    records = streams["vectorized"]
    ring = RingBufferSink(capacity=500)
    for record in records:
        ring.emit(record)
    held = ring.records
    assert len(ring) == sum(r.get("rows", 1) for r in held) <= 500
    assert held == records[len(records) - len(held):]
    assert len(ring) + records[len(records) - len(held) - 1].get("rows", 1) > 500
