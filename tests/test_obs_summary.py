"""Traced harness runs, the trace text report, and the CLI surfacing."""

import pytest

from repro.chain.elastico import ElasticoSimulation
from repro.chain.params import ChainParams
from repro.harness.cli import main
from repro.harness.report import render_table
from repro.harness.serve import ServeConfig, run_serve
from repro.harness.tracing import build_telemetry, traced_solve
from repro.obs.metrics import MetricsAggregator
from repro.obs.sinks import JsonlSink, RingBufferSink, read_jsonl
from repro.obs.summary import summarize_file, summarize_records, utility_trace
from repro.obs.telemetry import Telemetry


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One traced solve shared by every test in this module."""
    path = tmp_path_factory.mktemp("trace") / "run.jsonl"
    run = traced_solve(
        num_committees=15,
        gamma=2,
        seed=0,
        max_iterations=120,
        convergence_window=60,
        trace_path=str(path),
        profile=True,
        top_n=4,
    )
    return run, path


def test_build_telemetry_wires_ring_and_jsonl(tmp_path):
    hub = build_telemetry(str(tmp_path / "t.jsonl"))
    kinds = [type(sink) for sink in hub.sinks]
    assert kinds == [RingBufferSink, JsonlSink]
    hub.event("x")
    hub.close()
    assert len(read_jsonl(tmp_path / "t.jsonl")) == 1
    assert len(build_telemetry().sinks) == 1  # no path -> ring only


def test_traced_solve_stream_carries_all_layers(small_run):
    run, path = small_run
    records = read_jsonl(path)
    assert len(records) == len(run.records)
    names = {r["name"] for r in records}
    # SE events, sim-engine stats, chain-phase span, profiling -- one stream.
    assert {"se.transition", "se.reset_broadcasts", "se.round"} <= names
    assert "sim.run" in names
    assert "profile.hotspots" in names
    spans = {r["name"] for r in records if r["type"] == "span"}
    assert "chain.pbft.round" in spans
    assert {"harness.se_solve", "harness.chain_phase"} <= spans
    assert records[-1]["name"] == "harness.done"
    assert all("wall" in r for r in records)  # harness hubs carry wall time
    assert run.hotspots and len(run.hotspots) <= 4


def test_traced_solve_without_trace_path_keeps_records_in_memory():
    run = traced_solve(num_committees=10, gamma=1, max_iterations=40, convergence_window=20)
    assert run.trace_path is None
    assert any(r["name"] == "se.round" for r in run.records)


def test_utility_trace_follows_se_rounds(small_run):
    run, path = small_run
    trace = utility_trace(read_jsonl(path))
    assert len(trace) == run.result.iterations
    assert trace[-1] == pytest.approx(run.result.best_utility)
    assert trace == sorted(trace)  # best-so-far is monotone


def _row_count(records):
    """Logical records: a columnar record (``rows: n``) counts ``n``."""
    return sum(record.get("rows", 1) for record in records)


def test_summarize_records_renders_all_sections(small_run):
    run, path = small_run
    report = summarize_file(path)
    assert f"telemetry trace: {_row_count(run.records)} records" in report
    assert "Top spans by cumulative time" in report
    assert "Record counts by name" in report
    assert "SE utility trace" in report
    assert "iters_to_99pct" in report
    assert "Profile hotspots: StochasticExploration.solve" in report


def test_summarize_records_handles_empty_and_spanless():
    assert "empty trace" in summarize_records([])
    report = summarize_records([{"type": "event", "name": "lonely"}])
    assert "lonely" in report
    assert "Top spans" not in report


def test_cli_solve_writes_trace_and_reports(tmp_path, capsys):
    path = tmp_path / "cli.jsonl"
    code = main(
        [
            "solve",
            "--committees", "10",
            "--gamma", "1",
            "--iterations", "40",
            "--trace", str(path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "utility=" in out
    assert "Record counts by name" in out
    assert any(r["type"] == "span" for r in read_jsonl(path))


def test_cli_trace_summary_renders_report(tmp_path, capsys):
    path = tmp_path / "cli.jsonl"
    main(["solve", "--committees", "10", "--gamma", "1", "--iterations", "40",
          "--trace", str(path)])
    capsys.readouterr()
    assert main(["trace", "summary", str(path)]) == 0
    assert "Top spans by cumulative time" in capsys.readouterr().out


def test_cli_trace_requires_summary_and_path():
    with pytest.raises(SystemExit):
        main(["trace"])
    with pytest.raises(SystemExit):
        main(["trace", "explode", "x.jsonl"])


def test_cli_trace_flag_rejected_outside_solve():
    with pytest.raises(SystemExit):
        main(["fig08", "--trace", "x.jsonl"])


# --------------------------------------------------------------------- #
# the summary's tables against sums computed straight from the records
# --------------------------------------------------------------------- #
def _chain_records():
    """Two fastpath epochs with Byzantine nodes: tagged sim-time spans."""
    ring = RingBufferSink(capacity=1_000_000)
    sim = ElasticoSimulation(
        ChainParams(num_nodes=480, committee_size=8, seed=5, byzantine_fraction=0.2,
                    chain_engine="fastpath"),
        telemetry=Telemetry(sinks=[ring]),
    )
    for _ in range(2):
        sim.run_epoch()
    return ring.records


def _serve_records():
    """A short warm serve run on the harness hub: counters and histograms."""
    hub = build_telemetry()
    run_serve(
        ServeConfig(epochs=2, num_committees=20, gamma=3, max_iterations=200,
                    convergence_window=100, seed=1),
        telemetry=hub,
    )
    return hub.sinks[0].records


def _expected_tables(records):
    """The span and record-count tables, aggregated by hand."""
    spans, counts = {}, {}
    for record in records:
        key = (record["type"], record["name"])
        counts[key] = counts.get(key, 0) + record.get("rows", 1)
        if record["type"] == "span":
            row = spans.setdefault(
                record["name"],
                {"span": record["name"], "count": 0, "total_dt": 0.0, "total_wall_s": 0.0},
            )
            row["count"] += 1
            row["total_dt"] += record["dt"]
            row["total_wall_s"] += record.get("wall_dt", 0.0)
    span_rows = sorted(spans.values(), key=lambda row: (-row["total_dt"], row["span"]))
    for row in span_rows:
        row["total_dt"] = round(row["total_dt"], 6)
        row["mean_dt"] = round(row["total_dt"] / row["count"], 6)
        row["total_wall_s"] = round(row["total_wall_s"], 6)
    count_rows = [
        {"type": kind, "name": name, "records": count}
        for (kind, name), count in sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    ]
    return span_rows, count_rows


@pytest.mark.parametrize("trace", ["fastpath-chain", "serve", "traced-solve"])
def test_summary_tables_match_sums_over_the_records(trace, small_run):
    records = {
        "fastpath-chain": _chain_records,
        "serve": _serve_records,
        "traced-solve": lambda: small_run[0].records,
    }[trace]()
    span_rows, count_rows = _expected_tables(records)
    report = summarize_records(iter(records), top_spans=len(span_rows))
    assert report.startswith(f"telemetry trace: {_row_count(records)} records\n")
    assert render_table(count_rows, title="Record counts by name") in report
    if span_rows:
        assert render_table(span_rows, title="Top spans by cumulative time") in report
    else:
        assert "Top spans" not in report
    if trace == "fastpath-chain":  # per-committee tags fold into one row
        assert len({r["tag"] for r in records if r["name"] == "chain.pbft.round"}) > 1
        assert [r["span"] for r in span_rows].count("chain.pbft.round") == 1
    if trace == "traced-solve":
        assert any(row["total_wall_s"] > 0 for row in span_rows)


# --------------------------------------------------------------------- #
# mvcom solve --resources
# --------------------------------------------------------------------- #
def test_solve_resources_gauge_reuses_the_solve_span_wall():
    sample = {"peak_rss_kib": 2048.0, "user_s": 0.25, "system_s": 0.05}
    run = traced_solve(
        num_committees=10, gamma=1, max_iterations=40, convergence_window=20,
        resources=True, resource_sampler=lambda: dict(sample),
    )
    span = next(
        r for r in run.records if r["type"] == "span" and r["name"] == "harness.se_solve"
    )
    event = next(r for r in run.records if r["name"] == "obs.resources")
    # One stopwatch: the gauge's wall is the solve span's own wall_dt.
    assert event["wall_s"] == span["wall_dt"]
    assert event["peak_rss_kib"] == sample["peak_rss_kib"]
    gauge = MetricsAggregator().consume(run.records).series(
        "gauge", "obs.resources.peak_rss_kib"
    )
    assert gauge is not None and gauge.last_value == sample["peak_rss_kib"]
