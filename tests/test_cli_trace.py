"""``mvcom trace metrics/export/diff``: the CLI regression-gate surface.

The golden fixtures under ``tests/fixtures/`` are hand-written traces
(stable bytes, committed) so the diff gate's exit codes are pinned:
identical traces must exit 0 with zero deltas, the perturbed twin must
exit non-zero.
"""

import json
import os

import pytest

from repro.harness.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
GOLDEN = os.path.join(FIXTURES, "golden_trace.jsonl")
PERTURBED = os.path.join(FIXTURES, "golden_trace_perturbed.jsonl")


# ---------------------------------------------------------------------- #
# trace metrics
# ---------------------------------------------------------------------- #
def test_trace_metrics_reports_series_table(capsys):
    assert main(["trace", "metrics", GOLDEN]) == 0
    out = capsys.readouterr().out
    assert "trace metrics: 26 records" in out
    assert "Aggregated metric series" in out
    assert "chain.mempool.age_s" in out
    assert "se.round.best_utility" in out


def test_trace_metrics_writes_aggregate_snapshot(tmp_path, capsys):
    out_path = tmp_path / "agg.json"
    assert main(["trace", "metrics", GOLDEN, "--out", str(out_path)]) == 0
    snapshot = json.loads(out_path.read_text())
    assert snapshot["format"] == "mvcom-trace-aggregate-v1"
    assert snapshot["records"] == 26
    assert "event|se.round" in snapshot["series"]
    assert f"[aggregate snapshot written to {out_path}]" in capsys.readouterr().out


def test_trace_metrics_slo_flag_loads_repo_specs(capsys):
    # The golden trace stays within every committed example SLO.
    assert main(["trace", "metrics", GOLDEN, "--slo"]) == 0
    out = capsys.readouterr().out
    assert "SLO specs loaded:" in out
    assert "SLOs: all passing" in out


@pytest.mark.parametrize("trace", [GOLDEN, PERTURBED], ids=["golden", "perturbed"])
def test_trace_metrics_slo_verdict_does_not_depend_on_cwd(
    trace, tmp_path, monkeypatch, capsys
):
    # The specs are code, not a file found by walking up from the cwd: a
    # run outside the checkout evaluates the same five specs.
    monkeypatch.chdir(os.path.dirname(FIXTURES))
    code = main(["trace", "metrics", trace, "--slo"])
    out = capsys.readouterr().out
    monkeypatch.chdir(tmp_path)
    assert main(["trace", "metrics", trace, "--slo"]) == code
    assert capsys.readouterr().out == out
    assert "SLO specs loaded: 5" in out


# ---------------------------------------------------------------------- #
# trace export
# ---------------------------------------------------------------------- #
def test_trace_export_perfetto_defaults_output_path(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    trace.write_bytes(open(GOLDEN, "rb").read())
    assert main(["trace", "export", str(trace), "--format", "perfetto"]) == 0
    out_path = str(trace) + ".perfetto.json"
    assert os.path.exists(out_path)
    document = json.loads(open(out_path).read())
    assert len(document["traceEvents"]) == 26
    assert "[26 trace events written" in capsys.readouterr().out


def test_trace_export_openmetrics(tmp_path, capsys):
    out_path = tmp_path / "m.prom"
    assert main(["trace", "export", GOLDEN, "--format", "openmetrics",
                 "--out", str(out_path)]) == 0
    text = out_path.read_text()
    assert text.endswith("# EOF\n")
    assert "mvcom_trace_records 26" in text
    assert "series exposed" in capsys.readouterr().out


def test_trace_export_requires_format():
    with pytest.raises(SystemExit):
        main(["trace", "export", GOLDEN])


# ---------------------------------------------------------------------- #
# trace diff: the regression gate's exit codes are load-bearing for CI
# ---------------------------------------------------------------------- #
def test_diff_identical_traces_exits_zero(capsys):
    assert main(["trace", "diff", GOLDEN, GOLDEN]) == 0
    out = capsys.readouterr().out
    assert "0 changed" in out
    assert "zero deltas: runs aggregate identically" in out


def test_diff_perturbed_trace_exits_nonzero(capsys):
    assert main(["trace", "diff", GOLDEN, PERTURBED]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION:" in out
    assert "Largest per-metric deltas" in out
    # The planted regressions surface by name.
    assert "chain.pbft.round" in out or "se.round.best_utility" in out


def test_diff_threshold_gates_small_deltas(capsys):
    # The planted deltas are all under 30%, so a loose gate passes...
    assert main(["trace", "diff", GOLDEN, PERTURBED, "--fail-above", "30"]) == 0
    assert "above the 30% threshold" in capsys.readouterr().out
    # ...and a 1% gate still fails.
    assert main(["trace", "diff", GOLDEN, PERTURBED, "--fail-above", "1"]) == 1
    capsys.readouterr()


def test_diff_accepts_aggregate_snapshots(tmp_path, capsys):
    aggregate = tmp_path / "golden.json"
    main(["trace", "metrics", GOLDEN, "--out", str(aggregate)])
    capsys.readouterr()
    # Snapshot-vs-raw-trace comparison: same aggregation, zero deltas.
    assert main(["trace", "diff", str(aggregate), GOLDEN]) == 0
    assert "zero deltas" in capsys.readouterr().out


def test_trace_verb_usage_errors():
    with pytest.raises(SystemExit):
        main(["trace", "diff", GOLDEN])  # missing candidate
    with pytest.raises(SystemExit):
        main(["trace", "metrics"])  # missing path
