"""Tests for the ``mvcom`` CLI."""

import pytest

from repro.harness import artifacts, report
from repro.harness.cli import RUNNERS, main


def test_list_prints_registry(capsys):
    assert main(["list"]) == 0
    output = capsys.readouterr().out
    for name in ("fig02", "fig08", "fig10", "theory_mixing"):
        assert name in output


def test_runner_registry_covers_every_figure():
    assert set(RUNNERS) == {
        "fig02", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
        "theory_mixing", "theory_failure",
    }


def test_invalid_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_theory_failure_end_to_end(capsys, tmp_path, monkeypatch):
    # Route the run's CSV and JSON artifact away from the committed results/.
    monkeypatch.setattr(report, "RESULTS_DIR", str(tmp_path))
    monkeypatch.setattr(artifacts, "RESULTS_DIR", str(tmp_path))
    assert main(["theory_failure"]) == 0
    output = capsys.readouterr().out
    assert "tv_distance" in output
    assert "finished in" in output
    artifact = tmp_path / "theory_failure.json"
    assert f"artifact: {artifact}" in output
    assert artifacts.read_artifact(str(artifact))["experiment"] == "theory_failure"
    assert (tmp_path / "theory_failure.csv").is_file()
