"""Tests for lint output formats, SARIF validation and the CLI."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.output import (
    SARIF_VERSION,
    render_annotations,
    render_json,
    render_sarif,
    validate_sarif,
)
from repro.analysis.__main__ import main as lint_main


def diag(path="repro/core/a.py", line=3, rule="MV001", message="finding", column=4,
         severity=Severity.ERROR):
    return Diagnostic(
        path=path, line=line, rule_id=rule, message=message, column=column,
        severity=severity,
    )


# ---------------------------------------------------------------------- #
# JSON
# ---------------------------------------------------------------------- #
class TestJson:
    def test_shape_and_summary(self):
        document = json.loads(
            render_json([diag(), diag(rule="MV006", severity=Severity.WARNING)])
        )
        assert document["summary"] == {"errors": 1, "warnings": 1}
        assert document["diagnostics"][0]["rule"] == "MV001"
        assert document["diagnostics"][0]["line"] == 3

    def test_sorted_regardless_of_input_order(self):
        a = diag(path="repro/core/b.py")
        b = diag(path="repro/core/a.py")
        assert render_json([a, b]) == render_json([b, a])


# ---------------------------------------------------------------------- #
# SARIF
# ---------------------------------------------------------------------- #
class TestSarif:
    def test_valid_document(self):
        document = json.loads(render_sarif([diag()]))
        assert document["version"] == SARIF_VERSION
        assert validate_sarif(document) == []

    def test_result_shape(self):
        document = json.loads(render_sarif([diag()]))
        result = document["runs"][0]["results"][0]
        assert result["ruleId"] == "MV001"
        assert result["level"] == "error"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region == {"startLine": 3, "startColumn": 5}  # 1-based

    def test_rules_declared_for_all_registered(self):
        document = json.loads(render_sarif([]))
        declared = {r["id"] for r in document["runs"][0]["tool"]["driver"]["rules"]}
        assert {"MV001", "MV101", "MV102", "MV104"} <= declared

    def test_validator_rejects_broken_documents(self):
        assert validate_sarif([]) != []
        assert validate_sarif({"version": "2.0.0", "runs": []}) != []
        document = json.loads(render_sarif([diag()]))
        document["runs"][0]["results"][0]["message"] = {}
        assert any("message.text" in p for p in validate_sarif(document))
        document = json.loads(render_sarif([diag()]))
        document["runs"][0]["results"][0]["ruleId"] = "MV999"
        assert any("not declared" in p for p in validate_sarif(document))
        document = json.loads(render_sarif([diag()]))
        region = document["runs"][0]["results"][0]["locations"][0][
            "physicalLocation"]["region"]
        region["startLine"] = 0
        assert any("startLine" in p for p in validate_sarif(document))


class TestAnnotations:
    def test_workflow_command_shape(self):
        line = render_annotations([diag(message="bad % thing")])
        assert line.startswith("::error file=repro/core/a.py,line=3,col=5,title=MV001::")
        assert "%25" in line  # % escaped


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
BAD_SOURCE = textwrap.dedent(
    """
    import numpy as np


    def draw():
        return np.random.default_rng(42).random()
    """
)


@pytest.fixture()
def bad_tree(tmp_path):
    package = tmp_path / "repro" / "core"
    package.mkdir(parents=True)
    (package / "bad.py").write_text(BAD_SOURCE)
    return tmp_path


class TestCli:
    def test_json_format_and_exit_code(self, bad_tree, capsys):
        code = lint_main(["--format", "json", str(bad_tree)])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["errors"] == 1

    def test_sarif_format_validates(self, bad_tree, capsys):
        code = lint_main(["--format", "sarif", str(bad_tree)])
        assert code == 1
        assert validate_sarif(json.loads(capsys.readouterr().out)) == []

    def test_graph_dump(self, bad_tree, capsys):
        code = lint_main(["--graph", str(bad_tree)])
        assert code == 0
        assert "# call edges" in capsys.readouterr().out


# ---------------------------------------------------------------------- #
# byte-determinism across PYTHONHASHSEED (acceptance criterion)
# ---------------------------------------------------------------------- #
class TestHashSeedDeterminism:
    @pytest.mark.parametrize("format_name", ["text", "json", "sarif"])
    def test_output_identical_across_hash_seeds(self, bad_tree, format_name):
        outputs = set()
        for seed in ("0", "1", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
            )
            completed = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro.analysis",
                    "--format",
                    format_name,
                    str(bad_tree),
                ],
                capture_output=True,
                env=env,
            )
            assert completed.returncode == 1
            outputs.add(completed.stdout)
        assert len(outputs) == 1
