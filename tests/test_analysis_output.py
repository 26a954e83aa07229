"""Tests for the linter's reports: the text report and GitHub annotations."""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.diagnostics import Diagnostic, render_annotations


def diag(path="repro/core/a.py", line=3, rule="MV001", message="finding", column=4):
    return Diagnostic(path=path, line=line, rule_id=rule, message=message, column=column)


class TestAnnotations:
    def test_workflow_command_shape(self):
        line = render_annotations([diag(message="bad % thing")])
        assert line.startswith("::error file=repro/core/a.py,line=3,col=5,title=MV001::")
        assert "%25" in line  # % escaped


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


# ---------------------------------------------------------------------- #
# byte-determinism across PYTHONHASHSEED (acceptance criterion)
# ---------------------------------------------------------------------- #
class TestHashSeedDeterminism:
    @pytest.mark.parametrize("format_name", ["text", "annotate"])
    def test_output_identical_across_hash_seeds(self, bad_tree, format_name):
        flags = ["--annotate"] if format_name == "annotate" else []
        outputs = set()
        for seed in ("0", "1", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
            )
            completed = subprocess.run(
                [sys.executable, "-m", "repro.analysis", *flags, str(bad_tree)],
                capture_output=True,
                env=env,
            )
            assert completed.returncode == 1
            outputs.add(completed.stdout)
        assert len(outputs) == 1
        if format_name == "annotate":
            assert b"::error file=" in outputs.pop()
