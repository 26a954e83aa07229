"""Tests for experiment artifacts."""

import json

import numpy as np
import pytest

from repro.harness.artifacts import build_manifest, read_artifact, write_artifact
from repro.harness.presets import PRESETS


class TestManifest:
    def test_contains_provenance(self):
        manifest = build_manifest()
        assert manifest["repro_version"] == "1.0.0"
        assert "python" in manifest and "numpy" in manifest

    def test_preset_embedded(self):
        manifest = build_manifest(PRESETS["fig08"])
        assert manifest["preset"]["num_committees"] == 500
        assert tuple(manifest["preset"]["extras"]["gammas"]) == (1, 5, 10, 25)

    def test_extra_fields_merged(self):
        manifest = build_manifest(note="hello")
        assert manifest["note"] == "hello"


class TestRoundTrip:
    def test_write_and_read(self, tmp_path):
        result = {"rows": [{"x": 1}], "trace": np.array([1.0, 2.0])}
        path = write_artifact("unit", result, results_dir=str(tmp_path))
        loaded = read_artifact(path)
        assert loaded["experiment"] == "unit"
        assert loaded["result"]["rows"] == [{"x": 1}]
        assert loaded["result"]["trace"] == [1.0, 2.0]

    def test_numpy_scalars_serialised(self, tmp_path):
        result = {"i": np.int64(5), "f": np.float64(2.5), "b": np.bool_(True)}
        path = write_artifact("np", result, results_dir=str(tmp_path))
        loaded = read_artifact(path)["result"]
        assert loaded == {"i": 5, "f": 2.5, "b": True}

    def test_non_artifact_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError):
            read_artifact(str(path))

    def test_human_readable_json(self, tmp_path):
        path = write_artifact("pretty", {"a": 1}, results_dir=str(tmp_path))
        text = open(path).read()
        assert text.count("\n") > 3  # indented

    def test_fixed_clock_makes_artifacts_byte_stable(self, tmp_path):
        result = {"rows": [{"x": 1}], "trace": np.array([1.0, 2.0])}
        path_a = write_artifact("stable", result, results_dir=str(tmp_path / "a"))
        path_b = write_artifact("stable", result, results_dir=str(tmp_path / "b"))
        assert open(path_a, "rb").read() == open(path_b, "rb").read()
