"""Tests for run manifests and the canonical config digest."""

import json
import math

import numpy as np

from repro.obs import RunManifest, config_digest
from repro.obs.manifest import matrix_digest


class TestMatrixDigest:
    def _generic(self, matrix) -> str:
        rows = matrix.tolist()
        return config_digest(
            {"shape": [len(rows), len(rows[0]) if rows else 0], "data": rows}
        )

    def test_fast_path_byte_identical_to_generic(self):
        """0/1 routing matrices hash to the generic canonical encoding."""
        rng = np.random.default_rng(0)
        for shape in [(1, 1), (3, 4), (7, 1), (1, 9), (40, 60)]:
            matrix = (rng.random(shape) < 0.3).astype(float)
            assert matrix_digest(matrix) == self._generic(matrix)

    def test_non_binary_and_empty_fall_back(self):
        """Fractions, signed zeros, empty shapes and float32 do too."""
        for matrix in (
            np.array([[0.5, 1.0]]),
            np.array([[0.0, -0.0], [1.0, 0.0]]),  # canonical JSON keeps -0.0
            np.zeros((0, 3)),
            np.zeros((2, 0)),
            np.eye(3, dtype=np.float32),
        ):
            assert matrix_digest(matrix) == self._generic(matrix)

    def test_container_independence(self):
        matrix = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert matrix_digest(matrix) == matrix_digest(matrix.tolist())


class TestConfigDigest:
    def test_deterministic_under_key_order(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})

    def test_none_and_empty_share_digest(self):
        assert config_digest(None) == config_digest({})

    def test_numpy_scalars_normalised(self):
        assert config_digest({"seed": np.int64(7)}) == config_digest({"seed": 7})

    def test_nonfinite_values_digestable(self):
        digest = config_digest({"cap": math.inf, "margin": math.nan})
        assert len(digest) == 64
        assert digest == config_digest({"cap": math.inf, "margin": math.nan})

    def test_different_configs_differ(self):
        assert config_digest({"seed": 1}) != config_digest({"seed": 2})


class TestRunManifest:
    def test_write_and_reload(self, tmp_path):
        manifest = RunManifest(command="run", seed=7, config={"trials": 10})
        out = manifest.write(tmp_path / "run.manifest.json")
        doc = json.loads(out.read_text())
        assert doc["format"] == "repro-run-manifest"
        assert doc["command"] == "run"
        assert doc["seed"] == 7
        assert doc["config"] == {"trials": 10}
        assert doc["config_digest"] == config_digest({"trials": 10})
        assert doc["wall_s"] >= 0.0
        assert doc["cpu_s"] >= 0.0

    def test_determinism_under_fixed_seed(self, tmp_path):
        """Two runs of the same command+seed agree on every provenance
        field (only the timing/creation stamps may differ)."""
        volatile = {"created_unix", "wall_s", "cpu_s"}
        docs = []
        for name in ("a", "b"):
            manifest = RunManifest(command="bench", seed=2017, config={"repeat": 3})
            doc = json.loads(manifest.write(tmp_path / f"{name}.json").read_text())
            docs.append({k: v for k, v in doc.items() if k not in volatile})
        assert docs[0] == docs[1]

    def test_attach_scenario_summary(self, tmp_path, fig1_scenario):
        manifest = RunManifest(command="run")
        manifest.attach_scenario(fig1_scenario)
        doc = json.loads(manifest.write(tmp_path / "m.json").read_text())
        assert "topology" in doc
        assert doc["topology"] == json.loads(
            json.dumps(doc["topology"])
        )  # JSON-clean

    def test_nonfinite_config_written_as_strict_json(self, tmp_path):
        manifest = RunManifest(command="run", config={"cap": math.inf})
        out = manifest.write(tmp_path / "m.json")

        def reject_constant(name):
            raise AssertionError(f"non-standard token {name!r} in manifest")

        doc = json.loads(out.read_text(), parse_constant=reject_constant)
        assert doc["config"]["cap"] == "Infinity"
