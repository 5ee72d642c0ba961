"""The REPRO_OBS* environment settings: how the boolean switch and the
path settings are spelled and parsed, read at call time."""

from __future__ import annotations

from pathlib import Path

from repro.obs import core as obs


class TestTypedAccessors:
    def test_bool_default_and_truthy_spellings(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        assert obs.env_enabled() is False
        for value in ("1", "true", "Yes", " ON "):
            monkeypatch.setenv("REPRO_OBS", value)
            assert obs.env_enabled() is True
        monkeypatch.setenv("REPRO_OBS", "0")
        assert obs.env_enabled() is False

    def test_str_default_and_value(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_PATH", raising=False)
        monkeypatch.delenv("REPRO_OBS_DIR", raising=False)
        assert obs.default_run_path().parent == Path("obs_runs")
        monkeypatch.setenv("REPRO_OBS_DIR", "  logs  ")
        assert obs.default_run_path().parent == Path("logs")
        monkeypatch.setenv("REPRO_OBS_PATH", " run.jsonl ")
        assert obs.default_run_path() == Path("run.jsonl")
