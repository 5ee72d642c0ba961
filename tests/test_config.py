"""The REPRO_* environment-knob registry: typed accessors, declaration
checks, and call-time (never import-time) environment reads."""

from __future__ import annotations

import pytest

from repro import config
from repro.config import Knob
from repro.exceptions import ValidationError

KNOWN_KNOBS = {
    "REPRO_OBS",
    "REPRO_OBS_PATH",
    "REPRO_OBS_DIR",
    "REPRO_BACKEND",
    "REPRO_ESTIMATOR",
}


class TestRegistry:
    def test_every_knob_declared_with_doc(self):
        assert set(config.REGISTRY) == KNOWN_KNOBS
        for knob in config.REGISTRY.values():
            assert isinstance(knob, Knob)
            assert knob.doc
            assert knob.kind in ("bool", "str", "choice")

    def test_knobs_listing_is_sorted(self):
        assert list(config.knobs()) == sorted(KNOWN_KNOBS)

    def test_declared_returns_the_declaration(self):
        knob = config.declared("REPRO_BACKEND")
        assert knob.name == "REPRO_BACKEND"
        assert knob.choices == ("dense", "sparse", "auto")

    def test_undeclared_knob_fails_loudly(self):
        with pytest.raises(ValidationError, match="undeclared environment knob"):
            config.declared("REPRO_TYPO")
        with pytest.raises(ValidationError):
            config.raw("REPRO_TYPO")


class TestTypedAccessors:
    def test_bool_default_and_truthy_spellings(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        assert config.get_bool("REPRO_OBS") is False
        for value in ("1", "true", "Yes", " ON "):
            monkeypatch.setenv("REPRO_OBS", value)
            assert config.get_bool("REPRO_OBS") is True
        monkeypatch.setenv("REPRO_OBS", "0")
        assert config.get_bool("REPRO_OBS") is False

    def test_str_default_and_value(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_DIR", raising=False)
        assert config.get_str("REPRO_OBS_DIR") == "obs_runs"
        monkeypatch.setenv("REPRO_OBS_DIR", "  logs  ")
        assert config.get_str("REPRO_OBS_DIR") == "logs"

    def test_choice_knob_validates_values(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert config.get_str("REPRO_BACKEND") == "auto"
        monkeypatch.setenv("REPRO_BACKEND", "dense")
        assert config.get_str("REPRO_BACKEND") == "dense"
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        with pytest.raises(ValidationError, match="must be one of"):
            config.get_str("REPRO_BACKEND")

    def test_wrong_typed_accessor_rejected(self):
        with pytest.raises(ValidationError, match="not bool"):
            config.get_bool("REPRO_BACKEND")
        with pytest.raises(ValidationError, match="not str"):
            config.get_str("REPRO_OBS")

    def test_raw_returns_unparsed_value(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert config.raw("REPRO_BACKEND") is None
        monkeypatch.setenv("REPRO_BACKEND", " Sparse ")
        assert config.raw("REPRO_BACKEND") == " Sparse "

    def test_reads_happen_at_call_time(self, monkeypatch):
        """Monkeypatching after import must take effect — no import-time
        caching of environment values."""
        monkeypatch.setenv("REPRO_OBS", "1")
        assert config.get_bool("REPRO_OBS") is True
        monkeypatch.setenv("REPRO_OBS", "0")
        assert config.get_bool("REPRO_OBS") is False
