"""Central registry of the library's ``REPRO_*`` environment knobs.

Every environment variable the library reads is declared here — name,
type, default, allowed values, and a one-line doc string — and every
dispatch site reads it *through* this module (:func:`raw` for sites that
own their parsing and error text, :func:`get_bool` / :func:`get_str` for
plain typed reads).  The whole-program analyzer
(rule RP007, :mod:`repro.analysis.configscan`) enforces the discipline
statically: an ``os.environ`` read of a ``REPRO_*`` name anywhere else,
a knob name passed to an accessor that the registry does not declare,
and a registry entry no dispatch site reads are all analysis failures.

The payoff is bit-reproducibility of configured pipelines: a knob can
never silently diverge between dispatch sites, because there is exactly
one declaration and every read goes through it.

This module is deliberately tiny and leaf-level (stdlib plus
:mod:`repro.exceptions` only) so that even the observability layer —
itself imported by nearly everything — can read its knobs here without
import cycles.

Values are read from ``os.environ`` at *call* time, never cached at
import, so tests can monkeypatch the environment per case.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.exceptions import ValidationError

__all__ = [
    "Knob",
    "REGISTRY",
    "declared",
    "get_bool",
    "get_str",
    "knobs",
    "raw",
]

#: Values accepted as "on" for boolean knobs (anything else is off).
_TRUTHY = frozenset({"1", "true", "yes", "on"})


@dataclass(frozen=True)
class Knob:
    """Declaration of one environment knob.

    ``kind`` is ``"bool"`` / ``"str"`` / ``"choice"``;
    ``choices`` constrains ``"choice"`` knobs; ``default`` is the parsed
    value used when the variable is unset or empty.  ``doc`` is the
    operator-facing one-liner rendered into the analyzer's reports.
    """

    name: str
    kind: str
    default: object
    doc: str
    choices: tuple[str, ...] | None = None


#: Every environment variable the library reads, keyed by name.
REGISTRY: dict[str, Knob] = {
    knob.name: knob
    for knob in (
        Knob(
            name="REPRO_OBS",
            kind="bool",
            default=False,
            doc="write a structured JSONL event log + run manifest for every run",
        ),
        Knob(
            name="REPRO_OBS_PATH",
            kind="str",
            default="",
            doc="exact run-log file path (overrides REPRO_OBS_DIR)",
        ),
        Knob(
            name="REPRO_OBS_DIR",
            kind="str",
            default="obs_runs",
            doc="directory for timestamped run logs when REPRO_OBS_PATH is unset",
        ),
        Knob(
            name="REPRO_BACKEND",
            kind="choice",
            default="auto",
            choices=("dense", "sparse", "auto"),
            doc="tomography kernel backend (auto = size/density heuristic)",
        ),
        Knob(
            name="REPRO_ESTIMATOR",
            kind="choice",
            default="ls",
            choices=("ls", "bayes-map", "l1", "ridge", "nnls"),
            doc=(
                "defender-side inversion estimator "
                "(ls = the paper's least squares, stays bit-identical)"
            ),
        ),
    )
}


def knobs() -> dict[str, Knob]:
    """The declared knobs, keyed by name, in sorted order."""
    return dict(sorted(REGISTRY.items()))


def declared(name: str) -> Knob:
    """The declaration of ``name``; unknown knobs raise ``ValidationError``.

    The runtime counterpart of the RP007 static check: a typo'd knob name
    fails loudly at the dispatch site instead of silently reading an
    unset variable forever.
    """
    knob = REGISTRY.get(name)
    if knob is None:
        known = ", ".join(sorted(REGISTRY))
        raise ValidationError(f"undeclared environment knob {name!r} (known: {known})")
    return knob


def raw(name: str) -> str | None:
    """The raw environment value of a declared knob (None when unset).

    For dispatch sites that own their parsing, precedence rules, and
    error text (the backend resolver); plain typed reads use
    :func:`get_bool` / :func:`get_str` instead.
    """
    declared(name)
    return os.environ.get(name)


def get_bool(name: str) -> bool:
    """A boolean knob: true iff set to one of ``1/true/yes/on`` (any case)."""
    knob = declared(name)
    if knob.kind != "bool":
        raise ValidationError(f"knob {name} is {knob.kind}-typed, not bool")
    value = os.environ.get(name)
    if value is None or not value.strip():
        return bool(knob.default)
    return value.strip().lower() in _TRUTHY


def get_str(name: str) -> str:
    """A string knob: the stripped value, or the default when unset/empty."""
    knob = declared(name)
    if knob.kind not in ("str", "choice"):
        raise ValidationError(f"knob {name} is {knob.kind}-typed, not str")
    value = os.environ.get(name)
    if value is None or not value.strip():
        return str(knob.default)
    stripped = value.strip()
    if knob.choices is not None and stripped not in knob.choices:
        raise ValidationError(
            f"{name} must be one of {knob.choices}, got {stripped!r}"
        )
    return stripped

