"""The analysis engine and its per-file rules (RP001–RP005).

Public surface:

- :func:`all_rules` — the registry (feeds ``--select`` and the docs table),
- :func:`collect_python_files` — the file walk every analysis run uses,
- :func:`noqa_rules_for_line` — the one ``# repro: noqa`` parser,
- :class:`Violation` — one finding.

:func:`repro.analysis.lint.engine.analyze_paths` runs the rules; see
:mod:`repro.analysis.lint.rules` for what each per-file rule enforces and
why.
"""

from __future__ import annotations

from repro.analysis.lint.engine import collect_python_files, noqa_rules_for_line
from repro.analysis.lint.registry import (
    LintRule,
    ModuleSource,
    Violation,
    all_rules,
    register_rule,
    resolve_selection,
)

__all__ = [
    "LintRule",
    "ModuleSource",
    "Violation",
    "all_rules",
    "collect_python_files",
    "noqa_rules_for_line",
    "register_rule",
    "resolve_selection",
]
