"""RP007 — every ``REPRO_*`` environment read goes through the registry.

The registry is the analyzed tree's own ``<root>.config`` module: its
``Knob(name=...)`` declarations are extracted statically (never
imported), so test fixtures can ship a miniature tree with their own
registry and exercise the rule hermetically.

Three disciplines are enforced across the package:

1. **No bypass.**  ``os.environ`` / ``os.getenv`` reads of a ``REPRO_*``
   name anywhere outside the config module must go through an accessor.
2. **No undeclared knob.**  Every name handed to ``config.raw`` /
   ``get_bool`` / ``get_str`` / ``declared`` must be a registry entry;
   names the analyzer cannot resolve to a string constant are flagged as
   dynamic.
3. **No dead entry.**  A registry declaration with no accessor site in
   the package is itself a finding — stale knobs rot into folklore.

Reads outside the root package (tests monkeypatching their own
variables, examples) are deliberately out of scope.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path

from repro.analysis.lint.registry import ProjectRule, Violation, register_rule
from repro.analysis.project import ModuleFacts, ProjectModel

__all__ = ["ConfigRegistryRule", "declared_knobs"]

#: Environment names the registry governs.
_KNOB_PREFIX = "REPRO_"


def declared_knobs(config_facts: ModuleFacts) -> dict[str, int]:
    """``Knob(name=..., ...)`` declarations in the registry module.

    Parses the file rather than importing it so the rule works on any
    analyzed tree (fixtures included).  Returns name -> declaration line.
    """
    try:
        tree = ast.parse(Path(config_facts.path).read_text(encoding="utf-8"))
    except (OSError, SyntaxError):
        return {}
    declarations: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else None
        if name != "Knob":
            continue
        knob_name: str | None = None
        for keyword in node.keywords:
            if keyword.arg == "name" and isinstance(keyword.value, ast.Constant):
                if isinstance(keyword.value.value, str):
                    knob_name = keyword.value.value
        if knob_name is None and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                knob_name = first.value
        if knob_name is not None:
            declarations[knob_name] = node.lineno
    return declarations


@register_rule
class ConfigRegistryRule(ProjectRule):
    """RP007 — REPRO_* reads must go through the declared-knob registry."""

    rule_id = "RP007"
    summary = (
        "REPRO_* environment reads must use the repro.config registry: "
        "no os.environ bypass, no undeclared knob, no dead registry entry"
    )

    def check_project(self, project: ProjectModel) -> Iterator[Violation]:
        root = project.root_package
        config_module = f"{root}.config"
        config_facts = project.by_module.get(config_module)
        if config_facts is None:
            # A tree without a registry has nothing to check against.
            return
        registry = declared_knobs(config_facts)
        used: set[str] = set()
        for facts in project.package_files():
            is_registry = facts.module == config_module
            for read in facts.env_reads:
                var = read["var"]
                if var is None and read.get("unresolved"):
                    var = project.resolve_constant(facts, read["unresolved"])
                if var is None or not var.startswith(_KNOB_PREFIX):
                    continue
                used.add(var)
                if is_registry:
                    continue
                yield self.project_violation(
                    facts.path,
                    read["lineno"],
                    f"direct environment read of {var!r} bypasses the "
                    f"{config_module} registry (use config.raw or a typed getter)",
                )
            for read in facts.config_reads:
                knob = read["knob"]
                if knob is None and read.get("unresolved"):
                    knob = project.resolve_constant(facts, read["unresolved"])
                if knob is None:
                    yield self.project_violation(
                        facts.path,
                        read["lineno"],
                        f"config.{read['accessor']} called with a dynamic knob "
                        "name the analyzer cannot resolve to a string constant",
                    )
                    continue
                used.add(knob)
                if knob not in registry:
                    known = ", ".join(sorted(registry)) or "none declared"
                    yield self.project_violation(
                        facts.path,
                        read["lineno"],
                        f"config.{read['accessor']}({knob!r}) reads a knob the "
                        f"registry does not declare (known: {known})",
                    )
        for knob_name, lineno in sorted(registry.items()):
            if knob_name not in used:
                yield self.project_violation(
                    config_facts.path,
                    lineno,
                    f"registry entry {knob_name!r} has no accessor site in the "
                    "package — delete the knob or wire it up",
                )
