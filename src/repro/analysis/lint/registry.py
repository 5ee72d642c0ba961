"""Rule registry for the analysis engine.

Rules are small classes registered by decorator so the engine, the CLI's
``--select`` handling, and the documentation table all draw from one
source of truth.  Each rule inspects one parsed module at a time (a
:class:`ProjectRule` the whole project model) and yields
:class:`Violation` records; the engine
(:func:`~repro.analysis.lint.engine.analyze_paths`) owns file walking,
``# repro: noqa`` suppression, and output formatting.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, ClassVar

from repro.exceptions import ValidationError

if TYPE_CHECKING:  # runtime import would cycle through the facts extractor
    from repro.analysis.project import ProjectModel

__all__ = [
    "LintRule",
    "ModuleSource",
    "ProjectRule",
    "Violation",
    "all_rules",
    "register_rule",
    "resolve_selection",
]


@dataclass(frozen=True)
class Violation:
    """One lint finding, pointing at a source location.

    ``rule`` is the ``RPxxx`` identifier, ``line``/``col`` are 1-based /
    0-based respectively (the ``path:line:col:`` convention used by every
    mainstream linter, so editors can jump to the site).  ``severity`` is
    ``"error"`` (fails the run) or ``"advisory"`` (reported, exit 0) —
    relaxed rule profiles demote selected rules to advisory.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = "error"

    def render(self) -> str:
        """The canonical one-line text form."""
        tag = "" if self.severity == "error" else f" [{self.severity}]"
        return f"{self.path}:{self.line}:{self.col}: {self.rule}{tag} {self.message}"

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly record (the ``--format json`` row)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity,
        }


@dataclass
class ModuleSource:
    """One parsed module handed to every rule.

    ``rel_path`` uses forward slashes relative to the analysis root so rules
    can express path-based exemptions (``obs/``, the linalg kernel)
    portably.
    """

    path: Path
    rel_path: str
    tree: ast.Module

    def matches(self, *suffixes: str) -> bool:
        """True when the module path ends with any of ``suffixes``."""
        return any(self.rel_path.endswith(suffix) for suffix in suffixes)

    def in_directory(self, name: str) -> bool:
        """True when any path component equals ``name`` (e.g. ``obs``).

        Checks both the root-relative path and the filesystem path: when a
        package directory is analyzed directly (``repro analyze
        src/repro/obs``) the analysis root *is* that directory, so its name
        never appears in ``rel_path`` — the real path still carries it.
        """
        if name in self.rel_path.split("/")[:-1]:
            return True
        return name in self.path.parts[:-1]


class LintRule:
    """Base class for repo lint rules.

    Subclasses set ``rule_id`` / ``summary`` and implement :meth:`check`.
    """

    rule_id: ClassVar[str] = "RP000"
    summary: ClassVar[str] = ""
    #: Opt-in rules set this False: they run only under explicit --select.
    default_enabled: ClassVar[bool] = True

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        """Yield violations found in ``module``."""
        raise NotImplementedError

    def violation(self, module: ModuleSource, node: ast.AST, message: str) -> Violation:
        """Build a violation anchored at ``node``."""
        return Violation(
            rule=self.rule_id,
            path=str(module.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class ProjectRule(LintRule):
    """Base class for whole-program analysis rules (RP006+).

    Project rules see the entire parsed tree at once — the
    :class:`~repro.analysis.project.ProjectModel` of extracted per-module
    facts — instead of one module, so they can check cross-module
    invariants (import layering, worker reachability, obs schema
    agreement, dead code).  They implement
    :meth:`check_project`; the per-module :meth:`check` is a no-op.
    """

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        """Project rules have no per-module findings."""
        return iter(())

    def check_project(self, project: ProjectModel) -> Iterator[Violation]:
        """Yield violations found across ``project``."""
        raise NotImplementedError

    def project_violation(
        self, path: str, line: int, message: str, *, col: int = 0
    ) -> Violation:
        """Build a violation anchored at an explicit location."""
        return Violation(
            rule=self.rule_id, path=path, line=line, col=col, message=message
        )


_REGISTRY: dict[str, type[LintRule]] = {}


def register_rule(cls: type[LintRule]) -> type[LintRule]:
    """Class decorator adding a rule to the registry (id must be unique)."""
    if cls.rule_id in _REGISTRY:
        raise ValidationError(f"duplicate lint rule id {cls.rule_id!r}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> dict[str, type[LintRule]]:
    """The registered rules, keyed by id (import triggers registration)."""
    import repro.analysis.concurrency  # noqa: F401  (registration side effect)
    import repro.analysis.importgraph  # noqa: F401  (registration side effect)
    import repro.analysis.lint.rules  # noqa: F401  (registration side effect)
    import repro.analysis.obschema  # noqa: F401  (registration side effect)

    return dict(sorted(_REGISTRY.items()))


def resolve_selection(select: Iterable[str] | None = None) -> list[LintRule]:
    """Instantiate the selected rules (all when ``select`` is ``None``).

    Raises :class:`~repro.exceptions.ValidationError` on unknown ids so the
    CLI can exit with a usage error rather than silently analyzing nothing.
    """
    registry = all_rules()
    if select is None:
        return [cls() for cls in registry.values() if cls.default_enabled]
    chosen: list[LintRule] = []
    for rule_id in select:
        normalized = rule_id.strip().upper()
        if not normalized:
            continue
        if normalized not in registry:
            known = ", ".join(registry)
            raise ValidationError(f"unknown lint rule {rule_id!r} (known: {known})")
        chosen.append(registry[normalized]())
    if not chosen:
        raise ValidationError("rule selection is empty")
    return chosen
