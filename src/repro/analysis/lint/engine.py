"""Analysis engine: file walking, parsing, suppression, and report shaping.

The engine is deliberately dependency-free (stdlib ``ast`` only).
:func:`analyze_paths` is its one entry point: it walks the given
files/directories and parses each module once; that one tree feeds both
the per-file facts and the per-file rules (RP001-RP005), and the project
rules (RP006+) run over the assembled
:class:`~repro.analysis.project.ProjectModel`.  Findings on a line with a
``# repro: noqa`` / ``# repro: noqa RP001,RP002`` comment are dropped,
parse failures surface as ``RP000`` findings so a syntactically broken
file fails the run instead of being skipped silently, and the results
fold into an :class:`AnalysisReport` carrying severities.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.analysis.lint.registry import (
    ModuleSource,
    ProjectRule,
    Violation,
    resolve_selection,
)
from repro.exceptions import ValidationError

if TYPE_CHECKING:  # resolved lazily at runtime to keep lint importable alone
    from repro.analysis.project import ModuleFacts, ProjectModel

__all__ = [
    "AnalysisReport",
    "PROFILES",
    "analyze_paths",
    "collect_python_files",
    "format_analysis",
    "noqa_rules_for_line",
]

#: Severity profiles: rules demoted to advisory per audience.  Library
#: code answers for every rule; test/benchmark/example code may multiply
#: bare literals and seed ad-hoc RNGs without failing the run.
PROFILES: dict[str, frozenset[str]] = {
    "src": frozenset(),
    "tests": frozenset({"RP002", "RP003"}),
}

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\s+(?P<codes>[A-Z]{2}\d{3}(?:\s*,\s*[A-Z]{2}\d{3})*))?",
    re.IGNORECASE,
)

#: Directory names never descended into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "venv", "build", "dist"})


def noqa_rules_for_line(line: str) -> frozenset[str] | None:
    """Suppression spec of one physical line.

    Returns ``None`` when the line has no ``repro: noqa`` comment, an empty
    frozenset for a blanket ``# repro: noqa`` (suppress every rule), or the
    set of rule ids for a targeted ``# repro: noqa RP001,RP002``.
    """
    match = _NOQA_RE.search(line)
    if match is None:
        return None
    codes = match.group("codes")
    if not codes:
        return frozenset()
    return frozenset(code.strip().upper() for code in codes.split(","))


def collect_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Raises :class:`~repro.exceptions.ValidationError` for paths that do not
    exist — a typo'd path must not pass as "nothing to analyze".
    """
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.update(
                candidate
                for candidate in path.rglob("*.py")
                if not _SKIP_DIRS.intersection(candidate.parts)
            )
        elif path.is_file():
            files.add(path)
        else:
            raise ValidationError(f"path {raw!s} does not exist")
    return sorted(files)


def _relative_to_root(path: Path, roots: Sequence[Path]) -> str:
    for root in roots:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            continue
    return path.as_posix()


def _apply_profile(violations: list[Violation], profile: str) -> list[Violation]:
    """Demote the profile's advisory rules; unknown profiles are errors."""
    if profile not in PROFILES:
        known = ", ".join(sorted(PROFILES))
        raise ValidationError(f"unknown profile {profile!r} (known: {known})")
    advisory = PROFILES[profile]
    if not advisory:
        return violations
    return [
        dataclasses.replace(v, severity="advisory") if v.rule in advisory else v
        for v in violations
    ]


@dataclass
class AnalysisReport:
    """Outcome of one :func:`analyze_paths` run.

    ``project`` is the model the project rules ran over, so a caller can
    render from it (the obs catalog) without re-parsing; it is not part of
    the JSON report.
    """

    violations: list[Violation] = field(default_factory=list)
    files: int = 0
    root_package: str = "repro"
    rules: list[str] = field(default_factory=list)
    project: ProjectModel | None = field(default=None, repr=False, compare=False)

    @property
    def error_count(self) -> int:
        return sum(1 for v in self.violations if v.severity == "error")

    @property
    def advisory_count(self) -> int:
        return sum(1 for v in self.violations if v.severity != "error")

    @property
    def exit_code(self) -> int:
        """0 clean (advisories allowed), 1 when any error-severity finding."""
        return 1 if self.error_count else 0


def _detect_root_package(facts_list: list[ModuleFacts]) -> str:
    """The dominant top-level package among the analyzed modules."""
    counts: dict[str, int] = {}
    for facts in facts_list:
        if facts.module:
            top = facts.module.split(".")[0]
            counts[top] = counts.get(top, 0) + 1
    if not counts:
        return "repro"
    return max(sorted(counts), key=lambda name: counts[name])


def _suppressed_by_noqa(
    violation: Violation, noqa: dict[int, list[str] | None]
) -> bool:
    spec = noqa.get(violation.line)
    if spec is None and violation.line not in noqa:
        return False
    return not spec or violation.rule in spec


def analyze_paths(
    paths: Iterable[str | Path],
    *,
    select: Iterable[str] | None = None,
    profile: str = "src",
    layers_path: str | Path | None = None,
    root_package: str | None = None,
) -> AnalysisReport:
    """Run the whole-program analyzer over ``paths``.

    Per-file facts and per-file rule findings come from one parse per
    file; the project rules then run over the assembled model.
    """
    from repro.analysis.project import ProjectModel, extract_facts

    path_list = [Path(p) for p in paths]
    rules = resolve_selection(select)
    file_rule_instances = [r for r in rules if not isinstance(r, ProjectRule)]
    project_rule_instances = [r for r in rules if isinstance(r, ProjectRule)]
    roots = [p if p.is_dir() else p.parent for p in path_list]

    facts_list: list[ModuleFacts] = []
    violations: list[Violation] = []
    for file_path in collect_python_files(path_list):
        rel = _relative_to_root(file_path, roots)
        source = file_path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(file_path))
        except SyntaxError as exc:
            facts_list.append(extract_facts(file_path, rel_path=rel, source=source))
            violations.append(
                Violation(
                    rule="RP000",
                    path=str(file_path),
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        facts = extract_facts(file_path, rel_path=rel, source=source, tree=tree)
        facts_list.append(facts)
        module = ModuleSource(path=file_path, rel_path=rel, tree=tree)
        for rule in file_rule_instances:
            violations.extend(
                v for v in rule.check(module) if not _suppressed_by_noqa(v, facts.noqa)
            )

    facts_by_path = {facts.path: facts for facts in facts_list}

    detected_root = root_package or _detect_root_package(facts_list)
    project = ProjectModel(
        files=facts_list,
        root_package=detected_root,
        layers_path=Path(layers_path) if layers_path is not None else None,
    )
    for rule in project_rule_instances:
        for violation in rule.check_project(project):
            owner = facts_by_path.get(violation.path)
            if owner is not None and _suppressed_by_noqa(violation, owner.noqa):
                continue
            violations.append(violation)

    violations = _apply_profile(violations, profile)
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))

    return AnalysisReport(
        violations=violations,
        files=len(facts_list),
        root_package=detected_root,
        rules=sorted(r.rule_id for r in rules),
        project=project,
    )


def format_analysis(report: AnalysisReport, *, fmt: str = "text") -> str:
    """Render an analysis report as ``text`` or deterministic ``json``."""
    if fmt == "json":
        payload = {
            "root_package": report.root_package,
            "files": report.files,
            "rules": report.rules,
            "violations": [v.as_dict() for v in report.violations],
            "errors": report.error_count,
            "advisories": report.advisory_count,
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    if fmt != "text":
        raise ValidationError(f"unknown analyze output format {fmt!r}")
    lines = [v.render() for v in report.violations]
    lines.append(
        f"repro analyze: {report.files} file(s), "
        f"{report.error_count} error(s), {report.advisory_count} advisory"
    )
    return "\n".join(lines)
