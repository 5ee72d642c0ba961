"""RP009 — the obs event schema and its consumers must agree.

The run-log producer (``<root>.obs.core``) and the summariser
(``<root>.obs.summary``) evolve independently; nothing at runtime checks
that a field the summariser reads is actually written, because
``dict.get`` swallows the drift.  This rule closes the loop statically:

- **Emit side** — every dict literal in the core module carrying a
  ``"kind"`` key is an emission site; its literal keys are the fields of
  that record kind (a ``**fields`` splat marks the kind open-ended).
  ``_emit`` stamps the ``t``/``span`` envelope onto every record.
- **Consume side** — inside ``summarize_events``, each
  ``kind == "..."`` comparison opens a branch whose ``record.get("f")``
  reads consume fields of that kind; ``header.get`` / ``footer.get``
  reads bind to those kinds by variable name.

Checks: a consumed kind nobody emits, a consumed field absent from any
emission site of its kind, and an emitted kind the summariser ignores
entirely (advisory drift in the other direction).

The same extraction renders ``docs/OBS_EVENTS.md`` — the record-kind
catalog plus every instrumentation call site in the package — via
:func:`render_obs_catalog`.
"""

from __future__ import annotations

import ast
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.lint.registry import ProjectRule, Violation, register_rule
from repro.analysis.project import ProjectModel

__all__ = ["ObsSchemaRule", "extract_consumed", "extract_emitted", "render_obs_catalog"]

#: Fields stamped by the ``_emit`` envelope onto every record.
_ENVELOPE_FIELDS = frozenset({"t", "span"})


@dataclass
class EmittedKind:
    """One record kind as produced by the core module."""

    kind: str
    fields: set[str] = field(default_factory=set)
    open_ended: bool = False
    linenos: list[int] = field(default_factory=list)
    #: Per-site field sets, for the every-site presence check.
    sites: list[tuple[int, frozenset[str], bool]] = field(default_factory=list)


def extract_emitted(core_path: Path) -> dict[str, EmittedKind]:
    """Emission sites of the core module: kind -> fields/open/sites."""
    tree = ast.parse(core_path.read_text(encoding="utf-8"))
    emitted: dict[str, EmittedKind] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Dict):
            continue
        keys: list[str] = []
        kind: str | None = None
        open_ended = False
        for key, value in zip(node.keys, node.values):
            if key is None:
                open_ended = True  # a **splat merges caller fields
                continue
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys.append(key.value)
                if key.value == "kind" and isinstance(value, ast.Constant):
                    if isinstance(value.value, str):
                        kind = value.value
        if kind is None:
            continue
        entry = emitted.setdefault(kind, EmittedKind(kind=kind))
        site_fields = frozenset(keys)
        entry.fields.update(keys)
        entry.open_ended = entry.open_ended or open_ended
        entry.linenos.append(node.lineno)
        entry.sites.append((node.lineno, site_fields, open_ended))
    return emitted


@dataclass
class ConsumedField:
    """One field read by the summariser, attributed to a record kind."""

    kind: str
    field_name: str
    lineno: int


def _branch_kind(test: ast.expr) -> str | None:
    """The literal of a ``kind == "..."`` comparison, if that's the test."""
    if not isinstance(test, ast.Compare) or len(test.comparators) != 1:
        return None
    if not any(isinstance(op, ast.Eq) for op in test.ops):
        return None
    left, right = test.left, test.comparators[0]
    for a, b in ((left, right), (right, left)):
        if isinstance(a, ast.Name) and a.id == "kind":
            if isinstance(b, ast.Constant) and isinstance(b.value, str):
                return b.value
    return None


def _get_reads(node: ast.AST) -> Iterator[tuple[str, str, int]]:
    """``owner.get("field")`` reads under ``node`` as (owner, field, line)."""
    for child in ast.walk(node):
        if not isinstance(child, ast.Call):
            continue
        func = child.func
        if not (isinstance(func, ast.Attribute) and func.attr == "get"):
            continue
        if not child.args:
            continue
        first = child.args[0]
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
            continue
        owner = func.value
        owner_name: str | None = None
        if isinstance(owner, ast.Name):
            owner_name = owner.id
        elif isinstance(owner, ast.BoolOp) and owner.values:
            head = owner.values[0]
            if isinstance(head, ast.Name):
                owner_name = head.id  # the ``(footer or {}).get`` idiom
        elif isinstance(owner, ast.Subscript):
            base = owner.value
            if isinstance(base, ast.Name):
                owner_name = base.id
        if owner_name is not None:
            yield owner_name, first.value, child.lineno


def extract_consumed(summary_path: Path) -> tuple[list[ConsumedField], set[str]]:
    """Field reads of ``summarize_events``, attributed to record kinds.

    Returns the consumed fields and the set of kinds the summariser
    dispatches on at all (via branch tests or header/footer binding).
    """
    tree = ast.parse(summary_path.read_text(encoding="utf-8"))
    consumed: list[ConsumedField] = []
    dispatched: set[str] = set()
    target: ast.FunctionDef | None = None
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "summarize_events":
            target = node
    if target is None:
        return consumed, dispatched

    #: Variables bound to records of a fixed kind by convention.
    named_owners = {"header": "header", "footer": "footer"}

    def walk(body: list[ast.stmt], branch_kind: str | None) -> None:
        for statement in body:
            if isinstance(statement, ast.If):
                this_kind = _branch_kind(statement.test)
                if this_kind is not None:
                    dispatched.add(this_kind)
                walk(statement.body, this_kind if this_kind is not None else branch_kind)
                walk(statement.orelse, branch_kind)
                continue
            if isinstance(statement, (ast.For, ast.While, ast.With)):
                walk(statement.body, branch_kind)
                walk(getattr(statement, "orelse", []), branch_kind)
                continue
            if isinstance(statement, ast.Try):
                for block in (statement.body, statement.orelse, statement.finalbody):
                    walk(block, branch_kind)
                for handler in statement.handlers:
                    walk(handler.body, branch_kind)
                continue
            for owner, field_name, lineno in _get_reads(statement):
                kind: str | None = None
                if owner == "record":
                    kind = branch_kind
                elif owner in named_owners:
                    kind = named_owners[owner]
                    dispatched.add(kind)
                if kind is not None:
                    consumed.append(ConsumedField(kind, field_name, lineno))

    walk(target.body, None)
    return consumed, dispatched


@register_rule
class ObsSchemaRule(ProjectRule):
    """RP009 — summariser field reads must exist at every emission site."""

    rule_id = "RP009"
    summary = (
        "obs record kinds/fields read by the summariser must be emitted by "
        "the event log (and every emitted kind should be summarised)"
    )

    def check_project(self, project: ProjectModel) -> Iterator[Violation]:
        root = project.root_package
        core = project.by_module.get(f"{root}.obs.core")
        summary = project.by_module.get(f"{root}.obs.summary")
        if core is None or summary is None:
            return
        try:
            emitted = extract_emitted(Path(core.path))
            consumed, dispatched = extract_consumed(Path(summary.path))
        except (OSError, SyntaxError):
            return
        if not emitted:
            return
        for read in consumed:
            entry = emitted.get(read.kind)
            if entry is None:
                yield self.project_violation(
                    summary.path,
                    read.lineno,
                    f"summariser consumes record kind {read.kind!r} that "
                    f"{root}.obs.core never emits",
                )
                continue
            if read.field_name in _ENVELOPE_FIELDS:
                continue
            for lineno, site_fields, open_ended in entry.sites:
                if read.field_name in site_fields or open_ended:
                    continue
                yield self.project_violation(
                    core.path,
                    lineno,
                    f"{read.kind!r} emission site lacks field "
                    f"{read.field_name!r} read by the summariser "
                    f"({summary.rel_path}:{read.lineno})",
                )
        for kind in dispatched:
            if kind not in emitted:
                # Already reported per consuming read above; keep one-liner
                # coverage for dispatch-only branches with no field reads.
                if not any(read.kind == kind for read in consumed):
                    yield self.project_violation(
                        summary.path,
                        1,
                        f"summariser dispatches on record kind {kind!r} that "
                        f"{root}.obs.core never emits",
                    )
        for kind, entry in sorted(emitted.items()):
            if kind not in dispatched:
                yield self.project_violation(
                    core.path,
                    entry.linenos[0],
                    f"record kind {kind!r} is emitted but the summariser "
                    "never reads it — schema drift (extend summarize_events "
                    "or drop the kind)",
                )


def render_obs_catalog(project: ProjectModel) -> str:
    """The ``docs/OBS_EVENTS.md`` markdown: record kinds + call sites.

    A site is ``path::Qualname`` of the enclosing function (``<module>``
    outside any), not a line, so moving lines leaves the catalog as it
    is; the path is as the analyzer was given it (``src/repro/...``).
    """
    root = project.root_package
    core = project.by_module.get(f"{root}.obs.core")
    summary = project.by_module.get(f"{root}.obs.summary")
    lines = [
        "# Observability event catalog",
        "",
        "Generated by `repro analyze --obs-catalog` (rule RP009's extraction",
        "pass); regenerate after changing the event log or the summariser.",
        "",
    ]
    if core is not None:
        emitted = extract_emitted(Path(core.path))
        consumed: list[ConsumedField] = []
        if summary is not None:
            consumed, _ = extract_consumed(Path(summary.path))
        by_kind: dict[str, set[str]] = {}
        for read in consumed:
            by_kind.setdefault(read.kind, set()).add(read.field_name)
        lines += [
            "## Record kinds",
            "",
            f"Schema as emitted by `{root}.obs.core` (every record also",
            "carries the `t` timestamp and, inside a span, `span`).",
            "",
            "| kind | fields | open | summariser reads |",
            "|------|--------|------|------------------|",
        ]
        for kind, entry in sorted(emitted.items()):
            fields = ", ".join(
                f"`{name}`" for name in sorted(entry.fields - {"kind"})
            )
            reads = ", ".join(f"`{name}`" for name in sorted(by_kind.get(kind, set())))
            open_mark = "yes" if entry.open_ended else ""
            lines.append(f"| `{kind}` | {fields} | {open_mark} | {reads or '—'} |")
        lines.append("")
    emits: Counter[tuple[str, str, str]] = Counter()
    for facts in project.package_files():
        for emit in facts.obs_emits:
            if emit["name"] is not None:
                site = f"{facts.path}::{emit['function'] or '<module>'}"
                emits[(emit["api"], emit["name"], site)] += 1
    if emits:
        lines += [
            "## Instrumentation sites",
            "",
            "Every named `obs` emission call in the package, by enclosing",
            "function, so moving lines within a file leaves this table as it is.",
            "",
            "| api | name | site |",
            "|-----|------|------|",
        ]
        for (api, name, site), calls in sorted(emits.items()):
            count = f" ({calls} calls)" if calls > 1 else ""
            lines.append(f"| `{api}` | `{name}` | `{site}`{count} |")
        lines.append("")
    return "\n".join(lines)
