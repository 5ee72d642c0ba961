"""RP008 — state discipline for code reachable from pool workers.

The library parallelises with one ``fork``-based process pool, behind
one dispatch entry point: the sweep runner's ``iter_map_chunks``.
Forked workers inherit every module global, so a worker-side write to
module state is (at best) silently lost on join and (at worst) a
cross-run contamination bug that no unit test catches.

The rule builds a name-based call graph from the extracted facts, seeds
it with every callable handed to a dispatch site, and walks the
worker-reachable closure flagging:

- ``global`` declarations (module-global rebinding) in reachable code,
- in-place mutation of module-level names (``STATE[...] =``,
  ``STATE.append(...)``) in reachable code,
- mutation of caller-supplied arguments inside root worker callables
  (the results are marshalled back by value — mutations don't propagate),
- lambdas and closure-local ``def``s handed to a dispatch site that was
  given ``workers=`` (they do not survive pickling).

Deliberate exceptions are annotated in source with
``# repro: worker-state-ok <reason>`` on the offending line (or the
function's ``def`` line), which this rule treats as an allowlist —
``detach_inherited_log`` *must* rebind the inherited global to ``None``,
that being the whole point.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.analysis.lint.registry import ProjectRule, Violation, register_rule
from repro.analysis.project import FunctionFacts, ModuleFacts, ProjectModel

__all__ = ["WorkerStateRule"]

_ALLOW_MARKER = "worker-state-ok"


def _from_import_map(facts: ModuleFacts) -> dict[str, tuple[str, str]]:
    """alias -> (source module, original name) for from-imports."""
    mapping: dict[str, tuple[str, str]] = {}
    for imp in facts.imports:
        if imp["kind"] == "from":
            mapping[imp["alias"]] = (imp["module"], imp["name"])
    return mapping


def _module_alias_map(facts: ModuleFacts) -> dict[str, str]:
    """alias -> module for plain ``import x.y as z`` bindings."""
    mapping: dict[str, str] = {}
    for imp in facts.imports:
        if imp["kind"] == "import":
            mapping[imp["alias"]] = imp["module"]
    return mapping


class _Resolver:
    """Resolve call names to (file, function) pairs across the project."""

    def __init__(self, project: ProjectModel) -> None:
        self.project = project
        self.by_rel: dict[str, ModuleFacts] = {f.rel_path: f for f in project.files}

    def functions_named(
        self, facts: ModuleFacts, name: str
    ) -> list[tuple[ModuleFacts, FunctionFacts]]:
        """Resolve a bare name used inside ``facts`` to callables."""
        index = facts.function_index()
        if name in index and "." not in name:
            fn = index[name]
            if "." not in fn.qualname:
                return [(facts, fn)]
        for cls in facts.classes:
            if cls["name"] == name:
                return self.class_methods(facts, name)
        imported = _from_import_map(facts).get(name)
        if imported is not None:
            module, original = imported
            target = self.project.by_module.get(module)
            if target is not None and target is not facts:
                return self.functions_named(target, original)
        return []

    def class_methods(
        self, facts: ModuleFacts, class_name: str, *, _seen: frozenset[str] = frozenset()
    ) -> list[tuple[ModuleFacts, FunctionFacts]]:
        """All methods of a class and its resolvable base classes."""
        key = f"{facts.rel_path}::{class_name}"
        if key in _seen:
            return []
        found: list[tuple[ModuleFacts, FunctionFacts]] = []
        for cls in facts.classes:
            if cls["name"] != class_name:
                continue
            for method in cls["methods"]:
                found.append((facts, method))
            for base in cls["bases"]:
                base_name = base.split(".")[-1]
                owner = facts
                imported = _from_import_map(facts).get(base.split(".")[0])
                if imported is not None:
                    module, original = imported
                    target = self.project.by_module.get(module)
                    if target is not None:
                        owner = target
                        base_name = original if "." not in base else base_name
                found.extend(
                    self.class_methods(owner, base_name, _seen=_seen | {key})
                )
        return found

    def method_in_class(
        self, facts: ModuleFacts, class_name: str, method_name: str
    ) -> list[tuple[ModuleFacts, FunctionFacts]]:
        """``self.method()`` resolution within a class hierarchy."""
        return [
            (owner, fn)
            for owner, fn in self.class_methods(facts, class_name)
            if fn.name == method_name
        ]

    def resolve_call(
        self, facts: ModuleFacts, caller: FunctionFacts, call: str
    ) -> list[tuple[ModuleFacts, FunctionFacts]]:
        parts = call.split(".")
        if len(parts) == 1:
            name = caller.partial_binds.get(parts[0], parts[0])
            return self.functions_named(facts, name)
        if len(parts) == 2:
            owner, method = parts
            if owner in ("self", "cls") and "." in caller.qualname:
                class_name = caller.qualname.split(".")[0]
                return self.method_in_class(facts, class_name, method)
            imported = _from_import_map(facts).get(owner)
            if imported is not None:
                module, original = imported
                submodule = self.project.by_module.get(f"{module}.{original}")
                if submodule is not None:
                    return self.functions_named(submodule, method)
                target = self.project.by_module.get(module)
                if target is not None:
                    resolved = self.method_in_class(target, original, method)
                    if resolved:
                        return resolved
            module_target = _module_alias_map(facts).get(owner)
            if module_target is not None:
                target = self.project.by_module.get(module_target)
                if target is not None:
                    return self.functions_named(target, method)
            for cls in facts.classes:
                if cls["name"] == owner:
                    return self.method_in_class(facts, owner, method)
        return []


def _allowlisted(facts: ModuleFacts, fn: FunctionFacts, lineno: int) -> bool:
    """True when the line (or the function's def line) carries the marker."""
    for candidate in (lineno, fn.lineno):
        if _ALLOW_MARKER in facts.markers.get(candidate, ()):
            return True
    return False


@register_rule
class WorkerStateRule(ProjectRule):
    """RP008 — no unannotated module-state writes in worker-reachable code."""

    rule_id = "RP008"
    summary = (
        "code reachable from pool-worker callables must not write module "
        "state or mutate caller arguments (allowlist: # repro: worker-state-ok)"
    )

    def check_project(self, project: ProjectModel) -> Iterator[Violation]:
        resolver = _Resolver(project)
        roots: list[tuple[ModuleFacts, FunctionFacts]] = []
        for facts in project.files:
            index = facts.function_index()
            for site in facts.dispatch_sites:
                enclosing = (
                    index.get(site["in_function"]) if site["in_function"] else None
                )
                target = site["target"]
                if site["target_kind"] == "lambda" and site["workers"]:
                    yield self.project_violation(
                        facts.path,
                        site["lineno"],
                        f"lambda passed to {site['callee']} with workers= — "
                        "lambdas cannot be pickled into pool workers; use a "
                        "module-level function",
                    )
                    continue
                if target is None:
                    continue
                if enclosing is not None:
                    target = enclosing.partial_binds.get(target, target)
                    if target in enclosing.nested_defs:
                        if site["workers"]:
                            yield self.project_violation(
                                facts.path,
                                site["lineno"],
                                f"closure-local function {target!r} passed to "
                                f"{site['callee']} with workers= — nested defs "
                                "cannot be pickled into pool workers",
                            )
                        continue
                roots.extend(resolver.functions_named(facts, target))

        seen: set[tuple[str, str]] = set()
        queue = list(roots)
        root_keys = {(facts.rel_path, fn.qualname) for facts, fn in roots}
        while queue:
            facts, fn = queue.pop()
            key = (facts.rel_path, fn.qualname)
            if key in seen:
                continue
            seen.add(key)
            yield from self._check_function(facts, fn, is_root=key in root_keys)
            for call in fn.calls:
                queue.extend(resolver.resolve_call(facts, fn, call))

    def _check_function(
        self, facts: ModuleFacts, fn: FunctionFacts, *, is_root: bool
    ) -> Iterator[Violation]:
        module_names = set(facts.module_level_names)
        for write in fn.global_writes:
            if _allowlisted(facts, fn, write["lineno"]):
                continue
            yield self.project_violation(
                facts.path,
                write["lineno"],
                f"worker-reachable {fn.qualname} declares global "
                f"{write['name']!r} — forked workers silently drop the write "
                "on join (annotate # repro: worker-state-ok if deliberate)",
            )
        for mutation in fn.module_mutations:
            if mutation["name"] not in module_names:
                continue
            if _allowlisted(facts, fn, mutation["lineno"]):
                continue
            yield self.project_violation(
                facts.path,
                mutation["lineno"],
                f"worker-reachable {fn.qualname} mutates module-level "
                f"{mutation['name']!r} ({mutation['kind']}) — per-process "
                "copies diverge under fork (annotate # repro: worker-state-ok "
                "if deliberate)",
            )
        if not is_root:
            return
        for mutation in fn.param_mutations:
            if _allowlisted(facts, fn, mutation["lineno"]):
                continue
            yield self.project_violation(
                facts.path,
                mutation["lineno"],
                f"worker callable {fn.qualname} mutates argument "
                f"{mutation['name']!r} ({mutation['kind']}) — worker-side "
                "argument mutations never reach the parent process "
                "(annotate # repro: worker-state-ok if deliberate)",
            )
