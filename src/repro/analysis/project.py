"""Shared project model for the whole-program analyzer.

One pass over the tree parses every module once and distils it into
:class:`ModuleFacts` — imports (with scope), function and class bodies
(calls, global writes, mutations), obs-event emissions, pool dispatch
sites, and noqa and allowlist markers.  The whole-program rules (RP006
and RP008–RP010) consume only these facts, never raw ASTs, and the
per-file rules share the same parse.

Module identity is filesystem-derived: a file belongs to the dotted
module spelled by its chain of ``__init__.py``-bearing parent
directories, so ``src/repro/obs/core.py`` is ``repro.obs.core`` no
matter which root the analyzer was pointed at.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = [
    "FunctionFacts",
    "ModuleFacts",
    "ProjectModel",
    "extract_facts",
    "module_name_of",
]

#: Methods whose call on a name counts as mutating that object in place.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "remove",
        "discard",
        "sort",
        "reverse",
    }
)

#: The pool dispatch entry points whose callable arguments run in workers.
_DISPATCH_CALLEES = frozenset({"run_trials", "run_batched_trials", "iter_map_chunks"})

#: obs emission APIs catalogued by the schema pass (literal first argument).
_OBS_APIS = frozenset({"event", "counter", "gauge", "span"})


def _attribute_chain(node: ast.AST) -> list[str] | None:
    """``a.b.c`` -> ``["a", "b", "c"]``; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


@dataclass
class FunctionFacts:
    """Distilled body of one function or method."""

    qualname: str
    name: str
    lineno: int
    params: list[str] = field(default_factory=list)
    calls: list[str] = field(default_factory=list)
    global_writes: list[dict[str, Any]] = field(default_factory=list)
    module_mutations: list[dict[str, Any]] = field(default_factory=list)
    param_mutations: list[dict[str, Any]] = field(default_factory=list)
    partial_binds: dict[str, str] = field(default_factory=dict)
    nested_defs: list[str] = field(default_factory=list)


@dataclass
class ModuleFacts:
    """Everything the whole-program passes need to know about one file."""

    path: str
    rel_path: str
    module: str | None
    imports: list[dict[str, Any]] = field(default_factory=list)
    functions: list[FunctionFacts] = field(default_factory=list)
    classes: list[dict[str, Any]] = field(default_factory=list)
    module_level_names: list[str] = field(default_factory=list)
    all_exports: list[str] = field(default_factory=list)
    public_defs: list[dict[str, Any]] = field(default_factory=list)
    name_refs: list[str] = field(default_factory=list)
    obs_emits: list[dict[str, Any]] = field(default_factory=list)
    dispatch_sites: list[dict[str, Any]] = field(default_factory=list)
    noqa: dict[int, list[str] | None] = field(default_factory=dict)
    markers: dict[int, list[str]] = field(default_factory=dict)

    def sub_module(self, root: str) -> str | None:
        """The dotted path under ``root`` ('' for the root package itself)."""
        if self.module is None:
            return None
        if self.module == root:
            return ""
        prefix = root + "."
        if self.module.startswith(prefix):
            return self.module[len(prefix) :]
        return None

    def function_index(self) -> dict[str, FunctionFacts]:
        """All functions and methods keyed by qualname."""
        index = {fn.qualname: fn for fn in self.functions}
        for cls in self.classes:
            for method in cls["methods"]:
                index[method.qualname] = method
        return index


def module_name_of(path: Path) -> str | None:
    """The dotted module name implied by ``__init__.py`` package chains."""
    resolved = path.resolve()
    parts: list[str] = []
    if resolved.name == "__init__.py":
        current = resolved.parent
    else:
        parts.append(resolved.stem)
        current = resolved.parent
    while (current / "__init__.py").exists():
        parts.append(current.name)
        current = current.parent
    if not parts:
        return None
    parts.reverse()
    return ".".join(parts) if len(parts) > 1 or resolved.name == "__init__.py" else parts[0]


class _Extractor(ast.NodeVisitor):
    """One-walk facts extractor (function stack tracked explicitly)."""

    def __init__(self, facts: ModuleFacts) -> None:
        self.facts = facts
        self._function_stack: list[FunctionFacts] = []
        self._class_stack: list[dict[str, Any]] = []
        self._local_names: set[str] = set()

    # -- helpers ----------------------------------------------------------

    def _scope(self) -> str:
        return "function" if self._function_stack else "module"

    def _current(self) -> FunctionFacts | None:
        return self._function_stack[-1] if self._function_stack else None

    def _qualname(self) -> str | None:
        """The enclosing function's dotted name (None outside any)."""
        if not self._function_stack:
            return None
        outer, *inner = self._function_stack
        return ".".join([outer.qualname, *(fn.name for fn in inner)])

    # -- imports ----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.facts.imports.append(
                {
                    "kind": "import",
                    "module": alias.name,
                    "alias": alias.asname or alias.name.split(".")[0],
                    "lineno": node.lineno,
                    "scope": self._scope(),
                }
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if node.level and self.facts.module:
            parts = self.facts.module.split(".")
            base = parts[: len(parts) - node.level] if len(parts) >= node.level else []
            module = ".".join(base + ([module] if module else []))
        for alias in node.names:
            self.facts.imports.append(
                {
                    "kind": "from",
                    "module": module,
                    "name": alias.name,
                    "alias": alias.asname or alias.name,
                    "lineno": node.lineno,
                    "scope": self._scope(),
                }
            )
            self.facts.name_refs.append(alias.name)
        self.generic_visit(node)

    # -- definitions -------------------------------------------------------

    def _enter_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        prefix = ".".join(c["name"] for c in self._class_stack)
        qualname = f"{prefix}.{node.name}" if prefix else node.name
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if args.vararg:
            params.append(args.vararg.arg)
        if args.kwarg:
            params.append(args.kwarg.arg)
        fn = FunctionFacts(
            qualname=qualname, name=node.name, lineno=node.lineno, params=params
        )
        if self._function_stack:
            self._function_stack[-1].nested_defs.append(node.name)
        if self._class_stack and not self._function_stack:
            self._class_stack[-1]["methods"].append(fn)
        elif not self._function_stack:
            self.facts.functions.append(fn)
            if not node.name.startswith("_"):
                self.facts.public_defs.append(
                    {
                        "name": node.name,
                        "kind": "function",
                        "lineno": node.lineno,
                        "decorated": bool(node.decorator_list),
                    }
                )
        self._function_stack.append(fn)
        for child in node.body:
            self.visit(child)
        for decorator in node.decorator_list:
            self.visit(decorator)
        self._function_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        bases = []
        for base in node.bases:
            chain = _attribute_chain(base)
            if chain:
                bases.append(".".join(chain))
        entry: dict[str, Any] = {
            "name": node.name,
            "bases": bases,
            "lineno": node.lineno,
            "methods": [],
        }
        # Base classes, keyword bases, and decorators are uses of names.
        for expression in list(node.bases) + [kw.value for kw in node.keywords]:
            self.visit(expression)
        for decorator in node.decorator_list:
            self.visit(decorator)
        if not self._class_stack and not self._function_stack:
            self.facts.classes.append(entry)
            if not node.name.startswith("_"):
                self.facts.public_defs.append(
                    {
                        "name": node.name,
                        "kind": "class",
                        "lineno": node.lineno,
                        "decorated": bool(node.decorator_list),
                    }
                )
            self._class_stack.append(entry)
            for child in node.body:
                self.visit(child)
            self._class_stack.pop()
        else:
            self.generic_visit(node)

    # -- statements --------------------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        fn = self._current()
        if fn is not None:
            for name in node.names:
                fn.global_writes.append(
                    {"name": name, "lineno": node.lineno, "kind": "global-decl"}
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        if not self._function_stack and not self._class_stack:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.facts.module_level_names.append(target.id)
                    if target.id == "__all__" and isinstance(
                        node.value, (ast.List, ast.Tuple)
                    ):
                        for element in node.value.elts:
                            if isinstance(element, ast.Constant) and isinstance(
                                element.value, str
                            ):
                                self.facts.all_exports.append(element.value)
        fn = self._current()
        if fn is not None and isinstance(node.value, ast.Call):
            inner = _attribute_chain(node.value.func)
            if inner and inner[-1] == "partial" and node.value.args:
                first = node.value.args[0]
                if isinstance(first, ast.Name):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            fn.partial_binds[target.id] = first.id
        self._record_write_targets(node.targets, node.lineno)
        self.visit(node.value)
        for target in node.targets:
            self.visit(target)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if (
            not self._function_stack
            and not self._class_stack
            and isinstance(node.target, ast.Name)
        ):
            self.facts.module_level_names.append(node.target.id)
        self._record_write_targets([node.target], node.lineno)
        if node.value is not None:
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_write_targets([node.target], node.lineno, aug=True)
        self.visit(node.value)
        self.visit(node.target)

    def _record_write_targets(
        self, targets: list[ast.expr], lineno: int, *, aug: bool = False
    ) -> None:
        fn = self._current()
        if fn is None:
            return
        for target in targets:
            if isinstance(target, ast.Name) and aug:
                # ``x += 1`` on a global-declared name is a write; plain
                # assignment to a bare name creates a local otherwise.
                continue
            base: ast.expr = target
            kind = "assign"
            if isinstance(target, ast.Subscript):
                base, kind = target.value, "subscript-assign"
            elif isinstance(target, ast.Attribute):
                base, kind = target.value, "attribute-assign"
            else:
                continue
            if not isinstance(base, ast.Name):
                continue
            name = base.id
            if name in fn.params:
                if name not in ("self", "cls"):
                    fn.param_mutations.append(
                        {"name": name, "lineno": lineno, "kind": kind}
                    )
            else:
                fn.module_mutations.append(
                    {"name": name, "lineno": lineno, "kind": kind}
                )

    # -- expressions -------------------------------------------------------

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.facts.name_refs.append(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self.facts.name_refs.append(node.attr)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        chain = _attribute_chain(node.func)
        dotted = ".".join(chain) if chain else None
        fn = self._current()
        if fn is not None and dotted is not None:
            fn.calls.append(dotted)
            # A mutating method on a bare name: record as mutation.
            if len(chain or []) == 2 and chain is not None:
                owner, method = chain
                if method in _MUTATING_METHODS:
                    if owner in fn.params and owner not in ("self", "cls"):
                        fn.param_mutations.append(
                            {
                                "name": owner,
                                "lineno": node.lineno,
                                "kind": f"call:{method}",
                            }
                        )
                    else:
                        fn.module_mutations.append(
                            {
                                "name": owner,
                                "lineno": node.lineno,
                                "kind": f"call:{method}",
                            }
                        )
            # Names passed as arguments may be called later (callbacks).
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(arg, ast.Name):
                    fn.calls.append(arg.id)
        self._record_obs_emit(node, chain)
        self._record_dispatch(node, chain)
        self.generic_visit(node)

    def _record_obs_emit(self, node: ast.Call, chain: list[str] | None) -> None:
        if not chain or len(chain) < 2:
            return
        owner, api = chain[-2], chain[-1]
        if api not in _OBS_APIS or owner not in ("obs", "log", "obs_core"):
            return
        name = None
        if node.args and isinstance(node.args[0], ast.Constant):
            if isinstance(node.args[0].value, str):
                name = node.args[0].value
        self.facts.obs_emits.append(
            {"api": api, "name": name, "function": self._qualname()}
        )

    def _record_dispatch(self, node: ast.Call, chain: list[str] | None) -> None:
        callee = chain[-1] if chain else None
        if callee not in _DISPATCH_CALLEES:
            return
        # The worker callable is the first Callable positional argument:
        # run_trials(n, trial), run_batched_trials(n, draw, batch),
        # iter_map_chunks(chunk_fn, chunks).
        candidates: list[ast.expr] = []
        if callee == "iter_map_chunks" and node.args:
            candidates = [node.args[0]]
        elif callee == "run_trials" and len(node.args) >= 2:
            candidates = [node.args[1]]
        elif callee == "run_batched_trials" and len(node.args) >= 3:
            candidates = [node.args[1], node.args[2]]
        has_workers = any(kw.arg == "workers" for kw in node.keywords)
        for candidate in candidates:
            target: str | None = None
            target_kind = "other"
            if isinstance(candidate, ast.Name):
                target, target_kind = candidate.id, "name"
            elif isinstance(candidate, ast.Lambda):
                target_kind = "lambda"
            elif isinstance(candidate, ast.Call):
                inner = _attribute_chain(candidate.func)
                if inner and inner[-1] == "partial" and candidate.args:
                    first = candidate.args[0]
                    if isinstance(first, ast.Name):
                        target, target_kind = first.id, "partial"
            current = self._current()
            self.facts.dispatch_sites.append(
                {
                    "callee": callee,
                    "target": target,
                    "target_kind": target_kind,
                    "workers": has_workers,
                    "lineno": node.lineno,
                    "in_function": current.qualname if current is not None else None,
                }
            )


def _scan_comments(source_lines: list[str], facts: ModuleFacts) -> None:
    """Record per-line noqa suppressions and ``# repro: <marker>`` tags."""
    from repro.analysis.lint.engine import noqa_rules_for_line

    for lineno, line in enumerate(source_lines, start=1):
        if "repro:" not in line.lower():
            continue
        spec = noqa_rules_for_line(line)
        if spec is not None:
            facts.noqa[lineno] = sorted(spec) if spec else None
        marker_index = line.find("# repro:")
        if marker_index >= 0:
            tail = line[marker_index + len("# repro:") :].strip()
            if tail and not tail.lower().startswith("noqa"):
                facts.markers.setdefault(lineno, []).append(tail.split()[0])


def extract_facts(
    path: Path,
    *,
    rel_path: str,
    source: str | None = None,
    tree: ast.Module | None = None,
) -> ModuleFacts:
    """Parse one file and distil it into :class:`ModuleFacts`.

    ``source``/``tree`` let a caller that already read or parsed the file
    (the analyze engine shares one parse with the per-file rules) skip
    the redundant work.
    """
    text = source if source is not None else path.read_text(encoding="utf-8")
    facts = ModuleFacts(
        path=str(path),
        rel_path=rel_path,
        module=module_name_of(path),
    )
    if tree is None:
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError:
            return facts  # an unparsable file contributes no facts
    extractor = _Extractor(facts)
    for node in tree.body:
        extractor.visit(node)
    _scan_comments(text.splitlines(), facts)
    return facts


@dataclass
class ProjectModel:
    """The assembled whole-program view handed to project rules."""

    files: list[ModuleFacts]
    root_package: str = "repro"
    layers_path: Path | None = None

    def __post_init__(self) -> None:
        self.by_module: dict[str, ModuleFacts] = {}
        for facts in self.files:
            if facts.module is not None and facts.module not in self.by_module:
                self.by_module[facts.module] = facts

    def package_files(self) -> list[ModuleFacts]:
        """Facts of modules inside the root package, sorted by module name."""
        return sorted(
            (f for f in self.files if f.sub_module(self.root_package) is not None),
            key=lambda f: f.module or "",
        )
