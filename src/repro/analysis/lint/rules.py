"""The repo-specific lint rules RP001–RP005.

Each rule enforces an invariant that the shared-SVD kernel, seeded
reproducible experiments and the paper's algebra rely on but that
nothing checked statically before:

- **RP001** — all dense factorisations flow through the one kernel,
  :mod:`repro.tomography.backends` (read through
  :class:`repro.tomography.linear_system.LinearSystem`); no direct
  ``np.linalg.{svd,pinv,lstsq,qr,matrix_rank}`` elsewhere.
- **RP002** — no legacy global-state RNG in ``src/repro``; randomness is
  threaded as explicit :class:`numpy.random.Generator` parameters
  (coerced only by :mod:`repro.utils.rng`).
- **RP003** — no wall-clock or stdlib-``random`` nondeterminism outside
  ``obs/`` (protects seeded reproducibility and ``run_sweep(workers=N)``
  bit-identity).
- **RP004** — no ``assert`` for validation in library code (stripped under
  ``python -O``); raise :mod:`repro.exceptions` types instead.
- **RP005** — no silent broad ``except`` handler: catching ``Exception``
  (or bare ``except``) requires a re-raise or a structured log call.

Suppress a finding on one line with ``# repro: noqa`` (all rules) or
``# repro: noqa RP001,RP003`` (specific rules).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.lint.registry import (
    LintRule,
    ModuleSource,
    Violation,
    register_rule,
)

__all__ = [
    "SharedKernelRule",
    "GeneratorDisciplineRule",
    "NondeterminismRule",
    "NoAssertRule",
    "BroadExceptRule",
]

#: The only module allowed to call numpy's factorisation routines.
_KERNEL_MODULES = ("tomography/backends.py",)
_FACTORIZATIONS = frozenset({"svd", "pinv", "lstsq", "qr", "matrix_rank"})

#: Legacy ``numpy.random`` module-level functions (global RandomState).
_LEGACY_NP_RANDOM = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "random",
        "random_sample",
        "randint",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "exponential",
        "poisson",
        "get_state",
        "set_state",
    }
)

_WALL_CLOCK_TIME = frozenset(
    {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns"}
)
_WALL_CLOCK_DATETIME = frozenset({"now", "utcnow", "today"})


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


@register_rule
class SharedKernelRule(LintRule):
    """RP001: factorisations must flow through the one kernel module.

    A stray ``np.linalg.pinv`` silently reintroduces a redundant dense
    factorisation *and* can disagree with the one rank cutoff
    (``DEFAULT_RANK_TOL`` in :mod:`repro.tomography.backends`), producing
    estimators and residual projectors that are mutually inconsistent.
    """

    rule_id = "RP001"
    summary = (
        "direct np.linalg.{svd,pinv,lstsq,qr,matrix_rank} outside the "
        "LinearSystem kernel (tomography/backends.py)"
    )

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        if module.matches(*_KERNEL_MODULES):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute) and node.attr in _FACTORIZATIONS:
                chain = _attribute_chain(node)
                if chain and len(chain) >= 2 and chain[-2] == "linalg":
                    yield self.violation(
                        module,
                        node,
                        f"direct {'.'.join(chain)} call; route factorisations "
                        "through repro.tomography.linear_system.LinearSystem",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.endswith(".linalg") or node.module == "linalg":
                    banned = [a.name for a in node.names if a.name in _FACTORIZATIONS]
                    if banned:
                        yield self.violation(
                            module,
                            node,
                            f"importing {', '.join(banned)} from {node.module}; "
                            "use the LinearSystem kernel",
                        )


@register_rule
class GeneratorDisciplineRule(LintRule):
    """RP002: RNG state must be an explicit ``np.random.Generator`` parameter.

    The legacy global-state API (``np.random.seed`` / ``np.random.rand`` /
    friends) and module-level ``default_rng()`` singletons make results
    depend on import order and call history — exactly what breaks a
    seeded experiment's reproducibility and the bit-identical
    serial/parallel guarantee of ``run_sweep(workers=N)``.
    Only :mod:`repro.utils.rng` may construct generators from seeds.
    """

    rule_id = "RP002"
    summary = "legacy global numpy RNG or module-level default_rng()"

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        if module.matches("utils/rng.py"):
            return
        in_function = _FunctionScopeIndex(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                chain = _attribute_chain(node)
                if (
                    chain
                    and len(chain) == 3
                    and chain[0] in ("np", "numpy")
                    and chain[1] == "random"
                    and chain[2] in _LEGACY_NP_RANDOM
                ):
                    yield self.violation(
                        module,
                        node,
                        f"legacy global RNG {'.'.join(chain)}; thread an "
                        "explicit np.random.Generator (repro.utils.rng.ensure_rng)",
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module in ("numpy.random", "np.random"):
                    banned = [a.name for a in node.names if a.name in _LEGACY_NP_RANDOM]
                    if banned:
                        yield self.violation(
                            module,
                            node,
                            f"importing legacy RNG {', '.join(banned)} from "
                            "numpy.random; thread an explicit Generator",
                        )
            elif isinstance(node, ast.Call):
                chain = _attribute_chain(node.func)
                if chain and chain[-1] == "default_rng" and not in_function(node):
                    yield self.violation(
                        module,
                        node,
                        "module-level default_rng() creates a hidden shared "
                        "stream; accept a Generator parameter instead",
                    )


class _FunctionScopeIndex:
    """Answers "is this node inside a function/lambda body?" for one tree."""

    def __init__(self, tree: ast.Module) -> None:
        self._inside: set[int] = set()
        for outer in ast.walk(tree):
            if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for inner in ast.walk(outer):
                    if inner is not outer:
                        self._inside.add(id(inner))

    def __call__(self, node: ast.AST) -> bool:
        return id(node) in self._inside


@register_rule
class NondeterminismRule(LintRule):
    """RP003: no wall-clock or stdlib-``random`` reads outside ``obs/``.

    Seeded experiments must repeat exactly, and sweep points run on a
    worker pool must be bit-identical to serial runs; any wall-clock read
    or hidden stdlib RNG in library code makes outputs depend on timing or
    scheduling.  Timing belongs in
    :mod:`repro.obs` (the observability layer stamps its own monotonic
    ``t``; instrumented modules open spans, never read a clock), randomness
    in threaded Generators.
    """

    rule_id = "RP003"
    summary = "wall-clock (time.*/datetime.now) or stdlib random outside obs/"

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        if module.in_directory("obs"):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                chain = _attribute_chain(node)
                if not chain or len(chain) < 2:
                    continue
                if chain[-2] == "time" and chain[-1] in _WALL_CLOCK_TIME:
                    yield self.violation(
                        module,
                        node,
                        f"wall-clock read {'.'.join(chain)}; timing belongs "
                        "in repro.obs",
                    )
                elif "datetime" in chain[:-1] and chain[-1] in _WALL_CLOCK_DATETIME:
                    yield self.violation(
                        module,
                        node,
                        f"wall-clock read {'.'.join(chain)}; pass timestamps "
                        "explicitly",
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        yield self.violation(
                            module,
                            node,
                            "stdlib random module is hidden global state; use "
                            "np.random.Generator parameters",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                yield self.violation(
                    module,
                    node,
                    "stdlib random module is hidden global state; use "
                    "np.random.Generator parameters",
                )


@register_rule
class NoAssertRule(LintRule):
    """RP004: library code must not rely on ``assert`` for invariants.

    ``python -O`` strips asserts, so an assert-guarded invariant silently
    stops being checked in optimised deployments.  Library code raises
    :mod:`repro.exceptions` types instead; tests (not linted here) keep
    using asserts as usual.
    """

    rule_id = "RP004"
    summary = "assert statement in library code (stripped under python -O)"

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        name = module.rel_path.rsplit("/", 1)[-1]
        if name.startswith("test_") or name == "conftest.py":
            return
        if "tests" in module.rel_path.split("/")[:-1]:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assert):
                yield self.violation(
                    module,
                    node,
                    "assert is stripped under python -O; raise a "
                    "repro.exceptions type (e.g. ValidationError) instead",
                )


@register_rule
class BroadExceptRule(LintRule):
    """RP005: broad handlers must re-raise or log with structure.

    ``except Exception: pass`` converts attack-planner and solver failures
    into silent wrong numbers — the exact failure mode the detector
    experiments cannot distinguish from a finding.  Catch specific types,
    or keep the broad net but re-raise / log the exception.
    """

    rule_id = "RP005"
    summary = "broad except without re-raise or structured logging"

    _LOG_METHODS = frozenset(
        {"debug", "info", "warning", "warn", "error", "exception", "critical", "log"}
    )

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if self._handles_responsibly(node):
                continue
            caught = "bare except" if node.type is None else "except Exception"
            yield self.violation(
                module,
                node,
                f"{caught} swallows errors silently; catch specific types, "
                "re-raise (`raise ... from exc`), or log the exception",
            )

    @staticmethod
    def _is_broad(type_node: ast.expr | None) -> bool:
        if type_node is None:
            return True
        candidates: list[ast.expr] = (
            list(type_node.elts) if isinstance(type_node, ast.Tuple) else [type_node]
        )
        for candidate in candidates:
            chain = _attribute_chain(candidate)
            if chain and chain[-1] in ("Exception", "BaseException"):
                return True
        return False

    def _handles_responsibly(self, handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call):
                chain = _attribute_chain(node.func)
                if chain and chain[-1] in self._LOG_METHODS:
                    return True
        return False
