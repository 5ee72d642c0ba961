"""Static analysis and runtime contracts for the ``repro`` codebase.

Two complementary layers keep the library's invariants *enforced* rather
than merely documented:

- :mod:`repro.analysis.lint` — an AST-based lint engine with repo-specific
  rules (RP001–RP005).  They encode the disciplines introduced by the
  shared-SVD kernel and the deterministic Monte-Carlo plumbing: every
  factorisation flows through :class:`repro.tomography.linear_system.LinearSystem`
  / :mod:`repro.utils.linalg`, RNG state is threaded as explicit
  :class:`numpy.random.Generator` parameters, no wall-clock reads outside
  ``obs/``, no ``assert`` for validation, no silent broad exception
  handlers.  Exposed on the CLI as ``repro lint``.
- :mod:`repro.analysis.contracts` — lightweight runtime decorators that
  validate the ``y = R x`` algebra at public entry points (0/1 routing
  matrices, Constraint-1 manipulation support, ordered state bands).
  No-ops in production; enabled under pytest via a conftest fixture or
  ``REPRO_CONTRACTS=1``.

Import cost matters for CLI startup, so the lint engine is imported
lazily; the contracts module is tiny and imported by the core packages.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Iterable
    from pathlib import Path

    from repro.analysis.lint import Violation

from repro.analysis.contracts import (
    ContractViolation,
    contract,
    contracts_enabled,
    disable_contracts,
    enable_contracts,
)

__all__ = [
    "ContractViolation",
    "contract",
    "contracts_enabled",
    "disable_contracts",
    "enable_contracts",
    "run_lint",
]


def run_lint(
    paths: Iterable[str | Path], *, select: Iterable[str] | None = None
) -> list[Violation]:
    """Lint ``paths`` and return the list of violations (lazy import)."""
    from repro.analysis.lint import lint_paths

    return lint_paths(paths, select=select)
