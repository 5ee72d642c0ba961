"""Static analysis and runtime contracts for the ``repro`` codebase.

Two complementary layers keep the library's invariants *enforced* rather
than merely documented:

- :mod:`repro.analysis.lint` — the AST analysis engine behind
  ``repro analyze``.  Its per-file rules (RP001–RP005) encode the
  disciplines introduced by the shared-SVD kernel and the deterministic
  Monte-Carlo plumbing: every factorisation flows through
  :class:`repro.tomography.linear_system.LinearSystem` /
  :mod:`repro.utils.linalg`, RNG state is threaded as explicit
  :class:`numpy.random.Generator` parameters, no wall-clock reads outside
  ``obs/``, no ``assert`` for validation, no silent broad exception
  handlers.  Its whole-program rules (RP006–RP010) check cross-module
  invariants over one parse per file.
- :mod:`repro.analysis.contracts` — lightweight runtime decorators that
  validate the ``y = R x`` algebra at public entry points (0/1 routing
  matrices, Constraint-1 manipulation support, ordered state bands).
  No-ops in production; enabled under pytest via a conftest fixture or
  ``REPRO_CONTRACTS=1``.

Import cost matters for CLI startup, so the analysis engine is not
imported here; the contracts module is tiny and imported by the core
packages.
"""

from __future__ import annotations

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
]
