"""Shared-work caches for grid sweeps.

A scenario owns the one factorization of its routing matrix
(:attr:`repro.scenarios.scenario.Scenario.system`, rebuilt when its path
set churns), so grid points on one topology never refactorize it and
this cache holds no kernel of its own for them.  What it shares are the
objects built *over* a scenario's kernel, memoised per kernel object
(identity, not a hash of ``R``):

- one defender estimator per (kernel, family, parameters) — the ``l1``
  family keeps a warm-started LP model per instance;
- one :class:`~repro.detection.auditor.TomographyAuditor` per (kernel,
  alpha, thresholds, estimator), sharing the kernel's factors with its
  detector;
- one :class:`~repro.attacks.lp.IncrementalLpSolver` per (kernel,
  attacker set, mode) on request (:meth:`FactorizationCache.solver_for`)
  — the sweep runner does not use it (see that method).

A churned scenario has a new kernel and so new keys: nothing built over
its pre-churn matrix is served again.  For a bare matrix with no
scenario, :meth:`FactorizationCache.system_for` keeps one kernel per
value digest.

The in-memory layers are process-local by design: worker processes each
hold their own (the sweep runner shards grid points so points sharing a
topology land in the same worker), and nothing here is thread-safe.
Hits and misses are counted on the instance and reported as
``sweep_cache`` obs events when a run log is active.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.attacks.base import AttackContext
from repro.attacks.chosen_victim import build_chosen_victim_bands
from repro.attacks.lp import IncrementalLpSolver
from repro.detection.auditor import TomographyAuditor
from repro.exceptions import ValidationError
from repro.obs import core as obs
from repro.obs.manifest import config_digest, matrix_digest
from repro.scenarios.scenario import Scenario
from repro.tomography.estimator_zoo import resolve_estimator
from repro.tomography.linear_system import LinearSystem

__all__ = ["FactorizationCache"]


class FactorizationCache:
    """Process-local cache of estimators, auditors and LP base blocks.

    Memos are keyed by the :class:`LinearSystem` they are built over —
    a scenario's :attr:`~repro.scenarios.scenario.Scenario.system` —
    never by a digest of ``R``.  Factorisations live in memory only;
    ``store`` is kept as a keyword for existing callers and accepts
    nothing but ``None``.
    """

    def __init__(self, *, store: None = None) -> None:
        if store is not None:
            raise ValidationError(
                "FactorizationCache keeps factorizations in memory only; "
                f"store must be None, got {type(store).__name__}"
            )
        self._systems: dict[str, LinearSystem] = {}
        self._solvers: dict[tuple, IncrementalLpSolver] = {}
        self._auditors: dict[tuple, TomographyAuditor] = {}
        self._estimators: dict[tuple, object] = {}
        self.stats: Counter[str] = Counter()

    def _count(self, kind: str, hit: bool, **fields: object) -> None:
        self.stats[f"{kind}_{'hit' if hit else 'miss'}"] += 1
        if obs.is_enabled():
            obs.event("sweep_cache", kind=kind, hit=hit, **fields)

    def system_for(self, routing_matrix: np.ndarray) -> LinearSystem:
        """One shared :class:`LinearSystem` per value-distinct bare matrix."""
        key = matrix_digest(routing_matrix)
        system = self._systems.get(key)
        if system is None:
            system = self._systems[key] = LinearSystem(routing_matrix)
            self._count("system", False, digest=key)
        else:
            self._count("system", True, digest=key)
        return system

    def scenario_system_for(self, scenario: Scenario) -> LinearSystem:
        """The scenario's own kernel, :attr:`Scenario.system`."""
        return scenario.system

    def context_for(
        self,
        scenario: Scenario,
        attackers: tuple,
        *,
        estimator: str | None = None,
        estimator_params: dict | None = None,
    ) -> AttackContext:
        """An attack context on the scenario's kernel.

        ``estimator``/``estimator_params`` select the defender's
        inversion family for the context's outcome prediction (None =
        the paper's least squares);
        the family is memoised per scenario kernel and built over it, so
        no extra factorisation happens either way.
        """
        built = self._estimator_over(scenario.system, estimator, estimator_params)
        return scenario.attack_context(attackers, estimator=built)

    def solver_for(
        self,
        context: AttackContext,
        *,
        mode: str = "paper",
        confined: bool = False,
        stealthy: bool = False,
    ) -> IncrementalLpSolver:
        """The shared warm LP solver for victim-candidate scans.

        The base block is the empty-victim chosen-victim bands of this
        context (controlled links normal, plus exclusive/confined rows) —
        exactly what :class:`~repro.attacks.max_damage.MaxDamageAttack`
        assembles internally, so it can be handed to its
        ``shared_solver`` parameter directly, and its warm model keeps
        its basis across every scan that shares it.

        The sweep runner does not call this.  Its key holds the attacker
        set, and every grid point draws its own, so a sweep never hits;
        each held solver would only pin its solved HiGHS model (about
        half a megabyte) for the life of the cache.
        """
        key = (
            context.system,
            tuple(sorted(context.controlled_links)),
            mode,
            confined,
            stealthy,
            context.cap,
            context.margin,
            (context.thresholds.lower, context.thresholds.upper),
        )
        solver = self._solvers.get(key)
        if solver is None:
            base_bands = build_chosen_victim_bands(context, (), mode, confined=confined)
            solver = IncrementalLpSolver(
                None,
                context.baseline_estimate,
                context.support,
                context.num_paths,
                base_bands,
                cap=context.cap,
                sub_operator=context.support_operator,
                consistency_columns=(
                    context.residual_projector_support() if stealthy else None
                ),
            )
            self._solvers[key] = solver
            self._count("solver", False)
        else:
            self._count("solver", True)
        return solver

    def _estimator_over(
        self,
        system: LinearSystem,
        estimator: str | None,
        estimator_params: dict | None,
    ):
        """A shared estimator instance over a scenario kernel (None = default).

        Memoised by (kernel, name, params digest): the ``l1`` family
        keeps a warm-started LP model per instance, so every grid point
        sharing a topology re-uses one model and its basis.
        """
        if estimator is None:
            if estimator_params:
                raise ValidationError(
                    "estimator_params requires an explicit estimator name"
                )
            return None
        key = (system, estimator, config_digest(dict(estimator_params or {})))
        cached = self._estimators.get(key)
        if cached is None:
            cached = resolve_estimator(
                estimator, system=system, **(estimator_params or {})
            )
            self._estimators[key] = cached
            self._count("estimator", False, estimator=estimator)
        else:
            self._count("estimator", True, estimator=estimator)
        return cached

    def auditor_for(
        self,
        scenario: Scenario,
        *,
        alpha: float = 200.0,
        estimator: str | None = None,
        estimator_params: dict | None = None,
    ) -> TomographyAuditor:
        """The shared auditor on the scenario's kernel.

        Memoised per scenario kernel, alpha, thresholds and estimator
        family with its parameter digest: audits under different
        defenders never alias.
        """
        system = scenario.system
        built = self._estimator_over(system, estimator, estimator_params)
        key = (
            system,
            float(alpha),
            (scenario.thresholds.lower, scenario.thresholds.upper),
            None if built is None else (built.name, built.params_digest),
        )
        auditor = self._auditors.get(key)
        if auditor is None:
            auditor = scenario.auditor(alpha, estimator=built)
            self._auditors[key] = auditor
            self._count("auditor", False)
        else:
            self._count("auditor", True)
        return auditor
