"""Shared-work caches for grid sweeps.

Many grid points differ only in strategy or attacker placement while
sharing a routing matrix — rank/support structure is the natural cache
key (cf. the identifiability literature: the estimator, the residual
projector, and the detector's blind set are all functions of ``R``
alone).  :class:`FactorizationCache` therefore keys every shared object
by the canonical :func:`repro.obs.manifest.matrix_digest` of ``R``:

- one :class:`~repro.tomography.linear_system.LinearSystem` per distinct
  routing matrix — grid points on the same topology never re-run the SVD;
- one :class:`~repro.attacks.lp.IncrementalLpSolver` per (matrix,
  attacker set, mode) on request (:meth:`FactorizationCache.solver_for`)
  — the sweep runner does not use it (see that method);
- one :class:`~repro.detection.auditor.TomographyAuditor` per (matrix,
  alpha), sharing the system's factors with the detector.

A cache *hit* is a dict get, nothing more: the routing matrix of a
scenario is built once, its digest is hashed once, and both are memoised
per scenario object — repeat lookups re-pay neither the O(paths x links)
matrix assembly nor the O(m·n) canonical hashing (the ``digest_compute``
stat counts exactly how many hashes happened, which white-box tests pin).

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
from repro.tomography.estimator_zoo import resolve_estimator
from repro.scenarios.scenario import Scenario
from repro.tomography.linear_system import LinearSystem

__all__ = ["FactorizationCache"]


class FactorizationCache:
    """Process-local cache of factorisations and LP base blocks.

    All lookups are by value-digest of the routing matrix, never by object
    identity, so two scenarios that happen to produce equal matrices share
    one kernel.  Factorisations live in memory only; ``store`` is kept
    as a keyword for existing callers and accepts nothing but ``None``.
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
        # Per-scenario memo of (scenario, path-set version, routing matrix,
        # system): keyed by object identity, holding a strong reference so
        # an id() can never be recycled under us.  The cache's lifetime is
        # one worker shard, so pinning the scenarios it served is the
        # intended footprint.  The path-set version detects churn: a
        # scenario whose paths mutated after being memoised must not be
        # served its pre-churn matrix or factorization.
        self._scenario_systems: dict[
            int, tuple[Scenario, int, np.ndarray, LinearSystem]
        ] = {}
        self.stats: Counter[str] = Counter()

    def _count(self, kind: str, hit: bool, **fields: object) -> None:
        self.stats[f"{kind}_{'hit' if hit else 'miss'}"] += 1
        if obs.is_enabled():
            obs.event("sweep_cache", kind=kind, hit=hit, **fields)

    # ------------------------------------------------------------------
    # the digest layer (hash each distinct matrix exactly once)
    # ------------------------------------------------------------------
    def _digest(self, routing_matrix: np.ndarray) -> str:
        """Canonical digest of ``routing_matrix``, counted for white-box tests."""
        self.stats["digest_compute"] += 1
        return matrix_digest(routing_matrix)

    # ------------------------------------------------------------------
    # the three cache layers
    # ------------------------------------------------------------------
    def system_for(self, routing_matrix: np.ndarray) -> LinearSystem:
        """The shared :class:`LinearSystem` for this routing matrix."""
        key = self._digest(routing_matrix)
        system = self._systems.get(key)
        if system is None:
            system = LinearSystem(routing_matrix)
            system.__dict__["digest"] = key  # pre-seed the cached_property
            self._systems[key] = system
            self._count("system", False, digest=key)
        else:
            self._count("system", True, digest=key)
        return system

    def scenario_system_for(self, scenario: Scenario) -> LinearSystem:
        """The shared kernel for a scenario, without per-call rework.

        The first lookup builds the routing matrix and hashes it; every
        later lookup for the same scenario object is a dict get.  Distinct
        scenario objects over equal matrices still converge onto one
        kernel (the digest-keyed layer underneath deduplicates them).
        """
        memo = self._scenario_systems.get(id(scenario))
        version = scenario.path_set.version
        if memo is not None and memo[0] is scenario:
            if memo[1] == version:
                self._count("system", True, digest=memo[3].digest)
                return memo[3]
            # The path set churned underneath the memo: the memoised
            # matrix (and the digest-keyed factorization behind it) is
            # pre-churn state.  Evict and rebuild — the fresh matrix
            # hashes to a new digest, so the scenario can never be served
            # the stale factorization again.
            del self._scenario_systems[id(scenario)]
            self.stats["scenario_stale_evict"] += 1
            if obs.is_enabled():
                obs.event(
                    "sweep_cache_stale_evict",
                    stale_digest=memo[3].digest,
                    stale_version=memo[1],
                    version=version,
                )
        routing_matrix = scenario.path_set.routing_matrix()
        system = self.system_for(routing_matrix)
        self._scenario_systems[id(scenario)] = (scenario, version, routing_matrix, system)
        return system

    def context_for(
        self,
        scenario: Scenario,
        attackers: tuple,
        *,
        estimator: str | None = None,
        estimator_params: dict | None = None,
    ) -> AttackContext:
        """An attack context whose kernel comes from the shared cache.

        ``estimator``/``estimator_params`` select the defender's
        inversion family for the context's outcome prediction (None =
        the historical least squares via the ``REPRO_ESTIMATOR`` knob);
        the family is built over the shared kernel, so no extra
        factorisation happens either way.
        """
        system = self.scenario_system_for(scenario)
        built = self._estimator_over(system, estimator, estimator_params)
        return scenario.attack_context(attackers, system=system, estimator=built)

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
            context.system.digest,
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
            self._count("solver", False, digest=key[0])
        else:
            self._count("solver", True, digest=key[0])
        return solver

    def _estimator_over(
        self,
        system: LinearSystem,
        estimator: str | None,
        estimator_params: dict | None,
    ):
        """A shared estimator instance over a cached kernel (None = default).

        Memoised by (kernel digest, name, params digest): the ``l1``
        family keeps a warm-started LP model per instance, so every grid
        point sharing a topology re-uses one model and its basis.
        """
        if estimator is None:
            if estimator_params:
                raise ValidationError(
                    "estimator_params requires an explicit estimator name"
                )
            return None
        key = (
            system.digest,
            estimator,
            config_digest(dict(estimator_params or {})),
        )
        cached = self._estimators.get(key)
        if cached is None:
            cached = resolve_estimator(
                estimator, system=system, **(estimator_params or {})
            )
            self._estimators[key] = cached
            self._count("estimator", False, digest=key[0], estimator=estimator)
        else:
            self._count("estimator", True, digest=key[0], estimator=estimator)
        return cached

    def auditor_for(
        self,
        scenario: Scenario,
        *,
        alpha: float = 200.0,
        estimator: str | None = None,
        estimator_params: dict | None = None,
    ) -> TomographyAuditor:
        """The shared auditor for this scenario's routing matrix.

        The cache key includes the estimator family and its parameter
        digest: audits under different defenders never alias, and the
        historical least-squares key is unchanged when ``estimator`` is
        omitted.
        """
        system = self.scenario_system_for(scenario)
        built = self._estimator_over(system, estimator, estimator_params)
        key = (
            system.digest,
            float(alpha),
            (scenario.thresholds.lower, scenario.thresholds.upper),
            None if built is None else (built.name, built.params_digest),
        )
        auditor = self._auditors.get(key)
        if auditor is None:
            auditor = scenario.auditor(alpha, system=system, estimator=built)
            self._auditors[key] = auditor
            self._count("auditor", False, digest=key[0])
        else:
            self._count("auditor", True, digest=key[0])
        return auditor
