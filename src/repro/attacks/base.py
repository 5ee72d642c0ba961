"""Shared attack context and outcome types.

:class:`AttackContext` bundles everything every strategy needs — the path
set, ground-truth metrics, thresholds, attacker nodes, per-path cap and
band margin — and caches the derived objects (routing matrix, support
rows, controlled link set, and the support columns of ``R⁺`` and of
``I - R R⁺``).  Every quantity of ``R`` comes from the context's one
:class:`~repro.tomography.linear_system.LinearSystem`, ``context.system``.
Strategies consume a context and produce an :class:`AttackOutcome`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.attacks.constraints import (
    attacker_links,
    manipulable_paths,
    validate_manipulation_vector,
)
from repro.exceptions import AttackConstraintError, ValidationError
from repro.metrics.states import StateThresholds
from repro.routing.paths import PathSet
from repro.tomography.diagnosis import DiagnosisReport, diagnose
from repro.tomography.estimator_zoo import resolve_estimator
from repro.tomography.linear_system import LinearSystem
from repro.topology.graph import NodeId
from repro.utils.validation import check_finite_vector

__all__ = ["AttackContext", "AttackOutcome"]


class AttackContext:
    """Everything a scapegoating strategy needs to plan.

    Parameters
    ----------
    path_set:
        The monitors' measurement paths (public knowledge the attacker has
        obtained; Section VI discusses hiding it as a first line of
        defence).
    true_metrics:
        Ground-truth link metrics ``x*`` (routine performance).
    attacker_nodes:
        The malicious node set ``V_m``.
    thresholds:
        The operator's link-state bounds ``(b_l, b_u)``.
    cap:
        Per-path manipulation cap (paper: 2000 ms); ``None`` = unlimited.
    margin:
        Safety margin pushed inside each strict band (Definition 1 uses
        strict inequalities; the LP needs closed ones).
    system:
        Optional pre-factorised :class:`LinearSystem` over this path set's
        routing matrix.  A scenario passes its one kernel into every
        context over its path set, so the factorization runs once per
        path-set version.  The system must be built over the path set's
        own matrix (:meth:`LinearSystem.matches`, which never densifies a
        sparse system), or a :class:`ValidationError` is raised.
    estimator:
        The *defender's* inversion family — a zoo name, a built
        :class:`~repro.tomography.estimator_zoo.Estimator`, or None for
        the paper's least squares (``ls``).  Only
        :meth:`predicted_estimate` (what the operator will conclude)
        routes through it; attack *planning* stays on the linear
        least-squares operator — Constraint 2's bands are linear in the
        manipulation only under eq. (2), which is exactly the knowledge
        the paper's attacker exploits.
    """

    def __init__(
        self,
        path_set: PathSet,
        true_metrics: np.ndarray,
        attacker_nodes: Iterable[NodeId],
        *,
        thresholds: StateThresholds | None = None,
        cap: float | None = 2000.0,
        margin: float = 1.0,
        system: LinearSystem | None = None,
        estimator=None,
    ) -> None:
        self.path_set = path_set
        self.topology = path_set.topology
        self.true_metrics = check_finite_vector(
            true_metrics, "true_metrics", length=self.topology.num_links
        )
        self.attacker_nodes = tuple(dict.fromkeys(attacker_nodes))
        if not self.attacker_nodes:
            raise AttackConstraintError("attacker node set must not be empty")
        self.thresholds = thresholds if thresholds is not None else StateThresholds()
        if margin < 0:
            raise ValidationError(f"margin must be non-negative, got {margin}")
        self.cap = cap
        self.margin = float(margin)

        self.routing_matrix = path_set.routing_matrix()
        #: Shared kernel: one factorisation of ``R`` backs the estimator
        #: columns, the residual projector columns, and any rank query.
        matrix = self.routing_matrix
        if system is not None:
            if not system.matches(matrix):
                raise ValidationError(
                    "injected LinearSystem does not match this path set's "
                    "routing matrix"
                )
            self.system = system
        else:
            self.system = LinearSystem(matrix)
        if estimator is None or isinstance(estimator, str):
            self.estimator = resolve_estimator(estimator, system=self.system)
        else:
            est_system = getattr(estimator, "system", None)
            if est_system is None or not est_system.matches(matrix):
                raise ValidationError(
                    "injected estimator is not built over this path set's "
                    "routing matrix"
                )
            self.estimator = estimator
        self._honest_measurements: np.ndarray | None = None
        self._baseline_estimate: np.ndarray | None = None
        self._support_operator: np.ndarray | None = None
        self._residual_projector_support: np.ndarray | None = None
        self.controlled_links: frozenset[int] = frozenset(
            attacker_links(self.topology, self.attacker_nodes)
        )
        self.support: tuple[int, ...] = tuple(
            manipulable_paths(path_set, self.attacker_nodes)
        )

    @property
    def support_operator(self) -> np.ndarray:
        """``R⁺[:, support]`` (|L| x k) — the columns an attacker can drive.

        Constraint 1 restricts manipulations to the attacker's paths, so
        every LP block is assembled from these columns alone.  Computed
        once via :meth:`LinearSystem.estimator_columns` (a batched
        matrix-free solve on the sparse backend).
        """
        if self._support_operator is None:
            # Sorted-unique order — the convention the LP layer's
            # ``_checked_support`` normalises to, so the columns line up.
            cols = np.asarray(sorted(set(self.support)), dtype=int)
            self._support_operator = self.system.estimator_columns(cols)
        return self._support_operator

    @property
    def baseline_estimate(self) -> np.ndarray:
        """What tomography estimates *without* any attack.

        Equals the true metrics when R has full column rank; under partial
        identifiability the min-norm estimator mixes links, and attack
        planning must anchor its bands to this baseline, not to x*.
        """
        if self._baseline_estimate is None:
            self._baseline_estimate = self.system.estimate(self.honest_measurements())
        return self._baseline_estimate

    @property
    def num_paths(self) -> int:
        """Number of measurement paths (rows of ``R``)."""
        return self.routing_matrix.shape[0]

    @property
    def num_links(self) -> int:
        """Number of links (columns of ``R``)."""
        return self.routing_matrix.shape[1]

    def honest_measurements(self) -> np.ndarray:
        """The noiseless honest vector ``y = R x*`` (computed once).

        Trial loops call :meth:`observed_measurements` per manipulation;
        caching ``R x*`` here keeps that per-call cost at one vector add.
        """
        if self._honest_measurements is None:
            self._honest_measurements = self.routing_matrix @ self.true_metrics
        return self._honest_measurements

    def observed_measurements(self, manipulation: np.ndarray) -> np.ndarray:
        """``y' = y + m`` (eq. 3).

        ``m`` must obey Constraint 1: finite, non-negative and zero on
        every path without an attacker, each to within 1e-9
        (:func:`~repro.attacks.constraints.validate_manipulation_vector`);
        otherwise :class:`~repro.exceptions.AttackConstraintError`.  The
        per-path cap is not checked here: an LP vertex may exceed it by
        the solver's tolerance.
        """
        m = validate_manipulation_vector(manipulation, self.support, self.num_paths)
        return self.honest_measurements() + m

    def predicted_estimate(self, manipulation: np.ndarray) -> np.ndarray:
        """What tomography will estimate under the manipulation.

        Routed through the context's defender estimator.  Under the
        default least squares this is ``x_hat = Q y' = Q R x* + Q m`` —
        equals ``x* + Q m`` when ``R`` has full column rank.  Under a
        non-LS defender this is the honest answer to "did the planned
        attack actually land": the plan was optimised against eq. (2),
        the outcome is judged by what the operator really runs.
        """
        return self.estimator.estimate(self.observed_measurements(manipulation))

    def residual_projector_support(self) -> np.ndarray:
        """``(I - R R⁺)[:, support]`` — the only projector columns a
        Constraint-1 manipulation can excite.

        Manipulations ``m`` with ``(I - R R⁺) m = 0`` keep the forged
        measurements inside the column space of ``R`` — zero residual in
        eq. (23), hence undetectable.  Matrix-free on the sparse backend;
        stealthy LPs consume this block directly.  Computed once per
        context — stealthy candidate scans and repeated attack runs reuse
        the same block.
        """
        if self._residual_projector_support is None:
            self._residual_projector_support = self.system.residual_projector_columns(
                np.asarray(sorted(set(self.support)), dtype=int)
            )
        return self._residual_projector_support

    def manipulable_link_mask(self, tol: float = 1e-9) -> np.ndarray:
        """Boolean mask of links whose estimate the attacker can *raise*.

        Link ``j`` is upward-manipulable when some supported path has a
        positive coefficient in ``Q[j]`` — pushing delay there inflates the
        estimate.  Victim candidates outside this mask can never be made
        to look abnormal.
        """
        mask = np.zeros(self.num_links, dtype=bool)
        if self.support:
            mask = np.max(self.support_operator, axis=1) > tol
        return mask


@dataclass(frozen=True)
class AttackOutcome:
    """Result of running one attack strategy.

    Attributes
    ----------
    strategy:
        Strategy name (``"chosen-victim"``, ``"max-damage"``,
        ``"obfuscation"``, ``"naive"``).
    feasible:
        The paper's success criterion — a feasible manipulation exists.
    manipulation:
        The chosen vector ``m`` (None when infeasible).
    damage:
        ``||m||_1`` (Definition 2); 0.0 when infeasible.
    victim_links:
        The scapegoat set ``L_s`` (chosen or discovered).
    predicted_estimate:
        The estimate tomography will produce under ``m``.
    diagnosis:
        The operator's resulting :class:`DiagnosisReport`.
    observed_measurements:
        The forged measurement vector ``y'``.
    status:
        Solver / search detail for logs.
    extras:
        Strategy-specific annotations (e.g. the per-victim search trace of
        max-damage).
    """

    strategy: str
    feasible: bool
    manipulation: np.ndarray | None
    damage: float
    victim_links: tuple[int, ...]
    predicted_estimate: np.ndarray | None
    diagnosis: DiagnosisReport | None
    observed_measurements: np.ndarray | None
    status: str
    extras: dict = field(default_factory=dict)

    @property
    def mean_path_measurement(self) -> float:
        """Average observed end-to-end measurement (the Figs. 4-5 statistic)."""
        if self.observed_measurements is None:
            return float("nan")
        return float(np.mean(self.observed_measurements))

    @classmethod
    def infeasible(cls, strategy: str, status: str, victim_links: tuple[int, ...] = ()) -> "AttackOutcome":
        """A failed attack with uniform empty fields."""
        return cls(
            strategy=strategy,
            feasible=False,
            manipulation=None,
            damage=0.0,
            victim_links=victim_links,
            predicted_estimate=None,
            diagnosis=None,
            observed_measurements=None,
            status=status,
        )

    @classmethod
    def from_manipulation(
        cls,
        strategy: str,
        context: AttackContext,
        manipulation: np.ndarray,
        victim_links: tuple[int, ...],
        status: str,
        extras: dict | None = None,
    ) -> "AttackOutcome":
        """Build a successful outcome, deriving estimate and diagnosis.

        ``y'`` is built and validated once; the estimate is what
        :meth:`AttackContext.predicted_estimate` returns for it.
        """
        observed = context.observed_measurements(manipulation)
        estimate = context.estimator.estimate(observed)
        return cls(
            strategy=strategy,
            feasible=True,
            manipulation=manipulation,
            damage=float(np.sum(manipulation)),
            victim_links=tuple(sorted(victim_links)),
            predicted_estimate=estimate,
            diagnosis=diagnose(estimate, context.thresholds),
            observed_measurements=observed,
            status=status,
            extras=extras or {},
        )
