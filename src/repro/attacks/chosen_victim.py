"""Chosen-victim scapegoating (eq. 4-7 of the paper).

The attacker names a victim link set ``L_s`` in advance and maximises
damage subject to: every attacker-controlled link looks *normal*
(eq. 5), every victim looks *abnormal* (eq. 6), and the sets are disjoint
(eq. 7).

Two constraint modes are provided:

- ``"paper"`` (default) — the literal formulation: only ``L_m`` and
  ``L_s`` are constrained; other links' estimates may drift (and at a
  damage-maximising optimum they often do — that drift is exactly what the
  maximum-damage strategy exploits).
- ``"exclusive"`` — additionally forces every non-victim link to look
  normal, so the victims are the *only* anomaly in the operator's report.
  This reproduces the clean single-scapegoat picture of the paper's
  Fig. 4, at the cost of some damage.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.attacks.base import AttackContext, AttackOutcome
from repro.attacks.lp import BandConstraints, IncrementalLpSolver
from repro.exceptions import AttackConstraintError, ValidationError

__all__ = ["ChosenVictimAttack", "build_chosen_victim_bands"]

_MODES = ("paper", "exclusive")


def build_chosen_victim_bands(
    context: AttackContext,
    victim_links: tuple[int, ...],
    mode: str = "paper",
    *,
    confined: bool = False,
) -> BandConstraints:
    """Translate eq. (5)-(6) into per-link estimate bands.

    Controlled links must fall strictly below ``b_l`` and victims strictly
    above ``b_u``; the context's margin turns the strict inequalities into
    closed LP constraints.

    ``confined=True`` additionally pins every link outside ``L_m ∪ L_s``
    to its true metric (``x_hat_j == x*_j``).  This is the attacker model
    implicit in the paper's Theorem 1/3 proofs ("the attackers do not
    manipulate the metric of link l_j"); the unconfined LP is strictly
    stronger and can sometimes evade the detector where the confined one
    cannot (see the detection benches).
    """
    bands = BandConstraints.unbounded(context.num_links)
    victims = np.zeros(context.num_links, dtype=bool)
    victims[list(victim_links)] = True
    controlled = np.zeros(context.num_links, dtype=bool)
    controlled[list(context.controlled_links)] = True
    normal = controlled | ~victims if mode == "exclusive" else controlled
    bands.upper[normal] = context.thresholds.lower - context.margin
    bands.lower[victims] = context.thresholds.upper + context.margin
    if confined:
        free = ~(victims | controlled)
        value = context.baseline_estimate[free]
        bands.lower[free] = value  # never a victim, so still open
        bands.upper[free] = np.minimum(bands.upper[free], value)
    return bands


class ChosenVictimAttack:
    """Plan a chosen-victim scapegoating attack.

    The LP is solved on the warm HiGHS path
    (:class:`~repro.attacks.lp.IncrementalLpSolver`).

    >>> # doctest-style sketch; see examples/quickstart.py for a full run
    >>> # attack = ChosenVictimAttack(context, victim_links=[9])
    >>> # outcome = attack.run()
    """

    strategy_name = "chosen-victim"

    def __init__(
        self,
        context: AttackContext,
        victim_links: Iterable[int],
        *,
        mode: str = "paper",
        stealthy: bool = False,
        confined: bool = False,
    ) -> None:
        if mode not in _MODES:
            raise ValidationError(f"mode must be one of {_MODES}, got {mode!r}")
        self.context = context
        self.mode = mode
        self.stealthy = stealthy
        self.confined = confined
        victims = tuple(sorted(set(int(v) for v in victim_links)))
        if not victims:
            raise AttackConstraintError("victim link set must not be empty (eq. 11)")
        for v in victims:
            if not 0 <= v < context.num_links:
                raise AttackConstraintError(f"victim link index {v} out of range")
        overlap = set(victims) & set(context.controlled_links)
        if overlap:
            raise AttackConstraintError(
                f"victim links {sorted(overlap)} are attacker-controlled; "
                "L_m and L_s must be disjoint (eq. 7)"
            )
        self.victim_links = victims

    def run(self) -> AttackOutcome:
        """Solve the LP; returns a (possibly infeasible) outcome."""
        bands = build_chosen_victim_bands(
            self.context, self.victim_links, self.mode, confined=self.confined
        )
        try:
            bands.validate()
        except ValidationError as exc:
            return AttackOutcome.infeasible(
                self.strategy_name, f"contradictory bands: {exc}", self.victim_links
            )
        solution = IncrementalLpSolver(
            None,
            self.context.baseline_estimate,
            self.context.support,
            self.context.num_paths,
            bands,
            cap=self.context.cap,
            sub_operator=self.context.support_operator,
            consistency_columns=(
                self.context.residual_projector_support()
                if self.stealthy
                else None
            ),
        ).solve()
        if not solution.feasible or solution.manipulation is None:
            return AttackOutcome.infeasible(
                self.strategy_name, solution.status, self.victim_links
            )
        return AttackOutcome.from_manipulation(
            self.strategy_name,
            self.context,
            solution.manipulation,
            self.victim_links,
            solution.status,
            extras={
                "mode": self.mode,
                "unbounded": solution.unbounded,
                "stealthy": self.stealthy,
                "confined": self.confined,
            },
        )
