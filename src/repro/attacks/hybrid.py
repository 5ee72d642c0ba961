"""A hybrid strategy: frame a victim *and* blur the neighbourhood.

Section III closes with "attackers may also develop more sophisticated
strategies based upon these three ones".  This module implements one such
composition: the victim set must look *abnormal* (as in chosen-victim)
while the attacker's own links are pinned to the *uncertain* band rather
than normal (as in obfuscation).  The operator's report then shows one
glaring culprit plus a murky region — a plausible post-incident picture
(congestion spreading around a failure) that draws even less suspicion
than surgically clean attacker links, at the price of admitting the
attacker's links are "somewhat affected".
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.attacks.base import AttackContext, AttackOutcome
from repro.attacks.lp import BandConstraints, IncrementalLpSolver
from repro.exceptions import AttackConstraintError

__all__ = ["FrameAndBlurAttack"]


class FrameAndBlurAttack:
    """Victims abnormal, attacker links uncertain, maximise damage.

    Parameters
    ----------
    context:
        The shared attack context.
    victim_links:
        The scapegoat set ``L_s`` (disjoint from ``L_m``, as always).
    blur_links:
        Additional links to pin into the uncertain band alongside
        ``L_m`` (default: none — only the attacker's links are blurred).
    """

    strategy_name = "frame-and-blur"

    def __init__(
        self,
        context: AttackContext,
        victim_links: Iterable[int],
        *,
        blur_links: Iterable[int] = (),
        stealthy: bool = False,
    ) -> None:
        self.context = context
        self.stealthy = stealthy
        victims = tuple(sorted(set(int(v) for v in victim_links)))
        if not victims:
            raise AttackConstraintError("victim link set must not be empty")
        for v in victims:
            if not 0 <= v < context.num_links:
                raise AttackConstraintError(f"victim link index {v} out of range")
        overlap = set(victims) & set(context.controlled_links)
        if overlap:
            raise AttackConstraintError(
                f"victim links {sorted(overlap)} are attacker-controlled (eq. 7)"
            )
        blur = set(int(b) for b in blur_links)
        if blur & set(victims):
            raise AttackConstraintError("blur links must not overlap the victims")
        self.victim_links = victims
        self.blur_links = tuple(sorted(blur | set(context.controlled_links)))

    def run(self) -> AttackOutcome:
        """Solve the composed LP; returns a (possibly infeasible) outcome."""
        context = self.context
        bands = BandConstraints.unbounded(context.num_links)
        abnormal_bound = context.thresholds.upper + context.margin
        uncertain_lo = context.thresholds.lower + context.margin
        uncertain_hi = context.thresholds.upper - context.margin
        for j in self.victim_links:
            bands.require_at_least(j, abnormal_bound)
        for j in self.blur_links:
            bands.require_at_least(j, uncertain_lo)
            bands.require_at_most(j, uncertain_hi)
        solution = IncrementalLpSolver(
            None,
            context.baseline_estimate,
            context.support,
            context.num_paths,
            bands,
            cap=context.cap,
            sub_operator=context.support_operator,
            consistency_columns=(
                context.residual_projector_support() if self.stealthy else None
            ),
        ).solve()
        if not solution.feasible or solution.manipulation is None:
            return AttackOutcome.infeasible(
                self.strategy_name, solution.status, self.victim_links
            )
        return AttackOutcome.from_manipulation(
            self.strategy_name,
            context,
            solution.manipulation,
            self.victim_links,
            solution.status,
            extras={
                "blur_links": list(self.blur_links),
                "stealthy": self.stealthy,
                "unbounded": solution.unbounded,
            },
        )
