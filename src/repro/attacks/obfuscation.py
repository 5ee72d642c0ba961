"""Obfuscation attacks (eq. 9-11 of the paper).

Instead of framing a specific victim, the attacker blurs the operator's
picture: every link in ``L_o = L_s ∪ L_m`` must land in the *uncertain*
band ``[b_l, b_u]`` — no clean outlier to repair, no clean bill of health
either.  The paper's experiments count an obfuscation successful when at
least 5 victim links show uncertain (Section V-C2); ``min_victims``
captures that.

The victim set is discovered greedily: candidates (non-controlled links the
attacker can push upward) are ranked by manipulability and added one at a
time, keeping each addition only if the LP stays feasible.  Because adding
a link only adds constraints, accepted prefixes remain feasible — the
greedy scan never needs backtracking.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.attacks.base import AttackContext, AttackOutcome
from repro.attacks.lp import BandConstraints, IncrementalLpSolver
from repro.exceptions import AttackError, ValidationError

__all__ = ["ObfuscationAttack", "build_obfuscation_bands"]

#: Candidate strengths at most this far apart are tied, and a tie goes to
#: the lower link index (docs/THEORY.md, "Obfuscation ties").
STRENGTH_TIE_ATOL = 1e-9


def build_obfuscation_bands(
    context: AttackContext,
    obfuscated_links: Iterable[int],
    *,
    mode: str = "paper",
    confined: bool = False,
) -> BandConstraints:
    """Bands for eq. (10): every link in ``L_o`` must look uncertain.

    ``mode="exclusive"`` additionally requires every link outside ``L_o``
    to look *normal* — the operator's report then shows exactly the
    obfuscated set as murky and nothing else drifting abnormal.
    ``confined=True`` pins every link outside ``L_o`` to its true metric —
    the attacker model of the paper's proofs (see
    :func:`repro.attacks.chosen_victim.build_chosen_victim_bands`).
    """
    bands = BandConstraints.unbounded(context.num_links)
    lower = context.thresholds.lower + context.margin
    upper = context.thresholds.upper - context.margin
    target = set(obfuscated_links)
    for j in target:
        bands.require_at_least(j, lower)
        bands.require_at_most(j, upper)
    if mode == "exclusive":
        normal_bound = context.thresholds.lower - context.margin
        for j in range(context.num_links):
            if j not in target:
                bands.require_at_most(j, normal_bound)
    if confined:
        for j in range(context.num_links):
            if j not in target:
                value = float(context.baseline_estimate[j])
                bands.require_at_least(j, value)
                bands.require_at_most(j, value)
    return bands


def _rank_by_strength(candidates: list[int], strength: np.ndarray) -> tuple[int, ...]:
    """``candidates`` strongest first; a tie goes to the lower link index.

    Sorted descending, the strengths split into tie groups wherever two
    neighbours differ by more than :data:`STRENGTH_TIE_ATOL`, so roundoff
    (the dense SVD and the sparse Gram solve disagree in the last bits)
    cannot reorder candidates that are equal in exact arithmetic.
    """
    if not candidates:
        return ()
    links = np.asarray(candidates, dtype=int)
    order = np.argsort(-strength, kind="stable")
    group = np.cumsum(np.r_[0.0, -np.diff(strength[order])] > STRENGTH_TIE_ATOL)
    return tuple(int(j) for j in links[order][np.lexsort((links[order], group))])


class ObfuscationAttack:
    """Plan an obfuscation attack.

    Parameters
    ----------
    context:
        Shared attack context.
    min_victims:
        Minimum ``|L_s|`` for the attack to count as successful (paper
        experiments: 5).
    max_victims:
        Stop growing ``L_s`` at this size (default: no limit — obfuscate as
        much as possible).  Experiments set it to ``min_victims`` for speed
        since success is already decided there.
    candidate_links:
        Restrict the victim candidates (default: upward-manipulable,
        non-controlled links).  The greedy scan shares one
        :class:`~repro.attacks.lp.IncrementalLpSolver` whose base block
        carries the controlled links' uncertain bands; each trial edits
        only the candidate victims' row bounds and warm-starts from the
        previous trial's basis.
    presolve:
        Enable the Constraint-1 presolve pruner on trial candidates
        (default True).
    """

    strategy_name = "obfuscation"

    def __init__(
        self,
        context: AttackContext,
        *,
        min_victims: int = 5,
        max_victims: int | None = None,
        candidate_links: Iterable[int] | None = None,
        mode: str = "paper",
        stealthy: bool = False,
        confined: bool = False,
        presolve: bool = True,
    ) -> None:
        if mode not in ("paper", "exclusive"):
            raise ValidationError(f"mode must be 'paper' or 'exclusive', got {mode!r}")
        self.mode = mode
        if min_victims < 1:
            raise ValidationError(f"min_victims must be >= 1 (eq. 11), got {min_victims}")
        if max_victims is not None and max_victims < min_victims:
            raise ValidationError(
                f"max_victims={max_victims} must be >= min_victims={min_victims}"
            )
        self.context = context
        self.min_victims = min_victims
        self.max_victims = max_victims
        self.stealthy = stealthy
        self.confined = confined
        self.presolve = bool(presolve)
        self._solver: IncrementalLpSolver | None = None
        if candidate_links is None:
            mask = context.manipulable_link_mask()
            candidates = [
                j
                for j in range(context.num_links)
                if mask[j] and j not in context.controlled_links
            ]
        else:
            candidates = sorted(set(int(j) for j in candidate_links))
            for j in candidates:
                if not 0 <= j < context.num_links:
                    raise ValidationError(f"candidate link index {j} out of range")
                if j in context.controlled_links:
                    raise ValidationError(
                        f"candidate {j} is attacker-controlled; L_s excludes L_m"
                    )
        # Rank by manipulability: the largest positive estimator coefficient
        # over supported paths — easiest links first keeps the greedy scan
        # productive.
        if context.support and candidates:
            strength = np.max(context.support_operator[candidates], axis=1)
        else:
            strength = np.zeros(len(candidates))
        self.candidates = _rank_by_strength(candidates, strength)

    def _trial_solver(self) -> IncrementalLpSolver:
        """Shared incremental solver for the greedy growth.

        The base block is the obfuscation bands for an *empty* victim set
        (controlled links uncertain, plus the exclusive/confined rows);
        each trial overrides exactly its victims' bands to the uncertain
        band — byte-for-byte the bands a from-scratch
        :func:`build_obfuscation_bands` would produce for that set.
        """
        if self._solver is None:
            base_bands = build_obfuscation_bands(
                self.context,
                self.context.controlled_links,
                mode=self.mode,
                confined=self.confined,
            )
            self._solver = IncrementalLpSolver(
                None,
                self.context.baseline_estimate,
                self.context.support,
                self.context.num_paths,
                base_bands,
                cap=self.context.cap,
                sub_operator=self.context.support_operator,
                consistency_columns=(
                    self.context.residual_projector_support() if self.stealthy else None
                ),
                presolve=self.presolve,
            )
        return self._solver

    def _victim_overrides(
        self, victims: tuple[int, ...]
    ) -> dict[int, tuple[float, float]]:
        """Per-victim uncertain-band override (eq. 10 with the margin)."""
        lower = self.context.thresholds.lower + self.context.margin
        upper = self.context.thresholds.upper - self.context.margin
        return {j: (lower, upper) for j in victims}

    def _solve(self, victims: tuple[int, ...]):
        return self._trial_solver().solve(self._victim_overrides(victims))

    def run(self) -> AttackOutcome:
        """Grow the victim set greedily; succeed at ``min_victims`` or more."""
        if not self.candidates:
            return AttackOutcome.infeasible(
                self.strategy_name, "no manipulable victim candidates"
            )
        victims: list[int] = []
        best_solution = None
        for j in self.candidates:
            if self.max_victims is not None and len(victims) >= self.max_victims:
                break
            trial = tuple(victims + [j])
            solution = self._solve(trial)
            if solution.feasible:
                victims.append(j)
                best_solution = solution
        if best_solution is None or len(victims) < self.min_victims:
            return AttackOutcome.infeasible(
                self.strategy_name,
                f"only {len(victims)} obfuscatable victims found, "
                f"need {self.min_victims}",
                tuple(victims),
            )
        if best_solution.manipulation is None:
            raise AttackError("feasible obfuscation LP returned no manipulation")
        return AttackOutcome.from_manipulation(
            self.strategy_name,
            self.context,
            best_solution.manipulation,
            tuple(victims),
            best_solution.status,
            extras={
                "mode": self.mode,
                "num_victims": len(victims),
                "stealthy": self.stealthy,
                "min_victims": self.min_victims,
                "unbounded": best_solution.unbounded,
            },
        )
