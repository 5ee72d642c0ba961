"""Maximum-damage scapegoating (eq. 8 of the paper).

The attacker searches over victim sets ``L_s ⊂ L`` for the one admitting
the largest damage.  A useful structural fact (property-tested): the
feasible region shrinks as ``L_s`` grows — requiring *more* links to look
abnormal only adds constraints — so the unconstrained optimum over all
non-empty victim sets is always attained at a singleton.  The default
search therefore scans single victims exhaustively; explicit
``victim_set_size > 1`` enumerates subsets of exactly that size for
attackers who *want* several guaranteed scapegoats.

The candidate scan shares one :class:`~repro.attacks.lp.IncrementalLpSolver`:
the constraint block common to every victim set (controlled links normal,
plus any exclusive/confined rows) is loaded into one warm HiGHS model, and
each candidate only edits its own victims' row bounds — the per-LP cost is
a warm re-solve, not a rebuild.  A candidate the Constraint-1 presolve
pruner rejects solves no LP at all; ``extras["presolve_pruned"]`` counts
them.

Symmetric topologies (grids, ladders) give many candidates the same
optimal damage, and two solves of tied candidates differ only by solver
round-off.  A later candidate therefore replaces the incumbent only when
its damage is larger by more than :data:`DAMAGE_TIE_RTOL` (relative), so
ties go to the first candidate in enumeration order whatever the solver's
last bits say (docs/THEORY.md, "Max-damage ties").

The scan stops early once no later candidate could clear that rule.  The
LP with every candidate link's row freed bounds every candidate's damage
from above (:meth:`IncrementalLpSolver.damage_bound`, solved off the
scan's warm model); when the incumbent reaches it within
:data:`BOUND_SLACK`, the remaining candidates are skipped and the full
scan's winner is returned unchanged (docs/THEORY.md, "Max-damage early
stop").  ``extras["damage_bound"]`` and ``extras["candidates_skipped"]``
record the stop; :meth:`MaxDamageAttack.damage_by_victim` still solves
every candidate.

Note the distinction the paper's Fig. 5 illustrates: the *required* victim
set may be a single link, yet the damage-maximising manipulation typically
drives several other free links above the abnormal threshold as a side
effect.  The outcome's diagnosis reports every link the operator would
actually blame.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from itertools import combinations

from repro.attacks.base import AttackContext, AttackOutcome
from repro.attacks.chosen_victim import build_chosen_victim_bands
from repro.attacks.lp import IncrementalLpSolver
from repro.exceptions import ValidationError
from repro.obs import core as obs

__all__ = ["BOUND_SLACK", "DAMAGE_TIE_RTOL", "MaxDamageAttack"]

#: Relative damage margin a later candidate must clear to displace the
#: incumbent.  Tied optima agree to ~1e-13 and the warm and cold solves of
#: one candidate to ~1e-12, while distinct optima differ by >= ~7e-8; see
#: docs/THEORY.md, "Max-damage ties".
DAMAGE_TIE_RTOL = 1e-9

#: Relative allowance for a candidate's computed damage to exceed the
#: scan's upper bound through solver round-off.  Measured overshoot is at
#: most 2.7e-13; see docs/THEORY.md, "Max-damage early stop".
BOUND_SLACK = 1e-10


class MaxDamageAttack:
    """Search victim sets for the damage-maximising scapegoating attack.

    Parameters
    ----------
    context:
        The shared attack context.
    victim_set_size:
        Exact size of the victim sets searched (default 1 — see module
        docstring for why singletons already attain the optimum).
    candidate_links:
        Restrict the victim search (default: every non-controlled link the
        attacker can push upward).
    mode:
        Chosen-victim constraint mode applied per candidate (``"paper"``
        or ``"exclusive"``).
    max_combinations:
        Safety limit on subsets *examined* (including ones skipped for
        containing controlled links) when ``victim_set_size > 1`` — it
        bounds the work of the scan itself, not just the LPs solved.
    stop_at_first_feasible:
        Return the first feasible victim set instead of the best one.
        Success-probability experiments (Fig. 8) only need existence, and
        this short-circuits the candidate scan.
    shared_solver:
        Optional pre-assembled :class:`IncrementalLpSolver` whose base
        block is the empty-victim chosen-victim bands of this context /
        mode / confined combination (what :meth:`_candidate_solver` would
        build), e.g. from
        :meth:`repro.sweep.cache.FactorizationCache.solver_for`, so
        several scans over one context share one warm model and one
        memoised damage bound.  The
        caller is responsible for the base block matching; a mismatched
        solver silently changes the constraints.
    """

    strategy_name = "max-damage"

    def __init__(
        self,
        context: AttackContext,
        *,
        victim_set_size: int = 1,
        candidate_links: Iterable[int] | None = None,
        mode: str = "paper",
        max_combinations: int = 20000,
        stop_at_first_feasible: bool = False,
        stealthy: bool = False,
        confined: bool = False,
        shared_solver: IncrementalLpSolver | None = None,
    ) -> None:
        if victim_set_size < 1:
            raise ValidationError(f"victim_set_size must be >= 1, got {victim_set_size}")
        if max_combinations < 1:
            raise ValidationError(f"max_combinations must be >= 1, got {max_combinations}")
        self.context = context
        self.victim_set_size = victim_set_size
        self.mode = mode
        self.max_combinations = max_combinations
        self.stop_at_first_feasible = stop_at_first_feasible
        self.stealthy = stealthy
        self.confined = confined
        if candidate_links is None:
            mask = context.manipulable_link_mask()
            self.candidates = tuple(
                j
                for j in range(context.num_links)
                if mask[j] and j not in context.controlled_links
            )
        else:
            self.candidates = tuple(sorted(set(int(j) for j in candidate_links)))
            for j in self.candidates:
                if not 0 <= j < context.num_links:
                    raise ValidationError(f"candidate link index {j} out of range")
        self._solver: IncrementalLpSolver | None = shared_solver

    def _candidate_solver(self) -> IncrementalLpSolver:
        """The shared solver whose base block is every candidate's common part.

        The base bands are the chosen-victim bands for an *empty* victim
        set (controlled links normal, plus the exclusive/confined rows);
        a candidate set then overrides exactly its victims' bands to the
        abnormal requirement — byte-for-byte the bands a from-scratch
        :func:`build_chosen_victim_bands` would produce for that set.
        """
        if self._solver is None:
            base_bands = build_chosen_victim_bands(
                self.context, (), self.mode, confined=self.confined
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
            )
        return self._solver

    def _victim_overrides(self, subset: tuple[int, ...]) -> dict[int, tuple[float, float]]:
        """Per-victim band override: estimate must exceed the abnormal bound."""
        abnormal_bound = self.context.thresholds.upper + self.context.margin
        return {j: (abnormal_bound, math.inf) for j in subset}

    def run(self) -> AttackOutcome:
        """Scan candidate victim sets; return the best feasible outcome.

        Infeasible when no candidate set admits a solution (e.g. the
        attacker sits on no measurement path at all).
        """
        if not self.candidates:
            return AttackOutcome.infeasible(
                self.strategy_name, "no manipulable victim candidates"
            )
        pending, enumerated, skipped_controlled = self._enumerate_subsets()
        solver = self._candidate_solver()
        pruned_before = solver.presolve_pruned
        best_solution = None
        best_victims: tuple[int, ...] = ()
        bound: float | None = None
        trace: list[dict] = []
        solved = 0
        solutions = solver.solve_many(
            self._victim_overrides(subset) for subset in pending
        )
        for subset, solution in zip(pending, solutions):
            solved += 1
            trace.append(
                {
                    "victims": subset,
                    "feasible": solution.feasible,
                    "damage": solution.damage,
                }
            )
            if solution.feasible and (
                best_solution is None
                or solution.damage > best_solution.damage * (1 + DAMAGE_TIE_RTOL)
            ):
                best_solution = solution
                best_victims = subset
                if self.stop_at_first_feasible or solved == len(pending):
                    break
                # No later candidate can clear the tie rule once the
                # incumbent reaches the bound (docs/THEORY.md).
                if bound is None:
                    bound = solver.damage_bound(
                        {j for candidate in pending for j in candidate}
                    )
                if best_solution.damage * (1 + DAMAGE_TIE_RTOL) >= bound * (
                    1 + BOUND_SLACK
                ):
                    if obs.is_enabled():
                        obs.event(
                            "max_damage_early_stop",
                            bound=bound,
                            damage=best_solution.damage,
                            candidates_tried=solved,
                            candidates_skipped=len(pending) - solved,
                        )
                    break
        if best_solution is None or best_solution.manipulation is None:
            return AttackOutcome.infeasible(
                self.strategy_name,
                f"no feasible victim set among {solved} candidates",
            )
        outcome = AttackOutcome.from_manipulation(
            self.strategy_name,
            self.context,
            best_solution.manipulation,
            best_victims,
            best_solution.status,
            extras={
                "mode": self.mode,
                "stealthy": self.stealthy,
                "search_trace": trace,
                "candidates_tried": solved,
                "candidates_skipped": len(pending) - solved,
                "damage_bound": bound,
                "subsets_examined": enumerated,
                "skipped_controlled": skipped_controlled,
                "unbounded": best_solution.unbounded,
                "presolve_pruned": solver.presolve_pruned - pruned_before,
            },
        )
        return outcome

    def _enumerate_subsets(self) -> tuple[list[tuple[int, ...]], int, int]:
        """The candidate subsets the scan will solve, plus scan bookkeeping.

        Enumeration is cheap (tuple arithmetic only) and separated from
        solving so the LP loop can stream through
        :meth:`IncrementalLpSolver.solve_many` — lazy, so a
        ``stop_at_first_feasible`` consumer stops paying immediately.
        """
        pending: list[tuple[int, ...]] = []
        enumerated = 0
        skipped_controlled = 0
        for subset in combinations(self.candidates, self.victim_set_size):
            if enumerated >= self.max_combinations:
                break
            enumerated += 1
            if any(j in self.context.controlled_links for j in subset):
                skipped_controlled += 1
                continue
            pending.append(subset)
        return pending, enumerated, skipped_controlled

    def damage_by_victim(self) -> dict[int, float]:
        """Damage achievable per single victim link (nan when infeasible).

        Convenience for Fig. 5-style analysis: which scapegoat is most
        profitable, and by how much.  Reuses the shared incremental solver
        through :meth:`IncrementalLpSolver.solve_many`, so the scan costs
        one (warm-started) LP solve per candidate — fewer when the
        presolve pruner rejects a candidate outright.
        """
        solver = self._candidate_solver()
        result: dict[int, float] = {}
        solutions = solver.solve_many(
            self._victim_overrides((j,)) for j in self.candidates
        )
        for j, solution in zip(self.candidates, solutions):
            result[j] = solution.damage if solution.feasible else float("nan")
        return result
