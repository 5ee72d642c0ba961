"""Scapegoating attack engine — the paper's core contribution.

The attacker controls a node set ``V_m`` and therefore (a) every link
incident to those nodes (``L_m``) and (b) every measurement path crossing
them.  An attack is a non-negative per-path manipulation vector ``m``
supported only on crossable paths (Constraint 1) chosen so that network
tomography's estimate lands in target state bands:

- :class:`~repro.attacks.chosen_victim.ChosenVictimAttack` (eq. 4-7),
- :class:`~repro.attacks.max_damage.MaxDamageAttack` (eq. 8),
- :class:`~repro.attacks.obfuscation.ObfuscationAttack` (eq. 9-11),
- :class:`~repro.attacks.naive.NaiveDelayAttack` — the non-stealthy
  baseline that the paper's introduction dismisses (it exposes the
  attacker's own links).

Feasibility analysis (perfect/imperfect cuts, attack presence ratio —
Theorems 1-2) lives in :mod:`~repro.attacks.cuts`; compiling a solved
manipulation vector into per-node packet behaviour for the simulator lives
in :mod:`~repro.attacks.planner`.
"""

from repro.attacks.base import AttackContext, AttackOutcome
from repro.attacks.chosen_victim import ChosenVictimAttack
from repro.attacks.compromise import (
    compromise_budget_ranking,
    minimum_perfect_cut_nodes,
)
from repro.attacks.constraints import (
    attacker_links,
    manipulable_paths,
    validate_manipulation_vector,
)
from repro.attacks.cuts import (
    attack_presence_ratio,
    is_perfect_cut,
    perfectly_cut_links,
    uncut_victim_paths,
    victim_paths,
)
from repro.attacks.hybrid import FrameAndBlurAttack
from repro.attacks.lp import (
    IncrementalLpSolver,
    LpSolution,
    solve_manipulation_lp,
    theorem1_manipulation,
)
from repro.attacks.lp_engine import PersistentLpSolver
from repro.attacks.max_damage import MaxDamageAttack
from repro.attacks.naive import NaiveDelayAttack
from repro.attacks.obfuscation import ObfuscationAttack
from repro.attacks.planner import AttackPlan, compile_attack_plan

__all__ = [
    "AttackContext",
    "AttackOutcome",
    "attacker_links",
    "manipulable_paths",
    "validate_manipulation_vector",
    "attack_presence_ratio",
    "is_perfect_cut",
    "perfectly_cut_links",
    "uncut_victim_paths",
    "victim_paths",
    "IncrementalLpSolver",
    "LpSolution",
    "PersistentLpSolver",
    "solve_manipulation_lp",
    "theorem1_manipulation",
    "ChosenVictimAttack",
    "MaxDamageAttack",
    "ObfuscationAttack",
    "NaiveDelayAttack",
    "FrameAndBlurAttack",
    "compromise_budget_ranking",
    "minimum_perfect_cut_nodes",
    "AttackPlan",
    "compile_attack_plan",
]
