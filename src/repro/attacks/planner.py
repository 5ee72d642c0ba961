"""Compiling a solved manipulation vector into packet behaviour.

The LP outputs *per-path* damage ``m_i``; real attackers are *nodes*.  The
compiler assigns each manipulated path's delay to one attacker node on that
path (the first along the traversal, preferring interior nodes over the
destination monitor, since an interior attacker delays forwarding while a
malicious destination must lie about arrival times — both work, forwarding
delay is the paper's canonical mechanism) and emits the per-node
:class:`~repro.measurement.simulator.PathManipulationAgent` policies the
discrete-event simulator executes.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.attacks.constraints import manipulable_paths, validate_manipulation_vector
from repro.exceptions import AttackError
from repro.measurement.simulator.adversary import PathManipulationAgent
from repro.routing.paths import PathSet
from repro.topology.graph import NodeId

__all__ = ["AttackPlan", "compile_attack_plan"]

#: Manipulation entries below this are treated as zero (solver round-off).
_ZERO_TOL = 1e-9


@dataclass(frozen=True)
class AttackPlan:
    """An executable attack: per-node agents realising a manipulation vector.

    Attributes
    ----------
    manipulation:
        The validated vector ``m``.
    agents:
        Mapping attacker node -> packet-policy agent (only nodes with at
        least one action appear).
    assignment:
        Mapping path row -> the attacker node charged with that path.
    """

    manipulation: np.ndarray
    agents: dict[NodeId, PathManipulationAgent]
    assignment: dict[int, NodeId]

    @property
    def total_damage(self) -> float:
        """``||m||_1`` — Definition 2."""
        return float(np.sum(self.manipulation))

    def agent_for(self, node: NodeId) -> PathManipulationAgent | None:
        """The agent installed at ``node`` (None when node acts honestly)."""
        return self.agents.get(node)


def compile_attack_plan(
    path_set: PathSet,
    attacker_nodes: Iterable[NodeId],
    manipulation: np.ndarray,
    *,
    cap: float | None = None,
) -> AttackPlan:
    """Compile ``m`` into per-node simulator agents.

    Validates Constraint 1 against the attacker set first — a vector that
    manipulates an attacker-free path is unimplementable and rejected with
    :class:`AttackError`.
    """
    attackers = list(dict.fromkeys(attacker_nodes))
    support = manipulable_paths(path_set, attackers)
    m = validate_manipulation_vector(
        manipulation, support, path_set.num_paths, cap=cap
    )
    attacker_set = set(attackers)
    agents: dict[NodeId, PathManipulationAgent] = {}
    assignment: dict[int, NodeId] = {}
    for row in support:
        delay = float(m[row])
        if delay <= _ZERO_TOL:
            continue
        path = path_set.path(row)
        on_path = [node for node in path.nodes if node in attacker_set]
        if not on_path:  # pragma: no cover - excluded by validation above
            raise AttackError(f"no attacker on manipulated path {row}")
        interior = [node for node in on_path if node != path.target]
        chosen = interior[0] if interior else on_path[0]
        agent = agents.setdefault(chosen, PathManipulationAgent(node=chosen))
        agent.set_action(row, extra_delay=delay)
        assignment[row] = chosen
    return AttackPlan(manipulation=m.copy(), agents=agents, assignment=assignment)
