"""The :class:`Scenario` bundle.

A scenario fixes everything the operator side of an experiment needs — the
topology, monitors, measurement paths, ground-truth link metrics, state
thresholds — plus the attacker-facing knobs (per-path cap, band margin).
Experiment drivers derive attack contexts, measurement engines, and
auditors from it; every context and auditor runs on the scenario's one
:attr:`Scenario.system`.  A run on another kernel builds an
:class:`~repro.attacks.base.AttackContext` or a
:class:`~repro.detection.auditor.TomographyAuditor` with ``system=``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.attacks.base import AttackContext
from repro.detection.auditor import TomographyAuditor
from repro.measurement.engine import AnalyticMeasurementEngine
from repro.measurement.simulator.network_sim import NetworkSimulator
from repro.metrics.link_metrics import uniform_delay_metrics
from repro.metrics.states import StateThresholds
from repro.monitors.placement import random_monitor_placement
from repro.routing.paths import PathSet
from repro.routing.selection import select_identifiable_paths
from repro.tomography.linear_system import LinearSystem
from repro.topology.graph import NodeId, Topology
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_finite_vector

__all__ = ["Scenario"]


@dataclass
class Scenario:
    """One fully specified tomography setting.

    Attributes
    ----------
    topology, monitors, path_set:
        The operator's measurement infrastructure.
    true_metrics:
        Ground-truth link metrics ``x*`` (ms for the delay experiments).
    thresholds:
        Link-state bounds (paper defaults: 100 / 800 ms).
    cap:
        Per-path manipulation limit (paper: 2000 ms).
    margin:
        Strictness margin for attack LPs (ms).
    name:
        Label used in logs and reports.
    """

    topology: Topology
    monitors: tuple[NodeId, ...]
    path_set: PathSet
    true_metrics: np.ndarray
    thresholds: StateThresholds = field(default_factory=StateThresholds)
    cap: float | None = 2000.0
    margin: float = 1.0
    name: str = ""

    def __post_init__(self) -> None:
        self.true_metrics = check_finite_vector(
            self.true_metrics, "true_metrics", length=self.topology.num_links
        )
        self.monitors = tuple(self.monitors)
        # (path set, its version, system) of the last ``system`` build.
        self._system_memo: tuple[PathSet, int, LinearSystem] | None = None

    @property
    def system(self) -> LinearSystem:
        """The one :class:`LinearSystem` over ``path_set.routing_matrix()``.

        Every :meth:`attack_context` and :meth:`auditor` shares it, so the
        factorization runs once per path set, not once per trial.  Built
        on first use (the backend is resolved then) and rebuilt when the
        path set's :attr:`~repro.routing.paths.PathSet.version` moves.
        """
        path_set = self.path_set
        memo = self._system_memo
        if memo is None or memo[0] is not path_set or memo[1] != path_set.version:
            memo = (path_set, path_set.version, LinearSystem(path_set.routing_matrix()))
            self._system_memo = memo
        return memo[2]

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        topology: Topology,
        *,
        monitors: Sequence[NodeId] | None = None,
        num_monitors: int | None = None,
        monitor_fraction: float | None = None,
        redundancy: int = 3,
        max_per_pair: int = 20,
        pair_budget: int | None = None,
        delay_range: tuple[float, float] = (1.0, 20.0),
        thresholds: StateThresholds | None = None,
        cap: float | None = 2000.0,
        margin: float = 1.0,
        name: str = "",
        rng: object = None,
    ) -> "Scenario":
        """Standard scenario construction used by the experiments.

        Monitors come from (in priority order) an explicit ``monitors``
        list, an explicit ``num_monitors`` count, or ``monitor_fraction``
        of the node count (default 0.3, at least 3 — the paper notes "a
        large amount of nodes are usually required to be chosen as
        monitors").  Following the minimum-monitor-placement rule of Ma et
        al. [16] that the paper's experiments build on, every node of
        degree <= 2 is always made a monitor (a non-monitor leaf's link
        lies on no path; a non-monitor degree-2 node makes its two links
        inseparable), and the remaining budget is filled with random
        nodes.  Paths are chosen by the randomised rank-greedy selection
        with ``redundancy`` extra rows for detectability; ground-truth
        delays are uniform over ``delay_range`` (paper: 1-20 ms routine
        traffic).  ``pair_budget`` caps how many monitor pairs path
        enumeration searches (seeded sample) — the knob that keeps
        ISP-scale scenarios tractable.
        """
        generator = ensure_rng(rng)
        if monitors is None:
            if num_monitors is None:
                fraction = 0.3 if monitor_fraction is None else monitor_fraction
                num_monitors = max(3, int(round(fraction * topology.num_nodes)))
            num_monitors = min(num_monitors, topology.num_nodes)
            forced = [node for node in topology.nodes() if topology.degree(node) <= 2]
            others = [node for node in topology.nodes() if topology.degree(node) > 2]
            fill = max(num_monitors - len(forced), 3 - len(forced), 0)
            fill = min(fill, len(others))
            extra: list = []
            if fill:
                picks = generator.choice(len(others), size=fill, replace=False)
                extra = [others[int(i)] for i in picks]
            monitors = forced + extra
            if len(monitors) < 2:  # degenerate tiny graphs
                monitors = random_monitor_placement(
                    topology, min(3, topology.num_nodes), rng=generator
                )
        path_set = select_identifiable_paths(
            topology,
            monitors,
            redundancy=redundancy,
            max_per_pair=max_per_pair,
            pair_budget=pair_budget,
            rng=generator,
        )
        low, high = delay_range
        metrics = uniform_delay_metrics(topology, low, high, rng=generator)
        return cls(
            topology=topology,
            monitors=tuple(monitors),
            path_set=path_set,
            true_metrics=metrics,
            thresholds=thresholds if thresholds is not None else StateThresholds(),
            cap=cap,
            margin=margin,
            name=name or topology.name,
        )

    # ------------------------------------------------------------------
    # derived objects
    # ------------------------------------------------------------------
    def attack_context(
        self, attacker_nodes: Iterable[NodeId], *, estimator=None
    ) -> AttackContext:
        """An :class:`AttackContext` for the given attacker set, on :attr:`system`.

        ``estimator`` selects the defender's inversion family (zoo name,
        estimator built over :attr:`system`, or None = least squares,
        ``ls``).
        """
        return AttackContext(
            self.path_set,
            self.true_metrics,
            attacker_nodes,
            thresholds=self.thresholds,
            cap=self.cap,
            margin=self.margin,
            system=self.system,
            estimator=estimator,
        )

    def engine(self, noise_model=None) -> AnalyticMeasurementEngine:
        """The analytic measurement engine for this scenario."""
        return AnalyticMeasurementEngine(self.path_set, noise_model=noise_model)

    def simulator(self, *, agents=None, jitter=None) -> NetworkSimulator:
        """A packet-level simulator over this scenario's ground truth."""
        return NetworkSimulator(
            self.topology, self.true_metrics, agents=agents or {}, jitter=jitter
        )

    def auditor(self, alpha: float = 200.0, *, estimator=None) -> TomographyAuditor:
        """The operator's audited-tomography pipeline, on :attr:`system`.

        ``estimator`` selects the inversion family the audit runs (same
        contract as :meth:`attack_context`).
        """
        return TomographyAuditor(
            self.path_set,
            thresholds=self.thresholds,
            alpha=alpha,
            system=self.system,
            estimator=estimator,
        )

    def honest_measurements(self) -> np.ndarray:
        """Noiseless honest measurement vector ``y = R x*``."""
        return self.path_set.routing_matrix() @ self.true_metrics

    def describe(self) -> dict:
        """Flat description for logs and EXPERIMENTS.md."""
        return {
            "name": self.name,
            "nodes": self.topology.num_nodes,
            "links": self.topology.num_links,
            "monitors": len(self.monitors),
            "paths": self.path_set.num_paths,
            "cap": self.cap,
            "thresholds": (self.thresholds.lower, self.thresholds.upper),
        }
