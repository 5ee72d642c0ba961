"""Multi-epoch measurement campaigns, with or without path churn.

The paper analyses a single measurement round; a real operator runs
tomography periodically, applies the consistency check (eq. 23) after
every round and acts on *persistent* anomalies.  Real networks also
churn — paths fail and recover mid-campaign, the routing matrix gains
and loses rows, and both sides adapt.  This module is that temporal
layer over the evolving tomography kernel:

- :class:`ChurnEvent` / :func:`random_churn_schedule` describe which
  paths fail and recover at each epoch (indices into the scenario's
  *base* path set, so a path that recovers is the same physical path
  that failed);
- :class:`StreamingCampaign` drives an
  :class:`~repro.detection.online.OnlineConsistencyDetector` through the
  schedule: every epoch applies the churn through
  :meth:`LinearSystem.evolve` (rank-1 Gram-Cholesky patches with a
  certified cold fallback on the sparse backend, a cold SVD on the dense
  one), measures the live paths, and runs the consistency check;
- the attacker *re-plans*: whenever churn changes the set of live paths
  it can manipulate, the manipulation vector is recomputed over the
  current system (default strategy: the naive per-path delay attack),
  then carried forward until the available support changes again.

A campaign over a fixed path set is a schedule of empty churn events
(``[ChurnEvent()] * n``), and a fixed manipulation replays through the
attack factory::

    campaign = StreamingCampaign(
        scenario, attacker_nodes=["B", "C"], attack_factory=lambda _ctx: outcome
    )
    result = campaign.run([ChurnEvent()] * 20, active_epochs=[3, 7], rng=0)

What the operator would see is aggregated per campaign: the *detection
latency* — attacked epochs before the detector first fires (0 = caught
at once, ``None`` = never, e.g. a stealthy perfect-cut attacker) — and
the *blame tally*, how many epochs each link was flagged abnormal.  A
persistent scapegoat accumulates blame exactly like a genuinely failing
link would, which is the paper's point: recovery would target the
victim.  The epoch results also record which factorization path each
churn event took (``incremental``), so experiments can report the
incremental hit rate alongside detection latency; on the dense backend
every churn epoch refactorizes cold and that rate is 0.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.attacks.base import AttackContext, AttackOutcome
from repro.attacks.constraints import manipulable_paths
from repro.attacks.naive import NaiveDelayAttack
from repro.detection.consistency import DetectionResult
from repro.detection.online import OnlineConsistencyDetector
from repro.exceptions import ValidationError
from repro.routing.paths import PathSet
from repro.scenarios.scenario import Scenario
from repro.tomography.linear_system import LinearSystem
from repro.utils.rng import ensure_rng

__all__ = [
    "ChurnEvent",
    "EpochResult",
    "StreamResult",
    "StreamingCampaign",
    "random_churn_schedule",
]


@dataclass(frozen=True)
class ChurnEvent:
    """Path churn at one epoch: base-path indices that fail / recover."""

    fail: tuple[int, ...] = ()
    recover: tuple[int, ...] = ()

    @property
    def churns(self) -> bool:
        """True when this event changes the live path set at all."""
        return bool(self.fail or self.recover)


def random_churn_schedule(
    num_paths: int,
    num_epochs: int,
    *,
    churn_rate: float = 0.05,
    recover_rate: float = 0.5,
    min_live: int = 2,
    rng: object = None,
) -> tuple[ChurnEvent, ...]:
    """A random fail/recover schedule over ``num_paths`` base paths.

    Each epoch, every live path fails independently with probability
    ``churn_rate`` (but never below ``min_live`` live paths) and every
    failed path recovers with probability ``recover_rate`` — the
    mark-down/mark-up workload of adaptive path selection.  Deterministic
    under a seeded ``rng``.
    """
    if num_paths < 1 or num_epochs < 1:
        raise ValidationError(
            f"need num_paths >= 1 and num_epochs >= 1, got {num_paths}, {num_epochs}"
        )
    if not 0.0 <= churn_rate <= 1.0 or not 0.0 <= recover_rate <= 1.0:
        raise ValidationError("churn_rate and recover_rate must lie in [0, 1]")
    if not 1 <= min_live <= num_paths:
        raise ValidationError(
            f"min_live must lie in [1, {num_paths}], got {min_live}"
        )
    generator = ensure_rng(rng)
    live = set(range(num_paths))
    down: set[int] = set()
    schedule: list[ChurnEvent] = []
    for _ in range(num_epochs):
        fail: list[int] = []
        for index in sorted(live):
            if len(live) - len(fail) <= min_live:
                break
            if generator.random() < churn_rate:
                fail.append(index)
        recover = [
            index for index in sorted(down) if generator.random() < recover_rate
        ]
        live.difference_update(fail)
        live.update(recover)
        down.difference_update(recover)
        down.update(fail)
        schedule.append(ChurnEvent(fail=tuple(fail), recover=tuple(recover)))
    return tuple(schedule)


@dataclass(frozen=True)
class EpochResult:
    """One epoch of a streaming campaign.

    ``live_paths`` are base-path indices in current row order;
    ``incremental`` records whether this epoch's churn was absorbed by a
    rank-1 factor patch (``None`` = no churn, nothing to patch);
    ``replanned`` flags epochs where the attacker recomputed its
    manipulation because its available support changed.
    """

    epoch: int
    live_paths: tuple[int, ...]
    attacked: bool
    replanned: bool
    incremental: bool | None
    observed: np.ndarray
    detection: DetectionResult

    @property
    def detected(self) -> bool:
        return self.detection.detected


@dataclass(frozen=True)
class StreamResult:
    """Aggregated outcome of a streaming campaign.

    ``blame_counts`` maps a link index to the number of epochs whose
    estimate put it above ``scenario.thresholds.upper`` (the links
    :func:`~repro.tomography.diagnosis.diagnose` reports abnormal); links
    never flagged are absent.
    """

    epochs: tuple[EpochResult, ...] = field(default_factory=tuple)
    blame_counts: dict[int, int] = field(default_factory=dict)

    @property
    def num_epochs(self) -> int:
        return len(self.epochs)

    @property
    def attacked_epochs(self) -> tuple[int, ...]:
        return tuple(e.epoch for e in self.epochs if e.attacked)

    @property
    def detected_epochs(self) -> tuple[int, ...]:
        return tuple(e.epoch for e in self.epochs if e.detected)

    @property
    def false_alarm_epochs(self) -> tuple[int, ...]:
        """Detector firings in epochs with no active manipulation."""
        return tuple(e.epoch for e in self.epochs if e.detected and not e.attacked)

    @property
    def replan_count(self) -> int:
        """How many times churn forced the attacker to re-plan."""
        return sum(1 for e in self.epochs if e.replanned)

    def detection_latency(self) -> int | None:
        """Attacked epochs elapsed before the first detection (None = never)."""
        elapsed = 0
        for epoch in self.epochs:
            if not epoch.attacked:
                continue
            if epoch.detected:
                return elapsed
            elapsed += 1
        return None

    def most_blamed_link(self) -> int | None:
        """The link flagged abnormal in the most epochs (ties: lowest index)."""
        if not self.blame_counts:
            return None
        return min(self.blame_counts, key=lambda j: (-self.blame_counts[j], j))

    def incremental_fraction(self) -> float | None:
        """Share of churn epochs absorbed by rank-1 factor patches.

        ``None`` when the schedule never churned (nothing to measure);
        0 on the dense backend, whose evolved systems always refactorize
        cold.
        """
        churned = [e for e in self.epochs if e.incremental is not None]
        if not churned:
            return None
        return sum(1 for e in churned if e.incremental) / len(churned)


class StreamingCampaign:
    """Drive an online detector and a re-planning attacker through churn.

    Parameters
    ----------
    scenario:
        The tomography setting; its path set defines the *base* paths
        that churn events index.
    attacker_nodes:
        Nodes the attacker controls (empty = honest stream).
    alpha:
        Online consistency threshold (paper: 200 ms).
    noise_model:
        Optional per-path noise ``model(rng, size) -> ndarray`` applied
        to every epoch's live measurements.
    attack_factory:
        ``factory(context) -> AttackOutcome`` re-planning the
        manipulation over the current live paths; defaults to the naive
        per-path delay attack.  Called only when the attacker's
        available support changes.
    backend:
        Backend pin for the evolving system (None = auto dispatch).
    estimator:
        Estimator-zoo name for the defender's inversion (None = the
        ``REPRO_ESTIMATOR`` knob).
    """

    def __init__(
        self,
        scenario: Scenario,
        *,
        attacker_nodes: Iterable = (),
        alpha: float = 200.0,
        noise_model=None,
        attack_factory=None,
        backend: str | None = None,
        estimator: str | None = None,
    ) -> None:
        self.scenario = scenario
        self.attacker_nodes = tuple(attacker_nodes)
        self.noise_model = noise_model
        self.attack_factory = attack_factory or (
            lambda context: NaiveDelayAttack(context).run()
        )
        self._base_matrix = scenario.path_set.routing_matrix()
        if self._base_matrix.shape[0] == 0:
            raise ValidationError("scenario has no measurement paths to stream")
        self._backend = backend
        self.detector = OnlineConsistencyDetector(
            LinearSystem(self._base_matrix, backend=backend),
            alpha,
            estimator=estimator,
        )
        # Base-path index of each detector row, in row order.  It lives as
        # long as the detector's evolved system, so a second :meth:`run`
        # continues from where the first one left the paths.
        self._live = list(range(self._base_matrix.shape[0]))
        self._base_support = (
            frozenset(manipulable_paths(scenario.path_set, self.attacker_nodes))
            if self.attacker_nodes
            else frozenset()
        )

    def _replan(self, live: list[int]) -> dict[int, float]:
        """Recompute the manipulation over the current live paths.

        Builds an attack context over the live sub-path-set, injecting
        the detector's evolved system so the attacker's view of the
        estimator shares its factorization.  Returns the manipulation
        as a base-index -> delay map (empty when infeasible).
        """
        scenario = self.scenario
        live_paths = PathSet(
            scenario.topology, (scenario.path_set.path(b) for b in live)
        )
        context = AttackContext(
            live_paths,
            scenario.true_metrics,
            self.attacker_nodes,
            thresholds=scenario.thresholds,
            cap=scenario.cap,
            margin=scenario.margin,
            system=self.detector.system,
        )
        outcome: AttackOutcome = self.attack_factory(context)
        if not outcome.feasible or outcome.manipulation is None:
            return {}
        manipulation = np.asarray(outcome.manipulation, dtype=float)
        return {
            live[i]: float(manipulation[i])
            for i in np.flatnonzero(manipulation)
        }

    def run(
        self,
        schedule: Sequence[ChurnEvent],
        *,
        active_epochs: Iterable[int] | float | None = None,
        rng: object = None,
    ) -> StreamResult:
        """Stream one epoch per churn event and aggregate the results.

        ``active_epochs`` selects when the attacker manipulates: an
        iterable of epoch indices, a float in (0, 1] drawn as an
        independent per-epoch activity probability, or ``None`` for every
        epoch when attacker nodes were given.
        """
        schedule = tuple(schedule)
        num_epochs = len(schedule)
        if num_epochs == 0:
            raise ValidationError("schedule must contain at least one epoch")
        generator = ensure_rng(rng)

        if not self.attacker_nodes:
            active = set()
        elif active_epochs is None:
            active = set(range(num_epochs))
        elif isinstance(active_epochs, float):
            if not 0.0 < active_epochs <= 1.0:
                raise ValidationError(
                    f"activity probability must be in (0, 1], got {active_epochs}"
                )
            active = {
                i for i in range(num_epochs) if generator.random() < active_epochs
            }
        else:
            active = set(int(i) for i in active_epochs)
            out_of_range = [i for i in active if not 0 <= i < num_epochs]
            if out_of_range:
                raise ValidationError(
                    f"active epoch {out_of_range[0]} outside [0, {num_epochs})"
                )

        plan: dict[int, float] = {}
        planned_support: frozenset | None = None
        epochs: list[EpochResult] = []
        blame: dict[int, int] = {}
        true_metrics = self.scenario.true_metrics
        upper = self.scenario.thresholds.upper
        for epoch, event in enumerate(schedule):
            incremental: bool | None = None
            if event.churns:
                self._live = self._apply_churn(self._live, event)
                incremental = self.detector.system.evolved_incrementally
            else:
                self.detector.advance()
            live = self._live

            attacked = epoch in active
            replanned = False
            manipulation = np.zeros(len(live))
            if attacked:
                live_support = frozenset(b for b in live if b in self._base_support)
                if live_support != planned_support:
                    plan = self._replan(live)
                    planned_support = live_support
                    replanned = True
                for position, base_index in enumerate(live):
                    manipulation[position] = plan.get(base_index, 0.0)
                attacked = bool(np.any(manipulation))

            observed = self.detector.system.predict(true_metrics)
            if self.noise_model is not None:
                observed = observed + self.noise_model(generator, len(live))
            if attacked:
                observed = observed + manipulation
            detection = self.detector.check(observed)
            for j in np.flatnonzero(detection.estimate > upper).tolist():
                blame[j] = blame.get(j, 0) + 1
            epochs.append(
                EpochResult(
                    epoch=epoch,
                    live_paths=tuple(live),
                    attacked=attacked,
                    replanned=replanned,
                    incremental=incremental,
                    observed=observed,
                    detection=detection,
                )
            )
        return StreamResult(epochs=tuple(epochs), blame_counts=blame)

    def _apply_churn(self, live: list[int], event: ChurnEvent) -> list[int]:
        """Advance the detector through one churn event; returns new live order.

        ``event`` indexes base paths; the detector's system is indexed by
        current row position, so failures are translated through the live
        order and recoveries append their base routing-matrix rows.
        """
        position_of = {base: pos for pos, base in enumerate(live)}
        removals = []
        for base in event.fail:
            if base not in position_of:
                raise ValidationError(f"churn event fails path {base}, which is not live")
            removals.append(position_of[base])
        live_set = set(live)
        rows = []
        for base in event.recover:
            if base in live_set:
                raise ValidationError(f"churn event recovers path {base}, which is live")
            if not 0 <= base < self._base_matrix.shape[0]:
                raise ValidationError(f"churn event recovers unknown path {base}")
            rows.append(self._base_matrix[base])
        self.detector.advance(add_rows=rows, remove_indices=removals)
        failed = set(event.fail)
        return [b for b in live if b not in failed] + list(event.recover)
