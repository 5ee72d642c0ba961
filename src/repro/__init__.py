"""Scapegoating attacks on network tomography.

A production-quality reproduction of *"When Seeing Isn't Believing: On
Feasibility and Detectability of Scapegoating in Network Tomography"*
(Zhao, Lu & Wang, IEEE ICDCS 2017): the tomography substrate (topologies,
monitor placement, measurement paths, least-squares inversion), the three
scapegoating strategies (chosen-victim, maximum-damage, obfuscation) as
linear programs over the attack manipulation vector, perfect/imperfect cut
feasibility analysis, the consistency-based detector, a packet-level
measurement simulator, and the full experiment harness regenerating the
paper's Figs. 4-9.

Quickstart::

    from repro import (
        paper_example_network, Scenario, ChosenVictimAttack,
    )
    topo = paper_example_network()
    scenario = Scenario.build(topo, monitors=["M1", "M2", "M3"], rng=7)
    context = scenario.attack_context(["B", "C"])
    outcome = ChosenVictimAttack(context, victim_links=[9]).run()
    print(outcome.feasible, outcome.damage)

See ``examples/`` for complete walkthroughs and ``benchmarks/`` for the
per-figure reproduction harness.
"""

from repro.attacks import (
    AttackContext,
    AttackOutcome,
    AttackPlan,
    ChosenVictimAttack,
    FrameAndBlurAttack,
    MaxDamageAttack,
    NaiveDelayAttack,
    ObfuscationAttack,
    attack_presence_ratio,
    compile_attack_plan,
    compromise_budget_ranking,
    is_perfect_cut,
    minimum_perfect_cut_nodes,
)
from repro.detection import (
    ConsistencyDetector,
    TomographyAuditor,
    TrimmedLeastSquares,
)
from repro.exceptions import (
    AttackConstraintError,
    AttackError,
    DetectionError,
    InfeasibleAttackError,
    MeasurementError,
    MonitorPlacementError,
    ReproError,
    TomographyError,
    TopologyError,
    ValidationError,
)
from repro.measurement import (
    AnalyticMeasurementEngine,
    GaussianNoise,
    NetworkSimulator,
    NoNoise,
    PathManipulationAgent,
)
from repro.metrics import (
    LinkState,
    StateThresholds,
    classify_vector,
    uniform_delay_metrics,
)
from repro.monitors import (
    incremental_identifiable_placement,
    random_monitor_placement,
    security_aware_placement,
)
from repro.routing import (
    MeasurementPath,
    PathSet,
    identifiability_report,
    k_shortest_paths,
    select_identifiable_paths,
)
from repro.scenarios import Scenario, StreamingCampaign
from repro.tomography import LinearSystem, diagnose
from repro.topology import (
    Link,
    Topology,
    paper_example_network,
    random_geometric_topology,
    synthetic_rocketfuel,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # exceptions
    "ReproError",
    "TopologyError",
    "MonitorPlacementError",
    "MeasurementError",
    "TomographyError",
    "AttackError",
    "AttackConstraintError",
    "InfeasibleAttackError",
    "DetectionError",
    "ValidationError",
    # topology
    "Link",
    "Topology",
    "paper_example_network",
    "random_geometric_topology",
    "synthetic_rocketfuel",
    # routing
    "MeasurementPath",
    "PathSet",
    "identifiability_report",
    "k_shortest_paths",
    "select_identifiable_paths",
    # monitors
    "incremental_identifiable_placement",
    "random_monitor_placement",
    "security_aware_placement",
    # metrics
    "LinkState",
    "StateThresholds",
    "classify_vector",
    "uniform_delay_metrics",
    # measurement
    "AnalyticMeasurementEngine",
    "GaussianNoise",
    "NoNoise",
    "NetworkSimulator",
    "PathManipulationAgent",
    # tomography
    "LinearSystem",
    "diagnose",
    # attacks
    "AttackContext",
    "AttackOutcome",
    "AttackPlan",
    "ChosenVictimAttack",
    "FrameAndBlurAttack",
    "MaxDamageAttack",
    "NaiveDelayAttack",
    "ObfuscationAttack",
    "attack_presence_ratio",
    "compile_attack_plan",
    "compromise_budget_ranking",
    "is_perfect_cut",
    "minimum_perfect_cut_nodes",
    # detection
    "ConsistencyDetector",
    "TomographyAuditor",
    "TrimmedLeastSquares",
    # scenarios
    "Scenario",
    "StreamingCampaign",
]
