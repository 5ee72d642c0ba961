"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class at an API boundary.  Subclasses are split
along the package's subsystem boundaries (topology, routing, tomography,
attacks, detection, measurement) so that tests and downstream users can
assert on precise failure modes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "TopologyError",
    "NodeNotFoundError",
    "LinkNotFoundError",
    "DisconnectedTopologyError",
    "RoutingError",
    "InvalidPathError",
    "NoPathError",
    "IdentifiabilityError",
    "MonitorPlacementError",
    "MeasurementError",
    "TomographyError",
    "SingularSystemError",
    "AttackError",
    "InfeasibleAttackError",
    "AttackConstraintError",
    "DetectionError",
    "SerializationError",
    "ValidationError",
    "ContractViolation",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong shape, range, or type)."""


class ContractViolation(ValidationError):
    """A runtime algebra contract failed at a public entry point.

    Raised by :mod:`repro.analysis.contracts` decorators (active under
    pytest / ``REPRO_CONTRACTS=1``) when structural invariants of the
    ``y = R x`` model are broken: a non-0/1 routing matrix, a manipulation
    vector violating Constraint 1, or out-of-order state bands.
    """


class TopologyError(ReproError):
    """Base class for topology-related errors."""


class NodeNotFoundError(TopologyError, KeyError):
    """A referenced node does not exist in the topology."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the topology")
        self.node = node


class LinkNotFoundError(TopologyError, KeyError):
    """A referenced link does not exist in the topology."""

    def __init__(self, link: object) -> None:
        super().__init__(f"link {link!r} is not in the topology")
        self.link = link


class DisconnectedTopologyError(TopologyError):
    """An operation required a connected topology but got a disconnected one."""


class RoutingError(ReproError):
    """Base class for routing/path errors."""


class InvalidPathError(RoutingError, ValueError):
    """A node sequence does not form a valid path in the topology."""


class NoPathError(RoutingError):
    """No path exists between the requested endpoints."""

    def __init__(self, source: object, target: object) -> None:
        super().__init__(f"no path between {source!r} and {target!r}")
        self.source = source
        self.target = target


class IdentifiabilityError(RoutingError):
    """The selected paths cannot identify the requested link metrics."""


class MonitorPlacementError(ReproError):
    """Monitor placement failed (e.g. not enough nodes, no identifiable set)."""


class MeasurementError(ReproError):
    """A measurement round could not be carried out."""


class TomographyError(ReproError):
    """Base class for estimation errors."""


class SingularSystemError(TomographyError):
    """The normal equations are singular and no fallback was permitted."""


class AttackError(ReproError):
    """Base class for attack-engine errors."""


class InfeasibleAttackError(AttackError):
    """The attack optimization problem admits no feasible solution.

    Carries the solver's status message so that experiment drivers can
    distinguish genuine infeasibility from numerical failure.
    """

    def __init__(self, message: str, *, solver_status: str | None = None) -> None:
        super().__init__(message)
        self.solver_status = solver_status


class AttackConstraintError(AttackError, ValueError):
    """An attack specification violates a structural constraint.

    Examples: a victim link overlapping the attacker-controlled set
    (violates eq. 7 of the paper), or an empty attacker set.
    """


class DetectionError(ReproError):
    """Base class for detection errors."""


class SerializationError(ReproError):
    """A topology or scenario could not be serialized or parsed."""
