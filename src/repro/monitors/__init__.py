"""Monitor placement and placement-quality analysis.

The paper assumes a network operator picks monitor nodes and measurement
paths that make link metrics identifiable (Section II), and its experiments
"choose monitors and measurement paths according to a random selection
algorithm based on the minimum monitor placement rule" (Section V-C).  This
package implements that randomised incremental placement, simple baselines,
and the *security-aware* placement extension sketched in Section VI
(minimise every node's presence ratio on measurement paths, so a future
compromise of any single node yields the smallest possible attack surface).
"""

from repro.monitors.identifiability import placement_report
from repro.monitors.placement import (
    PlacementResult,
    incremental_identifiable_placement,
    random_monitor_placement,
    security_aware_placement,
)

__all__ = [
    "PlacementResult",
    "incremental_identifiable_placement",
    "random_monitor_placement",
    "security_aware_placement",
    "placement_report",
]
