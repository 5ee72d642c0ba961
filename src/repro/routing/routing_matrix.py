"""Identifiability analysis of the routing matrix.

The measurement model is ``y = R x`` (eq. 1), with ``R`` the 0/1 matrix
:meth:`~repro.routing.paths.PathSet.routing_matrix` builds.  A link metric
``x_j`` is *identifiable* from the chosen paths exactly when the
coordinate vector ``e_j`` lies in the row space of ``R`` — equivalently,
when row ``j`` of a null-space basis of ``R`` is zero.  Full column rank
means every link is identifiable and eq. (2)'s least-squares inverse is
exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.routing.paths import PathSet

__all__ = [
    "identifiability_report",
    "IdentifiabilityReport",
]

#: Threshold on null-space row norms below which a link counts identifiable.
_IDENTIFIABLE_TOL = 1e-8


@dataclass(frozen=True)
class IdentifiabilityReport:
    """Summary of how well a path set identifies the topology's links.

    Attributes
    ----------
    num_paths, num_links:
        Dimensions of ``R``.
    rank:
        Numerical rank of ``R``.
    full_column_rank:
        True when every link is identifiable (eq. 2 well posed).
    identifiable:
        Sorted link indices with uniquely determined metrics.
    unidentifiable:
        The complement.
    redundancy:
        ``num_paths - rank`` — the number of consistency checks available
        to the scapegoating detector; zero redundancy (square invertible
        ``R``) makes every attack undetectable (Theorem 3).
    """

    num_paths: int
    num_links: int
    rank: int
    full_column_rank: bool
    identifiable: tuple[int, ...]
    unidentifiable: tuple[int, ...]
    redundancy: int

    def coverage(self) -> float:
        """Fraction of links identifiable (1.0 when fully identifiable)."""
        if self.num_links == 0:
            return 1.0
        return len(self.identifiable) / self.num_links


def identifiability_report(path_set: PathSet) -> IdentifiabilityReport:
    """Build an :class:`IdentifiabilityReport` for ``path_set``.

    One :class:`~repro.tomography.linear_system.LinearSystem` supplies the
    rank, the full-rank flag and the nullspace basis.  Link ``j`` is
    identifiable iff row ``j`` of that basis is (numerically) zero: any
    two metric vectors consistent with the same measurements then agree
    in coordinate ``j``.
    """
    from repro.tomography.linear_system import LinearSystem

    system = LinearSystem(path_set.routing_matrix())
    identifiable = np.linalg.norm(system.nullspace, axis=1) < _IDENTIFIABLE_TOL
    return IdentifiabilityReport(
        num_paths=system.num_paths,
        num_links=system.num_links,
        rank=system.rank,
        full_column_rank=system.is_full_column_rank,
        identifiable=tuple(np.flatnonzero(identifiable).tolist()),
        unidentifiable=tuple(np.flatnonzero(~identifiable).tolist()),
        redundancy=system.redundancy,
    )
