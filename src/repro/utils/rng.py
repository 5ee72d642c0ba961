"""Deterministic random-number-generator plumbing.

Every stochastic component in this library accepts either a seed or a
:class:`numpy.random.Generator`.  Centralising the coercion here keeps the
experiment drivers reproducible and the call sites uniform.
"""

from __future__ import annotations

import copy

import numpy as np

__all__ = ["ensure_rng", "spawn_rngs"]

RngLike = "int | np.random.Generator | np.random.SeedSequence | None"


def ensure_rng(rng: object = None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh nondeterministic generator), an integer seed, a
    :class:`numpy.random.SeedSequence`, or an existing generator (returned
    unchanged, so generator state is shared with the caller).

    >>> g = ensure_rng(42)
    >>> h = ensure_rng(42)
    >>> float(g.random()) == float(h.random())
    True
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    if isinstance(rng, np.random.SeedSequence):
        return np.random.default_rng(rng)
    raise TypeError(
        f"expected None, int, SeedSequence or numpy Generator, got {type(rng).__name__}"
    )


def spawn_rngs(rng: object, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from ``rng``.

    Uses the SeedSequence spawning protocol so that child streams are
    statistically independent regardless of how many draws the parent has
    already made.  Useful for Monte-Carlo trials that must be
    reproducible independent of execution order.

    The children are spawned from a copy of ``rng``'s seed sequence:
    ``SeedSequence.spawn`` advances its parent's child counter, so
    spawning from a caller's live ``SeedSequence`` or ``Generator`` would
    hand out new streams on every call, where an int seed repeats.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    parent = copy.deepcopy(ensure_rng(rng).bit_generator.seed_seq)
    seeds = parent.spawn(count)  # type: ignore[union-attr]
    return [np.random.default_rng(s) for s in seeds]
