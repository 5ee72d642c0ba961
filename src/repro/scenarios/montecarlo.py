"""Seeded Monte-Carlo plumbing.

Experiments are trials of a function over independent RNG streams, plus
aggregation.  Centralising this keeps every figure driver reproducible and
the seeding discipline uniform (child streams are spawned, so results do
not depend on trial execution order).

Trials run in-process, one after another.  The one process pool is the
sweep runner's (:func:`repro.sweep.run_sweep`), which shards whole grid
points, not trials.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from typing import TypeVar

import numpy as np

from repro.exceptions import ValidationError
from repro.obs import core as obs
from repro.utils.rng import spawn_rngs

__all__ = ["run_trials", "binned_rate", "success_rate"]

_T = TypeVar("_T")


def run_trials(
    num_trials: int,
    trial: Callable[[np.random.Generator], _T | None],
    *,
    seed: object = 0,
) -> list[_T]:
    """Run ``trial`` over ``num_trials`` independent RNG streams.

    Trial ``i`` draws from the ``i``-th child stream spawned from
    ``seed``.  ``trial`` may return ``None`` to signal the draw was
    invalid (e.g. the sampled victim was unmeasured) — such trials are
    excluded from the result list, mirroring rejection sampling in the
    paper's setup.
    """
    if num_trials < 1:
        raise ValidationError(f"num_trials must be >= 1, got {num_trials}")
    rngs = spawn_rngs(seed, num_trials)
    obs.counter("mc_trial", num_trials)
    with obs.span("mc_trials"):
        outcomes = [trial(rng) for rng in rngs]
    kept = [outcome for outcome in outcomes if outcome is not None]
    if obs.is_enabled():
        obs.event("mc_done", trials=num_trials, kept=len(kept))
    return kept


def success_rate(results: Sequence[dict], flag: str = "success") -> float:
    """Fraction of results with a truthy ``flag`` (nan when empty)."""
    if not results:
        return math.nan
    return sum(1 for r in results if r.get(flag)) / len(results)


def binned_rate(
    results: Sequence[dict],
    x_key: str,
    flag_key: str,
    *,
    bins: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
) -> list[dict]:
    """Success rate per bin of a scalar covariate (the Fig. 7 aggregation).

    Bins are half-open ``[lo, hi)`` except the last, which is closed so a
    covariate of exactly 1.0 (a perfect cut) lands in the top bin.  Results
    with a NaN covariate are skipped.  Each output row carries the bin
    bounds, midpoint, trial count, and success rate (nan for empty bins).
    """
    if len(bins) < 2:
        raise ValidationError("need at least two bin edges")
    edges = list(bins)
    if any(b > a for a, b in zip(edges[1:], edges[:-1])):
        raise ValidationError("bin edges must be non-decreasing")
    rows = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        last = hi == edges[-1]
        members = []
        for r in results:
            x = r.get(x_key)
            if x is None or (isinstance(x, float) and math.isnan(x)):
                continue
            if (lo <= x < hi) or (last and x == hi):
                members.append(r)
        rate = success_rate(members, flag_key) if members else math.nan
        rows.append(
            {
                "lo": lo,
                "hi": hi,
                "mid": (lo + hi) / 2,
                "count": len(members),
                "rate": rate,
            }
        )
    return rows
