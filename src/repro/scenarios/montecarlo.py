"""Seeded Monte-Carlo plumbing.

Experiments are trials of a function over independent RNG streams, plus
aggregation.  Centralising this keeps every figure driver reproducible and
the seeding discipline uniform (child streams are spawned, so results do
not depend on trial execution order).

``run_trials`` can fan trials out over a process pool (``workers=N``).
Because every trial draws from its own spawned child stream and results
are reassembled in trial order, parallel runs are bit-identical to serial
ones — parallelism is purely an executor choice, never a statistics one.
"""

from __future__ import annotations

import math
import pickle
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from repro.exceptions import ValidationError
from repro.obs import core as obs
from repro.utils.rng import spawn_rngs

__all__ = [
    "check_picklable",
    "iter_map_chunks",
    "run_trials",
    "run_batched_trials",
    "binned_rate",
    "success_rate",
]


def _run_chunk(
    trial: Callable[[np.random.Generator], dict | None],
    rngs: list[np.random.Generator],
) -> list[dict | None]:
    """Worker body: run one chunk of trials serially (module-level so the
    process pool can pickle it)."""
    obs.detach_inherited_log()
    return [trial(rng) for rng in rngs]


def check_picklable(fn: object, what: str = "worker function") -> None:
    """Raise :class:`ValidationError` when ``fn`` cannot ship to a pool.

    Closures raise TypeError/AttributeError, custom ``__reduce__`` failures
    PicklingError; all mean "not pool-shippable".
    """
    try:
        pickle.dumps(fn)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise ValidationError(
            f"{what} must be picklable for workers > 1 "
            "(use a module-level function or functools.partial); "
            f"pickling failed with: {exc}"
        ) from exc


def iter_map_chunks(
    chunk_fn: Callable[[list], list],
    chunks: Sequence[list],
    *,
    workers: int | None = None,
) -> Iterator[list]:
    """Apply ``chunk_fn`` to each chunk, yielding results in chunk order.

    The generic sharding machinery behind :func:`run_trials` and the
    :mod:`repro.sweep` engine.  ``workers=None``/``1`` (or a single chunk)
    applies ``chunk_fn`` in-process; ``workers > 1`` fans the chunks out
    over a process pool (never more processes than chunks).  Results are
    always yielded in chunk order regardless of which worker ran them, so
    the executor choice can never change what a caller observes — only
    when each chunk becomes available.

    ``chunk_fn`` must be picklable for ``workers > 1``; chunk contents must
    be picklable too.  Yielding (rather than returning a list) lets callers
    checkpoint or log per chunk as results arrive while the pool is still
    running later chunks.
    """
    if workers is not None and workers < 1:
        raise ValidationError(f"workers must be >= 1 or None, got {workers}")
    chunk_list = list(chunks)
    if workers is None or workers == 1 or len(chunk_list) <= 1:
        for chunk in chunk_list:
            yield chunk_fn(chunk)
        return
    check_picklable(chunk_fn, "chunk function")
    pool_workers = min(workers, len(chunk_list))
    with ProcessPoolExecutor(max_workers=pool_workers) as pool:
        yield from pool.map(chunk_fn, chunk_list)


def run_trials(
    num_trials: int,
    trial: Callable[[np.random.Generator], dict | None],
    *,
    seed: object = 0,
    workers: int | None = None,
    chunk_size: int | None = None,
) -> list[dict]:
    """Run ``trial`` over ``num_trials`` independent RNG streams.

    ``trial`` may return ``None`` to signal the draw was invalid (e.g. the
    sampled victim was unmeasured) — such trials are excluded from the
    result list, mirroring rejection sampling in the paper's setup.

    Parameters
    ----------
    workers:
        ``None`` or ``1`` runs serially in-process (the default).  ``N > 1``
        fans the trials out over a process pool in chunks (never more
        processes than trials — ``workers > num_trials`` is clamped, so
        oversubscribed pools neither spawn idle workers nor receive empty
        chunks).  Results are bit-identical to the serial path for the
        same seed: each trial owns a spawned child stream, and outcomes
        are reassembled in trial order regardless of which worker ran
        them.  The trial callable (and anything it closes over) must be
        picklable — module-level functions and ``functools.partial`` over
        picklable arguments qualify; locally-defined closures do not.
    chunk_size:
        Trials per pool task.  ``None`` or ``0`` selects the default
        ``num_trials / (4 * workers)`` (at least 1); negative values are
        rejected.  Larger chunks amortise inter-process pickling; smaller
        chunks balance uneven per-trial cost.  Chunking is an executor
        choice only — any chunk size yields the same results.
    """
    if num_trials < 1:
        raise ValidationError(f"num_trials must be >= 1, got {num_trials}")
    if workers is not None and workers < 1:
        raise ValidationError(f"workers must be >= 1 or None, got {workers}")
    if chunk_size is not None and chunk_size < 0:
        raise ValidationError(
            f"chunk_size must be >= 1, or 0/None for the default, got {chunk_size}"
        )

    rngs = spawn_rngs(seed, num_trials)
    obs.counter("mc_trial", num_trials)
    with obs.span("mc_trials"):
        if workers is None or workers == 1:
            if obs.is_enabled():
                obs.event("mc_run", trials=num_trials, workers=1, chunks=1)
            outcomes = [trial(rng) for rng in rngs]
        else:
            check_picklable(trial, "trial function")
            pool_workers = min(workers, num_trials)
            chunk = chunk_size or max(1, math.ceil(num_trials / (4 * pool_workers)))
            chunks = [rngs[i : i + chunk] for i in range(0, num_trials, chunk)]
            if obs.is_enabled():
                obs.event(
                    "mc_run",
                    trials=num_trials,
                    workers=pool_workers,
                    requested_workers=workers,
                    chunks=len(chunks),
                    chunk_size=chunk,
                )
            outcomes = []
            for index, part in enumerate(
                iter_map_chunks(partial(_run_chunk, trial), chunks, workers=pool_workers)
            ):
                outcomes.extend(part)
                if obs.is_enabled():
                    # Arrival events: each record's monotonic ``t``
                    # stamp gives per-chunk collection timing and the
                    # inter-arrival gaps expose worker utilisation.
                    obs.event(
                        "mc_chunk",
                        index=index,
                        size=len(part),
                        collected=len(outcomes),
                    )
    kept = [outcome for outcome in outcomes if outcome is not None]
    if obs.is_enabled():
        obs.event("mc_done", trials=num_trials, kept=len(kept))
    return kept


def run_batched_trials(
    num_trials: int,
    draw: Callable[[np.random.Generator], np.ndarray | None],
    batch: Callable[[np.ndarray], Sequence],
    *,
    seed: object = 0,
    chunk_size: int | None = None,
) -> list:
    """Monte-Carlo with the linear-algebra applications batched per chunk.

    ``draw`` produces one measurement vector per trial from its own
    spawned RNG stream (returning ``None`` rejects the trial, as in
    :func:`run_trials`); the kept vectors are stacked into |P| x k column
    blocks of up to ``chunk_size`` trials and each block goes through
    ``batch`` in *one* call — e.g.
    :meth:`~repro.detection.consistency.ConsistencyDetector.check_batch`,
    which turns a Python loop of per-trial estimator matvecs into a
    single multi-RHS kernel solve.  ``batch`` must return one result per
    column, in column order.

    Seeding is identical to :func:`run_trials`: trial ``i`` always draws
    from the same spawned child stream regardless of chunking, so results
    are reproducible for any ``chunk_size``.
    """
    if num_trials < 1:
        raise ValidationError(f"num_trials must be >= 1, got {num_trials}")
    if chunk_size is not None and chunk_size < 0:
        raise ValidationError(
            f"chunk_size must be >= 1, or 0/None for the default, got {chunk_size}"
        )
    chunk = chunk_size or 256
    rngs = spawn_rngs(seed, num_trials)
    obs.counter("mc_trial", num_trials)
    with obs.span("mc_trials"):
        draws = [draw(rng) for rng in rngs]
        kept = [np.asarray(d, dtype=float) for d in draws if d is not None]
        if obs.is_enabled():
            obs.event(
                "mc_batch_run",
                trials=num_trials,
                kept=len(kept),
                chunk_size=chunk,
            )
        results: list = []
        for start in range(0, len(kept), chunk):
            block = np.stack(kept[start : start + chunk], axis=1)
            part = list(batch(block))
            if len(part) != block.shape[1]:
                raise ValidationError(
                    f"batch function returned {len(part)} results for a "
                    f"{block.shape[1]}-column block"
                )
            results.extend(part)
            if obs.is_enabled():
                obs.event(
                    "mc_batch_chunk",
                    index=start // chunk,
                    size=block.shape[1],
                    collected=len(results),
                )
    if obs.is_enabled():
        obs.event("mc_done", trials=num_trials, kept=len(results))
    return results


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
