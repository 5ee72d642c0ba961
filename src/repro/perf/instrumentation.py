"""Lightweight global instrumentation for the numerical hot paths.

The library's expensive primitives (SVD factorisations, LP assembly, LP
solves, Monte-Carlo trials) report events and stage timings here.  When
neither a recorder nor an observability run log is active — the normal
case — every hook is two global loads plus ``None`` checks, so
instrumentation costs nothing in production use.  Tests and the
repository benchmark activate a :class:`PerfRecorder` around a workload
and read the aggregated counters/timings back out.

Since the :mod:`repro.obs` layer landed, ``stage`` and ``record_event``
are thin shims over it as well: when a structured run log is active
(``REPRO_OBS=1`` or :func:`repro.obs.enabled`), every stage becomes a
nested span and every event a counter record in the JSONL log — all
pre-existing instrumentation points flow into run logs with no caller
changes.  ``PerfRecorder`` keeps aggregating counters and stage times
for those readers.

Only stdlib and the (equally stdlib-only) :mod:`repro.obs.core` are
used; this module must stay import-free of the rest of ``repro`` so that
any layer (``utils``, ``attacks``, ``scenarios``) can report into it
without cycles.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import ExitStack, contextmanager

from repro.obs import core as _obs

__all__ = [
    "PerfRecorder",
    "active_recorder",
    "record_event",
    "recording",
    "stage",
]


class PerfRecorder:
    """Aggregates event counts and per-stage wall-clock time.

    Attributes
    ----------
    counters:
        Event name -> occurrence count (e.g. ``"svd"``, ``"lp_solve"``).
    stage_seconds:
        Stage name -> cumulative wall seconds spent inside that stage.
    stage_calls:
        Stage name -> number of times the stage was entered.
    """

    def __init__(self) -> None:
        self.counters: Counter[str] = Counter()
        self.stage_seconds: dict[str, float] = {}
        self.stage_calls: Counter[str] = Counter()

    def count(self, name: str, n: int = 1) -> None:
        """Record ``n`` occurrences of event ``name``."""
        self.counters[name] += n

    @contextmanager
    def stage(self, name: str):
        """Time a ``with`` block under stage ``name`` (cumulative)."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - start
            self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + elapsed
            self.stage_calls[name] += 1


#: The currently active recorder (None = instrumentation disabled).
_ACTIVE: PerfRecorder | None = None


def active_recorder() -> PerfRecorder | None:
    """The recorder events currently report into, if any."""
    return _ACTIVE


def record_event(name: str, n: int = 1) -> None:
    """Report ``n`` occurrences of ``name`` to the active recorder.

    Also forwarded as a counter record to the active observability run
    log, when one is enabled.
    """
    if _ACTIVE is not None:
        _ACTIVE.count(name, n)
    log = _obs.active_log()
    if log is not None:
        log.counter(name, n)


@contextmanager
def stage(name: str):
    """Time a block under ``name`` when a recorder or run log is active.

    With a :class:`PerfRecorder` active the block accumulates into its
    stage timings; with an observability run log active it additionally
    opens a nested span in the JSONL log.  With neither, a no-op.
    """
    log = _obs.active_log()
    if _ACTIVE is None and log is None:
        yield None
        return
    with ExitStack() as stack:
        if log is not None:
            stack.enter_context(log.span(name))
        if _ACTIVE is not None:
            stack.enter_context(_ACTIVE.stage(name))
        yield _ACTIVE


@contextmanager
def recording(recorder: PerfRecorder | None = None):
    """Activate ``recorder`` (a fresh one by default) for the block.

    Nesting replaces the active recorder for the inner block and restores
    the outer one afterwards — inner workloads are attributed to the
    innermost recorder only, keeping measured sections independent.
    """
    global _ACTIVE
    rec = recorder if recorder is not None else PerfRecorder()
    previous = _ACTIVE
    _ACTIVE = rec
    try:
        yield rec
    finally:
        _ACTIVE = previous
