"""The JSONL event log and its global activation hooks.

One :class:`EventLog` owns one append-only ``.jsonl`` file.  Every record
is a single-line JSON object stamped with ``t`` — seconds since the log
opened, from a monotonic clock — and, when inside a span, the enclosing
span id.  Record kinds (``schema`` 1):

``header``
    First line: schema version, run name, package version, pid, the one
    wall-clock timestamp (``unix_time``) of the run.
``span_start`` / ``span_end``
    Nested timed sections.  ``id`` is unique within the log, ``parent``
    is the enclosing span's id (``None`` at top level), ``depth`` the
    nesting level; ``span_end`` carries ``dur_s``.
``counter``
    A monotone increment: ``n`` this call, ``total`` the running sum.
``gauge``
    A point sample of a named scalar.
``event``
    A free-form point event with arbitrary extra fields.
``footer``
    Last line: final counter totals and total wall seconds.

Non-finite floats in user-supplied fields are encoded as the strings
``"Infinity"`` / ``"-Infinity"`` / ``"NaN"`` so every line stays strict
JSON (``allow_nan=False`` is enforced on write).

The module-level hooks (:func:`span`, :func:`counter`, :func:`event`,
:func:`gauge`) are the library's one instrumentation API.  Besides the
run log, :func:`counter` also feeds an in-memory :class:`PerfRecorder`
activated by :func:`recording` — how tests and the repository benchmark
read counter totals without writing a file.

This module is stdlib-only and imports nothing from ``repro``, so that
any layer can report into it without cycles.  When nothing is active
every hook is a global load plus a ``None`` check (two for
:func:`counter`).
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path

__all__ = [
    "SCHEMA_VERSION",
    "EventLog",
    "PerfRecorder",
    "active_log",
    "counter",
    "default_run_path",
    "detach_inherited_log",
    "enabled",
    "enabled_from_env",
    "env_enabled",
    "event",
    "gauge",
    "is_enabled",
    "recording",
    "sanitize",
    "span",
]

#: Schema version stamped into every run-log header.
SCHEMA_VERSION = 1


def sanitize(value: object) -> object:
    """Make ``value`` strict-JSON-ready (recursively).

    Non-finite floats become the string sentinels ``"Infinity"`` /
    ``"-Infinity"`` / ``"NaN"``; numpy scalars and arrays collapse to
    Python numbers / nested lists via their ``tolist()`` method;
    tuples/sets become lists; anything else unserializable falls back to
    ``repr``.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return value
    if isinstance(value, dict):
        return {str(key): sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [sanitize(item) for item in value]
    # numpy scalars and arrays both expose tolist(): scalars collapse to
    # Python numbers, arrays to (nested) lists — no numpy import needed.
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        try:
            return sanitize(tolist())
        except (TypeError, ValueError):
            return repr(value)
    return repr(value)


class EventLog:
    """An open JSONL run log with nested spans, counters, and gauges.

    Parameters
    ----------
    path:
        Destination ``.jsonl`` file (parent directories are created).
    run_id:
        Human-readable run name for the header (default: the file stem).

    The log keeps running counter totals in :attr:`counters` so summaries
    do not need to re-read the file.  Instances are not thread-safe; the
    library activates at most one per process.  Pool workers forked while
    a log is active inherit it — worker chunk bodies call
    :func:`detach_inherited_log` so only the parent process writes.
    """

    def __init__(self, path: str | Path, *, run_id: str | None = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.counters: Counter[str] = Counter()
        self._span_stack: list[int] = []
        self._next_span_id = 1
        self._closed = False
        self._start = time.perf_counter()
        self._pid = os.getpid()
        self._file = self.path.open("w", encoding="utf-8")
        self._write(
            {
                "t": 0.0,
                "kind": "header",
                "schema": SCHEMA_VERSION,
                "run": run_id or self.path.stem,
                "version": _package_version(),
                "pid": os.getpid(),
                "unix_time": time.time(),
            }
        )

    # -- low-level record plumbing ----------------------------------------

    def _write(self, record: dict) -> None:
        if self._closed:
            return
        self._file.write(
            json.dumps(sanitize(record), allow_nan=False, separators=(",", ":"))
            + "\n"
        )
        # Flush per record so the userspace buffer is empty whenever a
        # pool worker forks — a child inheriting buffered bytes would
        # replay them into the shared descriptor on exit.
        self._file.flush()

    def _emit(self, record: dict) -> None:
        record.setdefault("t", round(time.perf_counter() - self._start, 9))
        if self._span_stack:
            record.setdefault("span", self._span_stack[-1])
        self._write(record)

    # -- the recording surface --------------------------------------------

    def event(self, name: str, **fields: object) -> None:
        """Record a point event with arbitrary extra ``fields``."""
        self._emit({"kind": "event", "name": name, **fields})

    def counter(self, name: str, n: int = 1) -> None:
        """Record ``n`` occurrences of ``name`` (running total kept)."""
        self.counters[name] += n
        self._emit(
            {"kind": "counter", "name": name, "n": int(n), "total": self.counters[name]}
        )

    def gauge(self, name: str, value: float) -> None:
        """Record a point sample of the scalar ``name``."""
        self._emit({"kind": "gauge", "name": name, "value": value})

    @contextmanager
    def span(self, name: str, **fields: object):
        """Time a ``with`` block as a (possibly nested) named span."""
        span_id = self._next_span_id
        self._next_span_id += 1
        parent = self._span_stack[-1] if self._span_stack else None
        self._emit(
            {
                "kind": "span_start",
                "name": name,
                "id": span_id,
                "parent": parent,
                "depth": len(self._span_stack),
                **fields,
            }
        )
        self._span_stack.append(span_id)
        start = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - start
            self._span_stack.pop()
            self._emit(
                {
                    "kind": "span_end",
                    "name": name,
                    "id": span_id,
                    "parent": parent,
                    "dur_s": elapsed,
                }
            )

    def close(self) -> None:
        """Write the footer and close the file (idempotent)."""
        if self._closed:
            return
        self._emit(
            {
                "kind": "footer",
                "counters": dict(self.counters),
                "wall_s": time.perf_counter() - self._start,
            }
        )
        self._closed = True
        self._file.close()


def _package_version() -> str:
    """The installed ``repro`` version without importing the package eagerly.

    The partially-initialised ``repro`` module is consulted only at call
    time (log construction), never at import time, so this module stays
    cycle-free.
    """
    import sys

    module = sys.modules.get("repro")
    return str(getattr(module, "__version__", "unknown"))


class PerfRecorder:
    """In-memory counter totals: what :func:`counter` reported while active.

    ``counters`` maps a counter name (``"svd"``, ``"lp_solve"``, ...) to
    its running total.  Spans, events and gauges go to the run log only.
    """

    def __init__(self) -> None:
        self.counters: Counter[str] = Counter()


#: The currently active event log (None = observability disabled).
_ACTIVE: EventLog | None = None

#: The currently active counter recorder (None = none).
_RECORDER: PerfRecorder | None = None


def active_log() -> EventLog | None:
    """The event log hooks currently report into, if any."""
    return _ACTIVE


def is_enabled() -> bool:
    """True when a run log is active (use to gate costly field assembly)."""
    return _ACTIVE is not None


def detach_inherited_log() -> None:
    """Disable a log inherited from the parent process across ``fork``.

    With the ``fork`` start method a pool worker inherits both the
    module-global active log and the parent's open file descriptor, so
    its events would interleave with (and corrupt the span nesting of)
    the parent's log.  Worker chunk bodies call this first: if the
    active log was created by a different process it is dropped without
    closing the shared descriptor, and the worker runs with the log
    disabled.  No-op in the process that created the log.
    """
    global _ACTIVE  # repro: worker-state-ok (dropping the inherited log IS the job)
    if _ACTIVE is not None and _ACTIVE._pid != os.getpid():
        _ACTIVE = None


def event(name: str, **fields: object) -> None:
    """Record a point event on the active log, if any."""
    if _ACTIVE is not None:
        _ACTIVE.event(name, **fields)


def counter(name: str, n: int = 1) -> None:
    """Record ``n`` occurrences of ``name`` on the active recorder and log."""
    if _RECORDER is not None:
        _RECORDER.counters[name] += n
    if _ACTIVE is not None:
        _ACTIVE.counter(name, n)


def gauge(name: str, value: float) -> None:
    """Record a gauge sample on the active log, if any."""
    if _ACTIVE is not None:
        _ACTIVE.gauge(name, value)


def span(name: str, **fields: object):
    """A context manager timing a span on the active log (no-op when off)."""
    if _ACTIVE is None:
        return nullcontext(None)
    return _ACTIVE.span(name, **fields)


@contextmanager
def enabled(path: str | Path, *, run_id: str | None = None):
    """Activate a fresh :class:`EventLog` at ``path`` for the block.

    Nesting replaces the active log for the inner block and restores the
    outer one afterwards; the inner log is closed (footer written) on
    exit either way.
    """
    global _ACTIVE
    log = EventLog(path, run_id=run_id)
    previous = _ACTIVE
    _ACTIVE = log
    try:
        yield log
    finally:
        _ACTIVE = previous
        log.close()


@contextmanager
def recording(recorder: PerfRecorder | None = None):
    """Activate ``recorder`` (a fresh one by default) for the block.

    Independent of the run log: either, both or neither may be active.
    Nesting replaces the active recorder for the inner block and
    restores the outer one afterwards, so inner work is counted by the
    innermost recorder only.
    """
    global _RECORDER
    rec = recorder if recorder is not None else PerfRecorder()
    previous = _RECORDER
    _RECORDER = rec
    try:
        yield rec
    finally:
        _RECORDER = previous


def env_enabled() -> bool:
    """True when ``REPRO_OBS`` is 1/true/yes/on (any case, blanks stripped)."""
    value = os.environ.get("REPRO_OBS", "").strip().lower()
    return value in ("1", "true", "yes", "on")


def default_run_path() -> Path:
    """Where an environment-activated run log goes.

    ``REPRO_OBS_PATH`` names the exact file; otherwise a timestamped
    ``run-YYYYmmdd-HHMMSS-<pid>.jsonl`` under ``REPRO_OBS_DIR`` (default
    ``obs_runs/``).
    """
    explicit = os.environ.get("REPRO_OBS_PATH", "").strip()
    if explicit:
        return Path(explicit)
    directory = Path(os.environ.get("REPRO_OBS_DIR", "").strip() or "obs_runs")
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return directory / f"run-{stamp}-{os.getpid()}.jsonl"


@contextmanager
def enabled_from_env():
    """Activate a run log iff ``REPRO_OBS`` asks for one.

    Yields the :class:`EventLog` (or ``None`` when disabled or when a log
    is already active — an outer activation wins, so nested CLI calls in
    one process do not clobber each other's files).
    """
    if not env_enabled() or _ACTIVE is not None:
        yield None
        return
    with enabled(default_run_path()) as log:
        yield log
