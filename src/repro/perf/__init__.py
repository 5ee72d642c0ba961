"""Performance layer: event and stage instrumentation.

``repro.perf.instrumentation`` is the lightweight event/stage recorder the
hot paths report into (SVD count, LP count, per-stage wall time); it is a
no-op unless a recorder is activated, so the library pays nothing in
normal use.  Timing the paper's evaluation pipelines end to end is the
job of the repository benchmark (``perfbench/``), which reads these
counters through :func:`recording`.
"""

from repro.perf.instrumentation import (
    PerfRecorder,
    active_recorder,
    record_event,
    recording,
    stage,
)

__all__ = [
    "PerfRecorder",
    "active_recorder",
    "record_event",
    "recording",
    "stage",
]
