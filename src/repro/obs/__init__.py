"""Structured observability: JSONL run logs, manifests, and summaries.

``repro.obs`` is the library's one instrumentation API: hot paths call
``obs.span``, ``obs.counter``, ``obs.event`` and ``obs.gauge``, and
nothing else.  When a log is active, every instrumented hot path
(SVD factorisations, LP assembly and solves, Monte-Carlo chunks,
detection sweeps, the CLI itself) appends one JSON object per event to a
``.jsonl`` file — nested spans with durations, monotonically aggregated
counters, and gauge samples — and a *run manifest* (seed, config digest,
package version, topology summary, wall/CPU time) is written next to it.

The layer is **off by default** and costs a global load plus a ``None``
check per hook when disabled (two for ``counter``).  Enable it either
programmatically::

    from repro import obs

    with obs.enabled("runs/run.jsonl") as log:
        outcome = MaxDamageAttack(context).run()

or from the environment (honoured by the CLI)::

    REPRO_OBS=1 repro run scenario.json        # writes run log + manifest
    repro obs summarize <run.jsonl>            # render it afterwards

Environment variables: ``REPRO_OBS`` (truthy enables), ``REPRO_OBS_PATH``
(exact run-log path), ``REPRO_OBS_DIR`` (directory for auto-named logs,
default ``obs_runs/``).

Counter totals can also be read in memory, without a file::

    with obs.recording() as recorder:
        MaxDamageAttack(context).run()
    recorder.counters["lp_solve"]
"""

from repro.obs.core import (
    SCHEMA_VERSION,
    EventLog,
    PerfRecorder,
    active_log,
    counter,
    default_run_path,
    detach_inherited_log,
    enabled,
    enabled_from_env,
    env_enabled,
    event,
    gauge,
    is_enabled,
    recording,
    span,
)
from repro.obs.manifest import RunManifest, config_digest
from repro.obs.summary import (
    format_summary,
    read_events,
    summarize_events,
    summarize_run,
)

__all__ = [
    "SCHEMA_VERSION",
    "EventLog",
    "PerfRecorder",
    "RunManifest",
    "active_log",
    "config_digest",
    "counter",
    "default_run_path",
    "detach_inherited_log",
    "enabled",
    "enabled_from_env",
    "env_enabled",
    "event",
    "format_summary",
    "gauge",
    "is_enabled",
    "read_events",
    "recording",
    "span",
    "summarize_events",
    "summarize_run",
]
