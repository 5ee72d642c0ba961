"""Per-run manifests: what exactly produced a result directory.

A manifest freezes the run's provenance next to its outputs — seed,
command, a canonical config digest, package version, interpreter and
platform, an optional topology summary, and wall/CPU time — so a result
file can always be traced back to the inputs that produced it.  The
digest is a SHA-256 over the *sanitized, key-sorted* JSON encoding of
the config, so two runs with the same effective configuration have the
same digest regardless of dict ordering or numpy scalar types.

Typical lifecycle (the CLI does this automatically under ``REPRO_OBS=1``)::

    manifest = RunManifest(command="run", seed=7, config=vars(args))
    ...  # the actual work
    manifest.write("runs/run.manifest.json")
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import time
from pathlib import Path

from repro.obs.core import SCHEMA_VERSION, _package_version, sanitize

__all__ = ["RunManifest", "config_digest", "matrix_digest"]


def config_digest(config: dict | None) -> str:
    """SHA-256 of the canonical JSON encoding of ``config``.

    ``None`` and ``{}`` share the digest of the empty config; non-finite
    floats and numpy scalars are normalised by :func:`repro.obs.core.sanitize`
    first, so the digest is stable across platforms.
    """
    canonical = json.dumps(
        sanitize(config or {}), sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def matrix_digest(matrix: object) -> str:
    """Canonical SHA-256 of a 2-D numeric array (e.g. a routing matrix).

    Defined as :func:`config_digest` over ``{"shape": ..., "data": ...}``
    with the entries normalised by :func:`repro.obs.core.sanitize`, so the
    digest is independent of dtype/container (a numpy array, a nested
    list, and a tuple of rows with equal values all agree) and stable
    across platforms.  :meth:`repro.sweep.cache.FactorizationCache.system_for`
    keys the kernels it builds for bare matrices by this digest.
    """
    tolist = getattr(matrix, "tolist", None)
    rows = tolist() if callable(tolist) else [list(row) for row in matrix]
    return config_digest({"shape": [len(rows), len(rows[0]) if rows else 0], "data": rows})


class RunManifest:
    """Collects run provenance; :meth:`finalize` stamps wall/CPU time.

    Parameters
    ----------
    command:
        What ran (CLI subcommand, driver name, ...).
    seed:
        The run's top-level seed, when it has one.
    config:
        The effective configuration (e.g. ``vars(args)``); digested and
        embedded verbatim (sanitized).
    scenario:
        Anything with a ``describe()`` method returning a flat dict
        (:class:`repro.scenarios.scenario.Scenario` qualifies); its
        summary lands under ``topology``.

    The wall clock starts at construction (monotonic) and CPU time uses
    ``time.process_time``; both are measured at :meth:`finalize` /
    :meth:`write` time.
    """

    def __init__(
        self,
        *,
        command: str = "",
        seed: object = None,
        config: dict | None = None,
        scenario: object = None,
    ) -> None:
        self._wall_start = time.perf_counter()
        self._cpu_start = time.process_time()
        self.data: dict = {
            "format": "repro-run-manifest",
            "schema": SCHEMA_VERSION,
            "version": _package_version(),
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "command": command,
            "seed": sanitize(seed),
            "config": sanitize(config or {}),
            "config_digest": config_digest(config),
            "created_unix": time.time(),
        }
        if scenario is not None:
            self.attach_scenario(scenario)

    def attach_scenario(self, scenario: object) -> None:
        """Embed a topology/path summary from ``scenario.describe()``."""
        describe = getattr(scenario, "describe", None)
        if callable(describe):
            self.data["topology"] = sanitize(describe())

    def finalize(self) -> dict:
        """Stamp wall/CPU seconds and return the manifest dict."""
        self.data["wall_s"] = time.perf_counter() - self._wall_start
        self.data["cpu_s"] = time.process_time() - self._cpu_start
        return self.data

    def write(self, path: str | Path) -> Path:
        """Finalize and write the manifest as JSON; returns the path."""
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps(self.finalize(), indent=2, sort_keys=True, allow_nan=False)
            + "\n"
        )
        return out
