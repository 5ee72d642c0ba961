"""One measured run of one workload, in a process of its own.

``run.py`` starts this file with a pinned environment (one BLAS thread,
no ``REPRO_*`` knobs) and reads the JSON document it prints as its last
line.  A process per run keeps ``peak_rss_mb`` a property of that run.

    python3 perfbench/worker.py --workload fig7-mc --seed 1 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def _perf_recording():
    """``repro.perf.recording()`` if the program still offers it."""
    try:
        from repro.perf import recording
    except ImportError:
        return None
    return recording()


def run(workload_name: str, seed: int, seconds: float, trace: bool, spans_out: str | None) -> dict:
    workload = WORKLOADS[workload_name](seed)
    tracer = None
    if trace:
        from tracer import PERF_COUNTERS, Tracer

        tracer = Tracer()
        tracer.install()
    recorder_cm = _perf_recording() if trace else None
    with recorder_cm if recorder_cm is not None else contextlib.nullcontext() as recorder:

        def counters() -> dict | None:
            found = getattr(recorder, "counters", None)
            return dict(found) if found is not None else None

        setup_s, setup_layers, state = [], [], None
        for repeat in range(SETUP_REPEATS):
            if state is not None:
                # Free the previous set-up before timing the next one
                # (outside every timed region).
                state = None
                gc.collect()
            if tracer is not None:
                tracer.unit = "setup"
                tracer.spans.clear()
            start = time.perf_counter()
            state = workload.setup()
            setup_s.append(time.perf_counter() - start)
            if tracer is not None:
                setup_layers.append(_layer_seconds(tracer, lambda unit: unit == "setup"))
        setup_counts = dict(tracer.call_counts()) if tracer is not None else {}
        problems = workload.setup_problems(state)

        before = counters()
        mark = (lambda index: setattr(tracer, "unit", index)) if tracer else (lambda index: None)
        measure_start = time.perf_counter()
        durations, outputs = workload.measure(state, seconds, mark)
        measure_wall = time.perf_counter() - measure_start
        after = counters()
    if tracer is not None:
        tracer.uninstall()

    unit_problems = workload.check(state, outputs)
    doc = {
        "workload": workload_name,
        "seed": seed,
        "traced": trace,
        "setup_s": setup_s,
        "setup_problems": problems,
        "describe": workload.describe(state),
        "unit_s": durations,
        "measure_wall_s": measure_wall,
        "unit_problems": [p for p in unit_problems if p is not None][:20],
        "failed": sum(p is not None for p in unit_problems),
        "digests": [workload.digest(o) for o in outputs],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fingerprint": fingerprint(),
    }
    if tracer is not None:
        units = len(durations)

        def measured(unit) -> bool:
            return unit != "setup"

        calls = _calls_by_name(tracer.call_counts(), measured)
        doc["trace"] = {
            "setup_layers_s": setup_layers,
            "setup_calls": {name: n for (unit, name), n in setup_counts.items()},
            "unit_layers_s": _layer_seconds(tracer, measured),
            "unit_calls": calls,
            "unit_results": {k: v for (phase, k), v in tracer.results.items() if phase == "unit"},
            "units": units,
            "unit_wall_s": sum(durations),
            "perf_counters": (
                {k: after.get(k, 0) - before.get(k, 0) for k in PERF_COUNTERS}
                if before is not None and after is not None
                else None
            ),
            "system_hit_frac": (
                workload.system_hit_frac(state) if hasattr(workload, "system_hit_frac") else None
            ),
            "spans": len(tracer.spans),
        }
        if spans_out:
            tracer.write(spans_out)
    return doc


def fingerprint() -> dict:
    """Machine, BLAS and source identity recorded with every result."""
    import ctypes
    import hashlib
    import os
    import platform
    import subprocess

    import numpy as np
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    # The thread count OpenBLAS really runs with, read from the library
    # numpy loaded (wheels bundle it under ``numpy.libs``).
    threads = None
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("lib*openblas*.so*"))
    for lib in libs:
        with contextlib.suppress(OSError):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    threads = int(getattr(handle, symbol)())
                    break
        if threads is not None:
            break
    root = HERE.parent
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10, check=False)
        commit = out.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        source.update(str(path.relative_to(root)).encode())
        source.update(path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": source.hexdigest(),
    }


def _calls_by_name(counts, keep) -> dict:
    totals: dict[str, int] = {}
    for (unit, name), n in counts.items():
        if keep(unit):
            totals[name] = totals.get(name, 0) + n
    return totals


def _layer_seconds(tracer, keep) -> dict[str, float]:
    totals: dict[str, float] = {}
    for (unit, layer), seconds in tracer.self_times().items():
        if keep(unit):
            totals[layer] = totals.get(layer, 0.0) + seconds
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    doc = run(args.workload, args.seed, args.seconds, bool(args.trace), args.spans_out)
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
