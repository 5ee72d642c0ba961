"""Benchmark entry point: one run of one workload, metrics as JSON.

    python3 perfbench/run.py --workload fig7-mc --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (``src/repro`` must exist).  The
measured run happens in a child process (``worker.py``) with one BLAS
thread and every ``REPRO_*`` knob cleared, so the program runs its
defaults.  ``--trace 0`` prints the end-to-end metrics.  ``--trace 1``
runs the workload twice with the same seed, untraced and then traced,
and prints the per-layer metrics; the untraced run only serves
``trace.overhead_frac`` and the check that tracing changes no output.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record of
the run (fingerprint, unit problems, layer seconds) is written to
``.perfbench/results/`` in the checkout, and the traced run's spans to
``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS  # noqa: E402

#: Whole-run limit; each child gets what is left of it.
RUN_LIMIT_S = 175.0

#: Pinned for every child.  One BLAS thread (OpenBLAS otherwise starts one
#: per core) so that BLAS calls never compete with the measured loop.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: Unit-level call counts, by traced target name.
PATH_QUERIES = (
    "PathSet.paths_containing_node",
    "PathSet.paths_containing_any_node",
    "PathSet.paths_containing_link",
    "PathSet.paths_containing_any_link",
)
LP_SOLVES = ("repro.attacks.lp.linprog", "PersistentLpSolver.solve")
CHECKS = (
    "ConsistencyDetector.check",
    "ConsistencyDetector.check_batch",
    "OnlineConsistencyDetector.check",
)


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(args, trace: bool, deadline: float, spans_out: Path | None) -> dict:
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "1" if trace else "0",
    ]
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    completed = subprocess.run(
        command,
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - time.monotonic()),
        check=False,
        text=True,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {completed.returncode}")
    return json.loads(lines[-1])


def _quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(doc: dict) -> dict:
    units = doc["unit_s"]
    attempted = len(units)
    return {
        "setup_s": (statistics.median(doc["setup_s"]), "s"),
        "units_per_s": (attempted / sum(units), "1/s"),
        "unit_p50_ms": (statistics.median(units) * 1e3, "ms"),
        "unit_p90_ms": (_quantile(units, 90) * 1e3, "ms"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
        "ok_frac": ((attempted - doc["failed"]) / attempted, "frac"),
    }


def per_layer(traced: dict, plain: dict) -> tuple[dict, list[str]]:
    trace = traced["trace"]
    units = max(trace["units"], 1)
    wall = trace["unit_wall_s"]
    calls = trace["unit_calls"]
    results = trace["unit_results"]
    metrics: dict = {}
    notes: list[str] = []

    setup_shares = [
        {layer: seconds / total for layer, seconds in layers.items()}
        for layers, total in zip(trace["setup_layers_s"], traced["setup_s"])
    ]
    for layer in LAYERS + ("unattributed",):
        if layer == "unattributed":
            setup = [1.0 - sum(s.values()) for s in setup_shares]
            unit = 1.0 - sum(trace["unit_layers_s"].values()) / wall
        else:
            setup = [s.get(layer, 0.0) for s in setup_shares]
            unit = trace["unit_layers_s"].get(layer, 0.0) / wall
        metrics[f"{layer}.setup_frac"] = (statistics.median(setup), "frac")
        metrics[f"{layer}.unit_frac"] = (unit, "frac")

    metrics["routing.ksp_calls"] = (
        trace["setup_calls"].get("repro.routing.ksp.k_shortest_paths", 0), "count"
    )
    metrics["routing.path_queries_per_unit"] = (
        sum(calls.get(n, 0) for n in PATH_QUERIES) / units, "count"
    )
    counters = trace["perf_counters"]
    if counters is None:
        notes.append("repro.perf.recording() unavailable: factorization counts missing")
    else:
        metrics["tomography.factorizations_per_unit"] = (
            (counters.get("svd", 0) + counters.get("gram_cholesky", 0)) / units, "count"
        )
    evolves = results.get("evolve_results", 0)
    metrics["tomography.evolve_incremental_frac"] = (
        results.get("evolve_incremental", 0) / evolves if evolves else 0.0, "frac"
    )
    solves = results.get("lp_solve_results", 0)
    metrics["attacks.lp_solve.calls_per_unit"] = (
        sum(calls.get(n, 0) for n in LP_SOLVES) / units, "count"
    )
    metrics["attacks.lp_solve.feasible_frac"] = (
        results.get("lp_solve_feasible", 0) / solves if solves else 0.0, "frac"
    )
    metrics["detection.checks_per_unit"] = (sum(calls.get(n, 0) for n in CHECKS) / units, "count")
    metrics["sweep.system_hit_frac"] = (trace["system_hit_frac"] or 0.0, "frac")
    metrics["trace.coverage_frac"] = (sum(trace["unit_layers_s"].values()) / wall, "frac")
    common = min(len(plain["unit_s"]), len(traced["unit_s"]))
    metrics["trace.overhead_frac"] = (
        sum(traced["unit_s"][:common]) / sum(plain["unit_s"][:common]) - 1.0, "frac"
    )
    return metrics, notes


def ranked(metrics: dict, suffix: str) -> list[list]:
    """Layers by share of ``suffix`` time, largest first (top three)."""
    shares = [
        [name[: -len(suffix)], value]
        for name, (value, unit) in metrics.items()
        if name.endswith(suffix) and not name.startswith("unattributed")
    ]
    return sorted(shares, key=lambda item: -item[1])[:3]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro source tree under {ROOT}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench"
    (out_dir / "results").mkdir(parents=True, exist_ok=True)
    (out_dir / "traces").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    try:
        plain = _run_child(args, False, deadline, None)
        traced = None
        if args.trace:
            traced = _run_child(args, True, deadline, out_dir / "traces" / f"{stem}.json.gz")
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    problems = list(plain["setup_problems"]) + list(plain["unit_problems"])
    correct = not plain["setup_problems"] and plain["failed"] == 0
    attempted, failed = len(plain["unit_s"]), plain["failed"]
    notes: list[str] = []
    if traced is None:
        metrics = end_to_end(plain)
    else:
        common = min(len(plain["digests"]), len(traced["digests"]))
        same = plain["digests"][:common] == traced["digests"][:common]
        problems += traced["setup_problems"] + traced["unit_problems"]
        if not same:
            problems.append("traced and untraced runs produced different unit outputs")
        correct = correct and same and not traced["setup_problems"] and traced["failed"] == 0
        attempted, failed = len(traced["unit_s"]), traced["failed"]
        metrics, notes = per_layer(traced, plain)

    metrics_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "args": vars(args),
        "correct": correct,
        "problems": problems[:20],
        "notes": notes,
        "metrics": metrics_json,
        "plain": {k: v for k, v in plain.items() if k not in ("digests", "unit_s")},
        "traced": None if traced is None else {
            k: v for k, v in traced.items() if k not in ("digests", "unit_s")
        },
    }
    if traced is not None:
        record["dominant_layers"] = {
            "setup": ranked(metrics, ".setup_frac"),
            "unit": ranked(metrics, ".unit_frac"),
        }
    (out_dir / "results" / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    for line in problems[:20] + notes:
        print(line, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>10}  {name:<40} {value:>14.6g} {unit}", file=sys.stderr)
    if traced is not None:
        for phase, layers in record["dominant_layers"].items():
            top = ", ".join(f"{name} {share:.1%}" for name, share in layers)
            print(f"dominant {phase} layers: {top}", file=sys.stderr)
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed}
    print(json.dumps({**result, "metrics": metrics_json}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
