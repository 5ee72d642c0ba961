"""Timing harness emitting machine-readable ``BENCH_*.json`` files.

Two benchmarks back the performance trajectory:

- :func:`fig1_pipeline_benchmark` instruments the full Fig. 1 attack
  pipeline (scenario build, context, the three strategies, detection) and
  reports per-stage wall time plus the library's internal counters (SVD
  factorisations, LP solves, LP-assembly time).
- :func:`fig5_assembly_benchmark` measures the optimisation this layer
  exists for: the seed's three independent SVD/pinv factorisations
  versus the shared
  :class:`~repro.tomography.linear_system.LinearSystem` kernel, on the
  Fig. 5 max-damage scenario, and records the speedup.

The JSON schema (``schema_version`` 1)::

    {
      "schema_version": 1,
      "created_unix": <float>,
      "benchmarks": {
        "<name>": {
          "wall_s": <float>,
          "stages": {"<stage>": {"seconds": <float>, "calls": <int>}},
          "counters": {"svd": <int>, "lp_solve": <int>, ...},
          ...benchmark-specific fields...
        }
      }
    }

Repro imports are deferred into the functions: the instrumented modules
import ``repro.perf.instrumentation`` themselves, and eager imports here
would cycle.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.exceptions import InfeasibleAttackError
from repro.perf.instrumentation import PerfRecorder, recording, stage

__all__ = [
    "append_trajectory",
    "backends_benchmark",
    "estimators_benchmark",
    "fig1_pipeline_benchmark",
    "fig5_assembly_benchmark",
    "full_perf_benchmark",
    "lp_benchmark",
    "sweep_cache_benchmark",
    "write_bench_json",
]

#: Schema version stamped into every BENCH_*.json payload.
SCHEMA_VERSION = 1


def _best_of(fn, repeat: int) -> float:
    """Minimum wall time of ``repeat`` runs of ``fn`` (noise-robust)."""
    best = float("inf")
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _seed_style_operators(matrix: np.ndarray) -> None:
    """The seed's three independent factorisations of the same ``R``.

    Before the shared kernel, the estimator (``least_squares_pinv``), the
    column-space projector (``mat @ pinv(mat)``) and the nullspace
    (a third SVD) each factorised ``R`` from scratch.
    """
    # The unshared factorisations ARE the thing being benchmarked here.
    operator = np.linalg.pinv(matrix)  # repro: noqa RP001
    matrix @ np.linalg.pinv(matrix)  # repro: noqa RP001
    np.linalg.svd(matrix)  # repro: noqa RP001
    return operator


def _shared_kernel_operators(matrix: np.ndarray) -> None:
    """The same three operators off one :class:`LinearSystem` SVD."""
    from repro.tomography.linear_system import LinearSystem

    system = LinearSystem(matrix)
    system.estimator
    system.column_space_projector
    system.nullspace


def fig5_assembly_benchmark(*, repeat: int = 5, inner_loops: int = 50) -> dict:
    """Seed vs. shared-kernel factorisation on the Fig. 5 max-damage scan.

    Times three independent factorisations per context (seed) versus one
    shared :class:`LinearSystem` SVD (optimised) for the Fig. 1
    scenario's routing matrix.  Each measurement is the best of
    ``repeat`` runs of ``inner_loops`` passes, so sub-millisecond stages
    are resolved well above timer noise.  Also runs the real
    (instrumented) max-damage attack once and embeds its stage/counter
    snapshot.
    """
    from repro.attacks.max_damage import MaxDamageAttack
    from repro.scenarios.simple_network import paper_fig1_scenario

    start = time.perf_counter()
    scenario = paper_fig1_scenario()
    context = scenario.attack_context(["B", "C"])
    candidates = MaxDamageAttack(context).candidates

    def seed_svd() -> None:
        for _ in range(inner_loops):
            _seed_style_operators(context.routing_matrix)

    def shared_svd() -> None:
        for _ in range(inner_loops):
            _shared_kernel_operators(context.routing_matrix)

    svd_seed_s = _best_of(seed_svd, repeat)
    svd_shared_s = _best_of(shared_svd, repeat)

    recorder = PerfRecorder()
    with recording(recorder):
        with stage("max_damage_attack"):
            outcome = MaxDamageAttack(context).run()
            MaxDamageAttack(context).damage_by_victim()

    return {
        "bench": "fig5_max_damage_perf",
        "repeat": repeat,
        "inner_loops": inner_loops,
        "candidates": len(candidates),
        "wall_s": time.perf_counter() - start,
        "seed_path": {"svd_s": svd_seed_s, "svd_calls_per_context": 3},
        "optimized_path": {"svd_s": svd_shared_s, "svd_calls_per_context": 1},
        "speedup": {
            "svd": svd_seed_s / svd_shared_s if svd_shared_s > 0 else float("inf"),
        },
        "attack": {
            "feasible": bool(outcome.feasible),
            "damage": float(outcome.damage),
            **recorder.snapshot(),
        },
    }


def lp_benchmark(*, repeat: int = 5, inner_loops: int = 10) -> dict:
    """Cold reference vs. the warm-started LP engine on the Fig. 5 scan.

    Two implementations of the same full candidate-victim max-damage
    scan (every LP identical in constraints and optimum):

    - **cold** — per candidate, from-scratch band construction,
      constraint assembly and one cold :func:`scipy.optimize.linprog`
      call (:func:`~repro.attacks.lp.solve_manipulation_lp`, the
      reference);
    - **warm** — :class:`~repro.attacks.lp.IncrementalLpSolver`, the
      production path: one persistent HiGHS model, per-candidate
      row-bound edits, warm-started basis.

    ``speedup["fig5_max_damage"]`` is cold / warm.  Damage parity is
    checked on a full pass and the worst absolute gap recorded
    (``max_damage_gap``).
    """
    import math

    from repro.attacks.chosen_victim import build_chosen_victim_bands
    from repro.attacks.lp import IncrementalLpSolver, solve_manipulation_lp
    from repro.attacks.max_damage import MaxDamageAttack
    from repro.scenarios.simple_network import paper_fig1_scenario

    start = time.perf_counter()
    scenario = paper_fig1_scenario()
    context = scenario.attack_context(["B", "C"])
    candidates = MaxDamageAttack(context).candidates
    abnormal_bound = context.thresholds.upper + context.margin

    def cold_scan() -> list[float]:
        damages = []
        for j in candidates:
            bands = build_chosen_victim_bands(context, (j,), "paper")
            solution = solve_manipulation_lp(
                None,
                context.baseline_estimate,
                context.support,
                context.num_paths,
                bands,
                cap=context.cap,
                sub_operator=context.support_operator,
            )
            damages.append(solution.damage if solution.feasible else float("nan"))
        return damages

    warm_solver = IncrementalLpSolver(
        None,
        context.baseline_estimate,
        context.support,
        context.num_paths,
        build_chosen_victim_bands(context, (), "paper"),
        cap=context.cap,
        sub_operator=context.support_operator,
    )

    def warm_scan() -> list[float]:
        return [
            solution.damage if solution.feasible else float("nan")
            for solution in warm_solver.solve_many(
                {j: (abnormal_bound, math.inf)} for j in candidates
            )
        ]

    # One full pass per phase up front: damage parity + warm model build
    # (so the timed warm loop measures steady-state re-solves).
    cold_damages = np.asarray(cold_scan())
    warm_damages = np.asarray(warm_scan())
    max_damage_gap = float(
        np.nanmax(np.abs(cold_damages - warm_damages), initial=0.0)
    )

    cold_s = _best_of(lambda: [cold_scan() for _ in range(inner_loops)], repeat)
    recorder = PerfRecorder()
    with recording(recorder):
        warm_s = _best_of(lambda: [warm_scan() for _ in range(inner_loops)], repeat)

    return {
        "bench": "lp_engine",
        "repeat": repeat,
        "inner_loops": inner_loops,
        "candidates": len(candidates),
        "wall_s": time.perf_counter() - start,
        "phases": {"cold_s": cold_s, "warm_s": warm_s},
        "speedup": {
            "fig5_max_damage": cold_s / warm_s if warm_s > 0 else float("inf"),
        },
        "max_damage_gap": max_damage_gap,
        "presolve_pruned": int(warm_solver.presolve_pruned),
        "warm_phase": recorder.snapshot(),
    }


def fig1_pipeline_benchmark(*, repeat: int = 1) -> dict:
    """Instrumented end-to-end run of the Fig. 1 attack pipeline.

    Stages cover scenario construction, attack-context construction (one
    shared SVD), the three strategies, and the consistency detector;
    counters report every SVD factorisation and LP solve underneath.
    ``repeat`` repeats the whole pipeline, accumulating into one recorder
    (stage ``calls`` shows the multiplicity).
    """
    from repro.attacks.chosen_victim import ChosenVictimAttack
    from repro.attacks.max_damage import MaxDamageAttack
    from repro.attacks.obfuscation import ObfuscationAttack
    from repro.detection.auditor import TomographyAuditor
    from repro.scenarios.simple_network import paper_fig1_scenario

    recorder = PerfRecorder()
    start = time.perf_counter()
    with recording(recorder):
        for _ in range(max(1, repeat)):
            with stage("scenario_build"):
                scenario = paper_fig1_scenario()
            with stage("context_build"):
                context = scenario.attack_context(["B", "C"])
            with stage("chosen_victim"):
                chosen = ChosenVictimAttack(context, [9], mode="exclusive").run()
            with stage("max_damage"):
                MaxDamageAttack(context).run()
            with stage("obfuscation"):
                ObfuscationAttack(context, min_victims=1).run()
            with stage("detection"):
                auditor = TomographyAuditor(scenario.path_set, alpha=200.0)
                if chosen.observed_measurements is None:
                    raise InfeasibleAttackError(
                        "benchmark chosen-victim attack was infeasible"
                    )
                auditor.audit(chosen.observed_measurements)
    return {
        "bench": "fig1_pipeline",
        "repeat": repeat,
        "wall_s": time.perf_counter() - start,
        **recorder.snapshot(),
    }


#: Grid the sweep-cache bench runs: a Waxman-50 topology (dense backend,
#: the SVD is real work) with the two cheapest strategies, so the shared
#: per-matrix work — matrix build, canonical hash, SVD, LP base block,
#: auditor — dominates per-point attack cost and the cache's effect is
#: visible rather than buried under LP time.
_SWEEP_BENCH_SPEC = {
    "format": "repro-sweep",
    "version": 1,
    "name": "bench-cache",
    "seed": 2017,
    "strategies": ["chosen-victim", "naive"],
    "topologies": [{"kind": "waxman", "num_nodes": 50}],
    "attacker_counts": [1, 2, 3],
}


def _sweep_store_process(spec_dict: dict, store_root: str | None) -> dict:
    """One simulated sweep process, run in a real child process.

    Builds everything from scratch — scenarios, a fresh
    :class:`~repro.sweep.cache.FactorizationCache`, a fresh
    :class:`~repro.sweep.store.FactorizationStore` handle over
    ``store_root`` (``None`` = no store) — and reports the factorization
    stage (digest + SVD, or digest + store import) separately from the
    grid-point loop.  The factorization stage is exactly what the disk
    store can warm-start across processes; scenario construction is
    matrix-independent and paid identically on both sides.
    """
    from repro.sweep.cache import FactorizationCache
    from repro.sweep.runner import build_scenarios, run_grid_point
    from repro.sweep.spec import SweepSpec
    from repro.sweep.store import FactorizationStore

    spec = SweepSpec.from_dict(spec_dict)
    points = spec.expand()
    scenarios = build_scenarios(spec, points)
    store = FactorizationStore(store_root) if store_root else None
    cache = FactorizationCache(store=store)
    start = time.perf_counter()
    for scenario in scenarios.values():
        # export_factors() forces the dense factorisation, so the timing
        # covers the SVD on the cold side and the import on the warm side.
        cache.scenario_system_for(scenario).export_factors()
    factorize_s = time.perf_counter() - start
    start = time.perf_counter()
    records = [
        run_grid_point(spec, point, cache=cache, scenarios=scenarios)
        for point in points
    ]
    return {
        "factorize_s": factorize_s,
        "points_s": time.perf_counter() - start,
        "records": records,
        "cache_stats": dict(cache.stats),
        "store_stats": dict(store.stats) if store is not None else {},
    }


def sweep_cache_benchmark(*, repeat: int = 3) -> dict:
    """Cold vs. cached vs. cross-process execution of a sweep grid.

    Three phases over the same six-point grid (:data:`_SWEEP_BENCH_SPEC`):

    - **cold** — every grid point builds its own
      :class:`~repro.sweep.cache.FactorizationCache`, so each point
      re-builds the routing matrix, re-hashes it, re-runs the SVD and
      re-assembles its LP base block (the pre-cache behaviour);
    - **cached** — all points share one cache, the way
      :func:`~repro.sweep.runner.run_sweep` shards them; a hit is a dict
      get;
    - **cross-process** — a second OS process warm-starts from a
      :class:`~repro.sweep.store.FactorizationStore` this process seeded:
      its factorization stage imports the dense SVD factors from disk
      instead of recomputing them (a control child without a store runs
      the same grid cold for comparison).

    All three phases produce bit-identical records (also property-tested
    in ``tests/sweep/test_properties.py``); the recorded ``identical``
    flags re-check it on the measured runs.  ``speedup.sweep`` is the
    cached-vs-cold headline, ``speedup.store_factorize`` the
    cross-process factorization warm-start.
    """
    import tempfile
    from concurrent.futures import ProcessPoolExecutor

    from repro.sweep.cache import FactorizationCache
    from repro.sweep.runner import build_scenarios, run_grid_point
    from repro.sweep.spec import SweepSpec

    spec = SweepSpec.from_dict(_SWEEP_BENCH_SPEC)
    points = spec.expand()
    start = time.perf_counter()
    scenarios = build_scenarios(spec, points)

    def cold() -> list[dict]:
        return [
            run_grid_point(
                spec, point, cache=FactorizationCache(store=None), scenarios=scenarios
            )
            for point in points
        ]

    warm_cache = FactorizationCache(store=None)

    def warm() -> list[dict]:
        return [
            run_grid_point(spec, point, cache=warm_cache, scenarios=scenarios)
            for point in points
        ]

    warm()  # populate the shared cache before timing
    cold_s = _best_of(cold, repeat)
    warm_s = _best_of(warm, repeat)
    cold_records = cold()
    warm_records = warm()

    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as store_root:
        seeding = _sweep_store_process(_SWEEP_BENCH_SPEC, store_root)
        with ProcessPoolExecutor(max_workers=1) as pool:
            child_cold = pool.submit(
                _sweep_store_process, _SWEEP_BENCH_SPEC, None
            ).result()
            child_warm = pool.submit(
                _sweep_store_process, _SWEEP_BENCH_SPEC, store_root
            ).result()

    store_phase = {
        "seed_write_stats": seeding["store_stats"],
        "cold_factorize_s": child_cold["factorize_s"],
        "warm_factorize_s": child_warm["factorize_s"],
        "cold_points_s": child_cold["points_s"],
        "warm_points_s": child_warm["points_s"],
        "warm_cache_stats": child_warm["cache_stats"],
        "warm_store_stats": child_warm["store_stats"],
    }
    return {
        "bench": "sweep_cache",
        "repeat": repeat,
        "points": len(points),
        "wall_s": time.perf_counter() - start,
        "cold_s": cold_s,
        "cached_s": warm_s,
        "speedup": {
            "sweep": cold_s / warm_s if warm_s > 0 else float("inf"),
            "store_factorize": (
                child_cold["factorize_s"] / child_warm["factorize_s"]
                if child_warm["factorize_s"] > 0
                else float("inf")
            ),
        },
        "identical": {
            "cached_vs_cold": warm_records == cold_records,
            "store_vs_cold": child_warm["records"] == cold_records
            and child_cold["records"] == cold_records,
        },
        "cache_stats": dict(warm_cache.stats),
        "store_phase": store_phase,
    }


def _path_incidence_matrix(num_paths: int, num_links: int, hops: int, seed: int) -> np.ndarray:
    """A random path-like 0/1 incidence matrix (``hops`` ones per row)."""
    rng = np.random.default_rng(seed)
    matrix = np.zeros((num_paths, num_links))
    for i in range(num_paths):
        cols = rng.choice(num_links, size=min(hops, num_links), replace=False)
        matrix[i, cols] = 1.0
    return matrix


def _time_factorize_estimate(matrix, backend: str, observed: np.ndarray, repeat: int) -> float:
    """Best wall time of a cold factorise + one estimate on ``backend``."""

    def run() -> None:
        from repro.tomography.linear_system import LinearSystem

        system = LinearSystem(matrix, backend=backend)
        system.estimate(observed)

    return _best_of(run, repeat)


def _isp_path_set(seed: int, target_paths: int, *, dedupe: bool = False):
    """Shortest paths between sampled monitor pairs on the large ISP topology.

    Pairs are sampled (the quadratic all-pairs enumeration is exactly what
    the pair_budget knob exists to avoid) until the path count clears
    ``target_paths``.  ``dedupe`` skips value-duplicate paths — the online
    bench needs a full-row-rank matrix for the Gram-Cholesky regime, and a
    pair sampled twice would add an identical row.
    """
    from repro.routing.ksp import k_shortest_paths
    from repro.routing.paths import MeasurementPath, PathSet
    from repro.exceptions import NoPathError
    from repro.topology.generators.isp import large_isp_topology

    rng = np.random.default_rng(seed)
    topology = large_isp_topology(seed=seed)
    nodes = topology.nodes()
    path_set = PathSet(topology)
    seen: set = set()
    attempts = 0
    while path_set.num_paths < target_paths and attempts < 20 * target_paths:
        attempts += 1
        a, b = rng.choice(len(nodes), size=2, replace=False)
        try:
            sequences = k_shortest_paths(topology, nodes[int(a)], nodes[int(b)], 1)
        except NoPathError:
            continue
        path = MeasurementPath(topology, sequences[0])
        if dedupe:
            key = path.key()
            if key in seen:
                continue
            seen.add(key)
        path_set.append(path)
    return topology, path_set


def backends_benchmark(*, repeat: int = 3, seed: int = 2017) -> dict:
    """Dense-vs-sparse backend crossover curve plus the ISP-scale headline.

    Two measurements:

    - **Crossover curve**: cold factorise + one estimate on synthetic
      path-incidence matrices of growing size, timed on both backends.
      Small systems favour the dense SVD (the sparse Gram machinery has
      fixed overhead); the curve records where sparse takes over.
    - **ISP scale**: shortest paths between sampled monitor pairs of
      :func:`~repro.topology.generators.isp.large_isp_topology` give a
      real routing matrix with thousands of links; the sparse backend's
      Gram solve replaces a dense SVD that is cubic in these dimensions.
      The ``speedup`` entry is the acceptance headline for the sparse
      backend (target: >= 3x on factorise + estimate).
    """
    from repro.routing.routing_matrix import density

    start = time.perf_counter()
    rng = np.random.default_rng(seed)

    crossover = []
    for num_paths, num_links, hops in (
        (40, 60, 4),
        (120, 180, 6),
        (320, 480, 8),
        (800, 1200, 10),
    ):
        matrix = _path_incidence_matrix(num_paths, num_links, hops, seed)
        observed = matrix @ rng.uniform(1.0, 20.0, size=num_links)
        dense_s = _time_factorize_estimate(matrix, "dense", observed, repeat)
        sparse_s = _time_factorize_estimate(matrix, "sparse", observed, repeat)
        crossover.append(
            {
                "paths": num_paths,
                "links": num_links,
                "density": float(matrix.sum() / matrix.size),
                "dense_s": dense_s,
                "sparse_s": sparse_s,
                "speedup": dense_s / sparse_s if sparse_s > 0 else float("inf"),
            }
        )

    # ISP scale: real shortest paths on the large topology, sampled until
    # the path count clears the acceptance floor.
    topology, path_set = _isp_path_set(seed, 1600)
    matrix = path_set.routing_matrix()
    observed = matrix @ rng.uniform(1.0, 20.0, size=matrix.shape[1])
    isp_repeat = max(1, min(repeat, 2))  # the dense SVD here costs seconds
    dense_s = _time_factorize_estimate(matrix, "dense", observed, isp_repeat)
    sparse_s = _time_factorize_estimate(matrix, "sparse", observed, isp_repeat)
    return {
        "bench": "backends",
        "repeat": repeat,
        "wall_s": time.perf_counter() - start,
        "crossover": crossover,
        "isp_scale": {
            "nodes": topology.num_nodes,
            "links": matrix.shape[1],
            "paths": matrix.shape[0],
            "density": density(matrix),
            "dense_s": dense_s,
            "sparse_s": sparse_s,
        },
        "speedup": {
            "isp_factorize_estimate": dense_s / sparse_s if sparse_s > 0 else float("inf"),
        },
    }


def estimators_benchmark(*, repeat: int = 3, inner_loops: int = 200, seed: int = 2017) -> dict:
    """Per-family estimate latency across the estimator zoo.

    Two systems — the paper's Fig. 1 matrix and a mid-size synthetic
    path-incidence matrix — each factorised once and shared by every
    family (the zoo's contract).  Per family, the single-vector
    :meth:`~repro.tomography.estimator_zoo.Estimator.estimate` latency is
    the best of ``repeat`` runs of ``inner_loops`` solves; batch latency
    covers one ``estimate_batch`` over a 32-column block.  The iterative
    families (``nnls``, ``l1``) run fewer inner loops — their per-solve
    cost is orders above the closed-form families and the bench should
    stay seconds, not minutes.

    ``ls_vs_kernel`` is the acceptance headline: the zoo's ``ls`` member
    over the raw :meth:`LinearSystem.estimate` it delegates to.  A ratio
    near 1.0 certifies the pluggable layer adds only dispatch overhead to
    the default path.
    """
    from repro.scenarios.simple_network import paper_fig1_scenario
    from repro.tomography.estimator_zoo import estimator_names, resolve_estimator
    from repro.tomography.linear_system import LinearSystem

    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    scenario = paper_fig1_scenario()
    fig1_matrix = scenario.path_set.routing_matrix()
    synth_matrix = _path_incidence_matrix(120, 180, 6, seed)
    systems = {
        "fig1": (LinearSystem(fig1_matrix), fig1_matrix @ scenario.true_metrics),
        "synthetic-120x180": (
            LinearSystem(synth_matrix),
            synth_matrix @ rng.uniform(1.0, 20.0, size=synth_matrix.shape[1]),
        ),
    }
    batch_cols = 32
    sections: dict = {}
    ls_vs_kernel: dict = {}
    for label, (system, observed) in systems.items():
        block = np.tile(observed[:, None], (1, batch_cols))

        def kernel() -> None:
            for _ in range(inner_loops):
                system.estimate(observed)

        kernel_s = _best_of(kernel, repeat)
        families: dict = {}
        for name in estimator_names():
            estimator = resolve_estimator(name, system=system)
            loops = inner_loops if name in ("ls", "bayes-map", "ridge") else max(
                1, inner_loops // 20
            )

            def single() -> None:
                for _ in range(loops):
                    estimator.estimate(observed)

            if name == "l1":
                # Build the persistent LP model off-clock so the timed
                # loop measures warm re-solves, like the lp bench does.
                estimator.estimate(observed)
            single_s = _best_of(single, repeat)
            batch_s = _best_of(lambda: estimator.estimate_batch(block), repeat)
            families[name] = {
                "estimate_s": single_s,
                "inner_loops": loops,
                "per_solve_us": 1e6 * single_s / loops,
                "batch32_s": batch_s,
            }
        sections[label] = {
            "paths": system.num_paths,
            "links": system.num_links,
            "kernel_estimate_s": kernel_s,
            "estimators": families,
        }
        ls_vs_kernel[label] = (
            families["ls"]["estimate_s"] / kernel_s if kernel_s > 0 else float("inf")
        )
    return {
        "bench": "estimator_zoo",
        "repeat": repeat,
        "inner_loops": inner_loops,
        "wall_s": time.perf_counter() - start,
        "systems": sections,
        "ls_vs_kernel": ls_vs_kernel,
    }


#: Online-bench scale presets: path-count target on the large ISP topology.
_ONLINE_SCALES = {"small": 800, "isp_large": 2500}


def online_benchmark(
    *,
    repeat: int = 3,
    epochs: int = 6,
    seed: int = 2017,
    scales: tuple = ("small", "isp_large"),
) -> dict:
    """Per-epoch churn latency: incremental ``evolve`` vs full refactorize.

    Real shortest paths on the large ISP topology (~2.5k routers), sparse
    backend, wide regime (paths < links, so the small side is the
    ``R R^T`` Gram).  Each epoch one path fails and a fresh reserve path
    joins — the dominant churn pattern :meth:`LinearSystem.evolve` fuses
    into a single-allocation Cholesky replace.  Two latencies per epoch:

    - ``evolve_s`` — bring the system current incrementally (rank-1
      kernels + round-trip certification + seeding), best of ``repeat``.
    - ``refactorize_s`` — the alternative: rebuild ``LinearSystem`` cold
      and force its factorization (Gram build + ``cho_factor`` + rank
      certificate), best of ``repeat``.

    The online check (estimate + residual) is timed separately on both
    arms — it is identical downstream work, and its estimates are
    compared per epoch (``max_abs_err``) so the headline speedup comes
    with a bit-consistency certificate in every benchmarked phase.
    ``speedup.online_per_epoch`` (isp_large) is the acceptance headline;
    ``speedup.online_small`` backs the CI smoke floor.
    """
    from repro.tomography.linear_system import LinearSystem

    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    sections: dict = {}
    speedups: dict = {}
    for scale in scales:
        target = _ONLINE_SCALES[scale]
        topology, path_set = _isp_path_set(seed, target + epochs, dedupe=True)
        full_matrix = path_set.sparse_routing_matrix()
        base = full_matrix[:target].tocsr()
        reserve = full_matrix[target : target + epochs]
        n = base.shape[1]
        x_true = rng.uniform(1.0, 20.0, size=n)
        system = LinearSystem(base, backend="sparse")
        system.estimate(system.predict(x_true))  # warm the factorization

        records = []
        evolve_total = refactor_total = check_inc_total = check_cold_total = 0.0
        worst_err = 0.0
        for epoch in range(min(epochs, reserve.shape[0])):
            index = int(rng.integers(0, system.num_paths))
            new_row = np.asarray(reserve[epoch].todense()).ravel()

            evolve_s = _best_of(
                lambda: system.evolve(remove_indices=[index], add_rows=[new_row]),
                repeat,
            )
            evolved = system.evolve(remove_indices=[index], add_rows=[new_row])

            def refactorize() -> None:
                cold = LinearSystem(evolved.raw_matrix, backend="sparse")
                cold.rank  # noqa: B018 — forces Gram build + cho_factor + certificate

            refactor_s = _best_of(refactorize, repeat)
            observed = evolved.predict(x_true)
            check_inc_s = _best_of(lambda: evolved.estimate(observed), repeat)
            cold = LinearSystem(evolved.raw_matrix, backend="sparse")
            check_cold_s = _best_of(lambda: cold.estimate(observed), repeat)
            err = float(
                np.abs(evolved.estimate(observed) - cold.estimate(observed)).max()
            )

            evolve_total += evolve_s
            refactor_total += refactor_s
            check_inc_total += check_inc_s
            check_cold_total += check_cold_s
            worst_err = max(worst_err, err)
            records.append(
                {
                    "epoch": epoch,
                    "removed_index": index,
                    "incremental": bool(evolved.evolved_incrementally),
                    "evolve_s": evolve_s,
                    "refactorize_s": refactor_s,
                    "check_incremental_s": check_inc_s,
                    "check_cold_s": check_cold_s,
                    "speedup": refactor_s / evolve_s if evolve_s > 0 else float("inf"),
                    "max_abs_err": err,
                }
            )
            system = evolved

        sections[scale] = {
            "nodes": topology.num_nodes,
            "links": n,
            "paths": target,
            "epochs": len(records),
            "incremental_epochs": sum(r["incremental"] for r in records),
            "evolve_total_s": evolve_total,
            "refactorize_total_s": refactor_total,
            "check_incremental_total_s": check_inc_total,
            "check_cold_total_s": check_cold_total,
            "max_abs_err": worst_err,
            "consistent": worst_err <= 1e-8,
            "per_epoch": records,
        }
        speedups[f"online_{'per_epoch' if scale == 'isp_large' else scale}"] = (
            refactor_total / evolve_total if evolve_total > 0 else float("inf")
        )
        speedups[
            f"online_{'isp_large' if scale == 'isp_large' else scale}_end_to_end"
        ] = (
            (refactor_total + check_cold_total) / (evolve_total + check_inc_total)
            if evolve_total + check_inc_total > 0
            else float("inf")
        )
    return {
        "bench": "online",
        "repeat": repeat,
        "epochs": epochs,
        "wall_s": time.perf_counter() - start,
        "scales": sections,
        "speedup": speedups,
    }


def full_perf_benchmark(*, repeat: int = 3) -> dict:
    """All benchmark sections in one payload (what ``BENCH_perf.json`` holds)."""
    return {
        "fig1_pipeline": fig1_pipeline_benchmark(repeat=repeat),
        "fig5_max_damage": fig5_assembly_benchmark(repeat=repeat),
        "lp": lp_benchmark(repeat=repeat),
        "sweep_cache": sweep_cache_benchmark(repeat=repeat),
        "backends": backends_benchmark(repeat=repeat),
        "estimators": estimators_benchmark(repeat=repeat),
        "online": online_benchmark(repeat=repeat),
    }


def write_bench_json(benchmarks: dict, path: str | Path) -> Path:
    """Write ``benchmarks`` under the versioned envelope; returns the path.

    ``benchmarks`` maps section name to a benchmark payload (one of the
    ``*_benchmark`` results above, or any JSON-ready dict).
    """
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "created_unix": time.time(),
        "benchmarks": benchmarks,
    }
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out


def _trajectory_point(benchmarks: dict) -> dict:
    """Compact per-run summary kept in the trajectory (wall time + speedups)."""
    point: dict = {}
    for name, payload in benchmarks.items():
        entry: dict = {}
        if isinstance(payload, dict):
            if "wall_s" in payload:
                entry["wall_s"] = payload["wall_s"]
            speedup = payload.get("speedup")
            if isinstance(speedup, dict):
                entry["speedup"] = dict(speedup)
        point[name] = entry
    return point


def append_trajectory(benchmarks: dict, path: str | Path) -> Path:
    """Append one compact benchmark point to a trajectory file.

    The trajectory file accumulates a summary of every ``--trajectory``
    bench run (schema_version 1)::

        {"schema_version": 1, "runs": [{"created_unix": ..., "benchmarks":
         {"<name>": {"wall_s": ..., "speedup": {...}}}}, ...]}

    Existing runs are preserved — the file is append-only at the ``runs``
    level.  A missing or unparseable file starts a fresh trajectory (the
    unparseable original is not overwritten silently: parse errors raise).
    """
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    if out.exists():
        try:
            doc = json.loads(out.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"existing trajectory file {out} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or not isinstance(doc.get("runs"), list):
            raise ValueError(f"existing trajectory file {out} has no 'runs' list")
    else:
        doc = {"schema_version": SCHEMA_VERSION, "runs": []}
    doc["runs"].append(
        {"created_unix": time.time(), "benchmarks": _trajectory_point(benchmarks)}
    )
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return out
