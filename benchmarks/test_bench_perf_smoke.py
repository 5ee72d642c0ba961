"""Perf smoke — the shared-kernel speedups, recorded to BENCH_perf.json.

Runs the timing harness from ``repro.perf.bench`` on the Fig. 1 scenario:
the Fig. 5 max-damage workload timed with the seed-style independent
factorisations versus the shared ``LinearSystem`` kernel, the cold
``linprog`` reference versus the warm ``IncrementalLpSolver``, plus the
instrumented full-pipeline stage breakdown.  The JSON lands in
``benchmarks/results/BENCH_perf.json``.

The speedup assertions use a safety margin below the headline targets so
that a loaded CI box does not turn timing noise into a failure; the
measured numbers are what the JSON records.
"""

import json

from repro.perf import full_perf_benchmark, write_bench_json

# LP engine acceptance floor: headline target is >= 5x cold-vs-warm on the
# fig5 scan (measured ~9-20x); 3x absorbs CI noise.
MIN_LP_WARM_SPEEDUP = 3.0

# Sweep-cache acceptance floor: cached-vs-cold on the bench grid must hold
# >= 2x (measured ~3-4x; the shared per-matrix work — SVD, LP base block,
# auditor, canonical hash — is the majority of a cold point there).
MIN_SWEEP_CACHE_SPEEDUP = 2.0


def test_perf_smoke_writes_bench_json(results_dir, record):
    benchmarks = full_perf_benchmark(repeat=3)
    path = results_dir / "BENCH_perf.json"
    write_bench_json(benchmarks, path)

    envelope = json.loads(path.read_text())
    assert envelope["schema_version"] == 1
    assert set(envelope["benchmarks"]) == {
        "fig1_pipeline",
        "fig5_max_damage",
        "lp",
        "sweep_cache",
        "backends",
    }

    fig5 = envelope["benchmarks"]["fig5_max_damage"]
    speedup = fig5["speedup"]
    record("BENCH_perf_summary", "perf smoke: svd x{svd:.2f}".format(**speedup))
    assert speedup["svd"] > 1.0

    # Per-stage timings must be present for both paths.
    for side in ("seed_path", "optimized_path"):
        assert fig5[side]["svd_s"] >= 0.0
    assert fig5["optimized_path"]["svd_calls_per_context"] == 1

    fig1 = envelope["benchmarks"]["fig1_pipeline"]
    assert fig1["counters"]["svd"] >= 1
    assert fig1["counters"]["lp_solve"] >= 1
    for stage in ("context_build", "max_damage", "detection"):
        assert stage in fig1["stages"]

    lp = envelope["benchmarks"]["lp"]
    record(
        "BENCH_lp_summary",
        "lp engine: cold/warm x{warm:.2f}, gap {gap:.2e}".format(
            warm=lp["speedup"]["fig5_max_damage"],
            gap=lp["max_damage_gap"],
        ),
    )
    # Both phases solve identical LPs — optimal damage must agree to
    # solver tolerance.
    assert lp["max_damage_gap"] <= 1e-6
    for phase in ("cold_s", "warm_s"):
        assert lp["phases"][phase] > 0.0
    assert lp["speedup"]["fig5_max_damage"] >= MIN_LP_WARM_SPEEDUP

    sweep = envelope["benchmarks"]["sweep_cache"]
    record(
        "BENCH_sweep_summary",
        "sweep cache: cached-vs-cold x{sweep:.2f}, "
        "cross-process factorize x{store_factorize:.2f}".format(**sweep["speedup"]),
    )
    assert sweep["points"] >= 4
    assert sweep["speedup"]["sweep"] >= MIN_SWEEP_CACHE_SPEEDUP
    assert sweep["cache_stats"]["system_hit"] > 0
    # The cache must hash each distinct matrix exactly once per process.
    assert sweep["cache_stats"]["digest_compute"] == 1
    # Cross-process phase: the child warm-started from the disk store
    # (real import, not a recompute), and every phase agreed bit-for-bit.
    assert sweep["store_phase"]["warm_store_stats"]["hit"] >= 1
    assert sweep["store_phase"]["warm_cache_stats"]["store_import"] >= 1
    assert sweep["store_phase"]["seed_write_stats"]["write"] >= 1
    assert sweep["speedup"]["store_factorize"] > 1.0
    assert sweep["identical"] == {"cached_vs_cold": True, "store_vs_cold": True}

    backends = envelope["benchmarks"]["backends"]
    isp = backends["isp_scale"]
    # The acceptance floor for the sparse kernel: >= 3x on the ISP-scale
    # factorise+estimate stage (measured tens-of-x; 3x leaves timing
    # headroom on loaded CI boxes).
    assert isp["links"] >= 2000 and isp["paths"] >= 1500
    assert backends["speedup"]["isp_factorize_estimate"] >= 3.0
    assert len(backends["crossover"]) >= 3
