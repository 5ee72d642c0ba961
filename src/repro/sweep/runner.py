"""Sharded, resumable execution of a sweep grid.

The runner turns a :class:`~repro.sweep.spec.SweepSpec` into scenario
runs.  It owns the library's one process pool (:func:`iter_map_chunks`):
grid points are grouped by topology — one cache domain per group, so a
worker factorises each routing matrix at most once — and the groups are
mapped across the pool in a fixed order.  Because every grid point is a
pure function of the spec, results are bit-identical for ``workers=1``
and ``workers=N``, and the results file is byte-identical too (chunks
are collected in submission order).

Every completed point is checkpointed to an append-only JSONL results
file under the same strict-JSON sentinel rules as
:func:`repro.scenarios.serialization.scenario_to_json`.  A restarted
sweep (``resume=True``) first replays the file, verifies it belongs to
this spec (header digest) and is intact (any unparseable content is an
error — the file is never clobbered), then runs only the points whose
config digest is not yet present.

Seeding: scenario construction for topology ``i`` draws from
``SeedSequence(seed, spawn_key=(0, i))`` and grid point ``p`` from
``SeedSequence(seed, spawn_key=(1, p))`` — disjoint, order-independent
streams, so a resumed sweep reproduces exactly the draws of an
uninterrupted one.
"""

from __future__ import annotations

import json
import pickle
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from repro.exceptions import ReproError, SerializationError, ValidationError
from repro.metrics.states import StateThresholds
from repro.obs import core as obs
from repro.scenarios.experiments import sample_victim
from repro.scenarios.scenario import Scenario
from repro.sweep.cache import FactorizationCache
from repro.sweep.spec import GridPoint, SweepSpec, build_topology

__all__ = ["build_scenarios", "iter_map_chunks", "read_checkpoint", "run_grid_point", "run_sweep"]


# ----------------------------------------------------------------------
# deterministic derivations
# ----------------------------------------------------------------------
def _scenario_rng(spec: SweepSpec, topology_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(spec.seed, spawn_key=(0, topology_index))
    )


def _point_rng(spec: SweepSpec, point_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(spec.seed, spawn_key=(1, point_index))
    )


def _build_scenario(spec: SweepSpec, topology_index: int) -> Scenario:
    """The (deterministic) scenario for one topology entry."""
    entry = spec.topologies[topology_index]
    topology = build_topology(entry, seed=spec.seed)
    kwargs = dict(spec.scenario)
    thresholds = kwargs.pop("thresholds", None)
    if thresholds is not None:
        kwargs["thresholds"] = StateThresholds(
            lower=float(thresholds[0]), upper=float(thresholds[1])
        )
    delay_range = kwargs.pop("delay_range", None)
    if delay_range is not None:
        kwargs["delay_range"] = (float(delay_range[0]), float(delay_range[1]))
    return Scenario.build(
        topology,
        rng=_scenario_rng(spec, topology_index),
        name=entry["label"],
        **kwargs,
    )


def build_scenarios(
    spec: SweepSpec, points: list[GridPoint] | None = None
) -> dict[int, Scenario]:
    """Pre-built scenarios for ``points`` (default: the whole grid).

    Returns the per-topology-index dict :func:`run_grid_point` accepts as
    its ``scenarios`` memo.  Scenario construction is matrix-independent
    and often dominates cold wall time; building up front lets callers
    (the repository benchmark, white-box tests) time the factorization
    work on its own.
    """
    points = spec.expand() if points is None else points
    return {
        index: _build_scenario(spec, index)
        for index in sorted({p.topology_index for p in points})
    }


def _sample_attackers(scenario: Scenario, rng: np.random.Generator, count: int) -> list:
    """Draw the point's attacker node set (monitors are not protected)."""
    nodes = scenario.topology.nodes()
    picks = rng.choice(len(nodes), size=min(count, len(nodes)), replace=False)
    return [nodes[int(i)] for i in picks]


# ----------------------------------------------------------------------
# one grid point
# ----------------------------------------------------------------------
def run_grid_point(
    spec: SweepSpec,
    point: GridPoint,
    *,
    cache: FactorizationCache | None = None,
    scenarios: dict[int, Scenario] | None = None,
) -> dict:
    """Execute one grid point; returns its JSON-safe result record.

    ``cache`` shares estimators and auditors across calls (each
    scenario factorizes its own routing matrix once);
    ``scenarios`` memoises built scenarios per topology index (both are
    created fresh when omitted — a cold run).  The record depends only on
    the spec and the point, never on cache warmth: cached and cold runs
    are bit-identical (property-tested).
    """
    cache = cache if cache is not None else FactorizationCache()
    scenarios = scenarios if scenarios is not None else {}
    scenario = scenarios.get(point.topology_index)
    if scenario is None:
        scenario = _build_scenario(spec, point.topology_index)
        scenarios[point.topology_index] = scenario

    rng = _point_rng(spec, point.index)
    attackers = _sample_attackers(scenario, rng, point.num_attackers)
    attack = spec.attack
    mode, confined, stealthy = attack["mode"], attack["confined"], attack["stealthy"]
    # Optional-by-absence, like max_victims: specs that do not name an
    # estimator keep the historical least-squares defender (and their
    # point digests); specs that do judge outcomes and run detection
    # under the named family.
    estimator = attack.get("estimator")
    estimator_params = attack.get("estimator_params")

    record = {
        "index": point.index,
        "digest": point.digest,
        "topology": point.topology_label,
        "strategy": point.strategy,
        "num_attackers": point.num_attackers,
        "attackers": [obs.sanitize(a) for a in attackers],
    }
    obs.counter("sweep_point")
    with obs.span(
        "sweep_point",
        index=point.index,
        topology=point.topology_label,
        strategy=point.strategy,
        num_attackers=point.num_attackers,
    ):
        try:
            context = cache.context_for(
                scenario,
                tuple(attackers),
                estimator=estimator,
                estimator_params=estimator_params,
            )
            outcome = None
            if point.strategy == "chosen-victim":
                from repro.attacks.chosen_victim import ChosenVictimAttack

                victim = sample_victim(scenario, rng, set(attackers))
                if victim is None:
                    record.update(_infeasible_fields("no victim candidate"))
                else:
                    outcome = ChosenVictimAttack(
                        context,
                        [victim],
                        mode=mode,
                        stealthy=stealthy,
                        confined=confined,
                    ).run()
            elif point.strategy == "max-damage":
                from repro.attacks.max_damage import MaxDamageAttack

                outcome = MaxDamageAttack(
                    context, mode=mode, stealthy=stealthy, confined=confined
                ).run()
            elif point.strategy == "obfuscation":
                from repro.attacks.obfuscation import ObfuscationAttack

                outcome = ObfuscationAttack(
                    context,
                    min_victims=attack["min_victims"],
                    # The knob is optional-by-absence: specs that do not
                    # set it keep the historical pinned window (and their
                    # point digests), specs that do get a real range.
                    max_victims=attack.get("max_victims", attack["min_victims"]),
                    mode=mode,
                    stealthy=stealthy,
                    confined=confined,
                ).run()
            else:  # naive
                from repro.attacks.naive import NaiveDelayAttack

                outcome = NaiveDelayAttack(context).run()

            if outcome is not None:
                record.update(_outcome_fields(outcome))
                if outcome.feasible:
                    auditor = cache.auditor_for(
                        scenario,
                        alpha=attack["alpha"],
                        estimator=estimator,
                        estimator_params=estimator_params,
                    )
                    report = auditor.audit(outcome.observed_measurements)
                    record["detected"] = bool(not report.trustworthy)
                    record["residual_l1"] = float(report.detection.residual_l1)
        except ReproError as exc:
            # Degenerate draws (attacker on no path, contradictory bands in
            # tiny graphs) surface as library errors; a sweep records them
            # as infeasible points rather than aborting the whole grid.
            record.update(_infeasible_fields(f"error: {exc}"))
    return record


def _infeasible_fields(status: str) -> dict:
    return {
        "feasible": False,
        "damage": 0.0,
        "victim_links": [],
        "num_victims": 0,
        "num_abnormal": 0,
        "num_uncertain": 0,
        "detected": None,
        "residual_l1": None,
        "status": status,
    }


def _outcome_fields(outcome) -> dict:
    fields = {
        "feasible": bool(outcome.feasible),
        "damage": float(outcome.damage),
        "victim_links": [int(v) for v in outcome.victim_links],
        "num_victims": len(outcome.victim_links),
        "num_abnormal": 0,
        "num_uncertain": 0,
        "detected": None,
        "residual_l1": None,
        "status": str(outcome.status),
    }
    if outcome.diagnosis is not None:
        fields["num_abnormal"] = len(outcome.diagnosis.abnormal)
        fields["num_uncertain"] = len(outcome.diagnosis.uncertain)
    return fields


# ----------------------------------------------------------------------
# sharding
# ----------------------------------------------------------------------
def _check_picklable(chunk_fn: object) -> None:
    """Raise :class:`ValidationError` when ``chunk_fn`` cannot ship to a pool.

    Closures raise TypeError/AttributeError, custom ``__reduce__`` failures
    PicklingError; all mean "not pool-shippable".
    """
    try:
        pickle.dumps(chunk_fn)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise ValidationError(
            "chunk function must be picklable for workers > 1 "
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

    ``workers=None``/``1`` (or a single chunk) applies ``chunk_fn``
    in-process; ``workers > 1`` fans the chunks out over a process pool
    (never more processes than chunks).  Results are always yielded in
    chunk order regardless of which worker ran them, so the executor
    choice can never change what a caller observes — only when each
    chunk becomes available.

    ``chunk_fn`` must be picklable for ``workers > 1``; chunk contents must
    be picklable too.  Returning an iterator (rather than a list) lets
    callers checkpoint or log per chunk as results arrive while the pool
    is still running later chunks.  The arguments are checked here, at
    the call, so a caller can reject them before it opens its output.
    """
    if workers is not None and workers < 1:
        raise ValidationError(f"workers must be >= 1 or None, got {workers}")
    chunk_list = list(chunks)
    if workers is None or workers == 1 or len(chunk_list) <= 1:
        return map(chunk_fn, chunk_list)
    _check_picklable(chunk_fn)
    return _pool_map(chunk_fn, chunk_list, min(workers, len(chunk_list)))


def _pool_map(
    chunk_fn: Callable[[list], list], chunk_list: list, workers: int
) -> Iterator[list]:
    """``chunk_fn`` over ``chunk_list`` in a pool of ``workers`` processes, in order."""
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(chunk_fn, chunk_list)


def _run_point_chunk(spec: SweepSpec, chunk: list[GridPoint]) -> list[dict]:
    """Worker body: run one chunk of grid points with a chunk-local cache.

    Module-level (and the spec plain data) so the process pool can pickle
    it; each chunk holds all points of at most one topology, so its
    chunk-local scenario factorizes one routing matrix once in parallel
    runs too.  The chunk ships the :class:`GridPoint` payloads
    themselves — workers never re-expand the grid, so a sweep of ``c``
    chunks costs one expansion total instead of ``c`` (each of which was
    O(points) digest hashing).
    """
    obs.detach_inherited_log()
    cache = FactorizationCache()
    scenarios: dict[int, Scenario] = {}
    return [
        run_grid_point(spec, point, cache=cache, scenarios=scenarios)
        for point in chunk
    ]


def _chunk_points(
    points: list[GridPoint], chunk_size: int | None
) -> list[list[GridPoint]]:
    """Group grid points by topology (one cache domain per chunk).

    ``chunk_size`` optionally splits large topology groups further for
    load balancing; grouping never crosses a topology boundary, so each
    chunk's worker factorises at most one routing matrix.
    """
    groups: list[list[GridPoint]] = []
    current_topology: int | None = None
    for point in points:
        if point.topology_index != current_topology:
            groups.append([])
            current_topology = point.topology_index
        groups[-1].append(point)
    if chunk_size is None:
        return groups
    return [
        group[i : i + chunk_size]
        for group in groups
        for i in range(0, len(group), chunk_size)
    ]


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------
def _header_line(spec: SweepSpec) -> dict:
    from repro.sweep.aggregate import RESULTS_FORMAT, RESULTS_VERSION

    return {
        "kind": "header",
        "format": RESULTS_FORMAT,
        "version": RESULTS_VERSION,
        "name": spec.name,
        "spec_digest": spec.digest,
        "points": spec.num_points(),
    }


def _encode_line(record: dict) -> str:
    return json.dumps(
        obs.sanitize(record), allow_nan=False, separators=(",", ":")
    )


def read_checkpoint(path: str | Path, spec: SweepSpec) -> dict[str, dict]:
    """Replay a results file; returns completed records keyed by digest.

    Raises :class:`SerializationError` when the file is corrupt (any
    unparseable line, wrong format/version), belongs to a different spec,
    or holds a point this spec does not define — the caller must refuse
    to touch it rather than clobber partial results.
    """
    from repro.sweep.aggregate import load_results

    _, results = load_results(path, spec=spec)
    known = {point.digest for point in spec.expand()}
    completed: dict[str, dict] = {}
    for result in results:
        digest = result.get("digest")
        if digest not in known:
            raise SerializationError(
                f"results file {path} holds point {digest!r} "
                "which matches no point of this spec"
            )
        completed[digest] = result
    return completed


# ----------------------------------------------------------------------
# the sweep driver
# ----------------------------------------------------------------------
def run_sweep(
    spec: SweepSpec,
    *,
    results_path: str | Path,
    workers: int | None = None,
    chunk_size: int | None = None,
    resume: bool = False,
    max_points: int | None = None,
) -> dict:
    """Run (or resume) a sweep, checkpointing each completed grid point.

    Parameters
    ----------
    results_path:
        The append-only JSONL checkpoint/results file.  An existing file
        is an error unless ``resume=True`` (never clobbered); a corrupt
        or foreign existing file is an error even then.
    workers / chunk_size:
        Pool fan-out (:func:`iter_map_chunks`) and the most points per
        pool task (``>= 1``; ``None``: one task per topology).  Points are
        sharded by topology so each worker factorises a routing matrix at
        most once; results are bit-identical for any worker/chunk choice.
    resume:
        Replay ``results_path`` and skip every point whose config digest
        is already checkpointed.
    max_points:
        Budget (``>= 0``): stop (cleanly, resumable) after this many *new*
        points.

    A bad ``workers``, ``chunk_size`` or ``max_points`` raises
    :class:`ValidationError` before the results file is touched.  Returns
    a summary dict: ``points`` (all completed records, index order),
    ``ran``/``skipped``/``remaining`` counts, and the spec digest.
    """
    if chunk_size is not None and chunk_size < 1:
        raise ValidationError(f"chunk_size must be >= 1 or None, got {chunk_size}")
    if max_points is not None and max_points < 0:
        raise ValidationError(f"max_points must be >= 0 or None, got {max_points}")
    points = spec.expand()
    file_path = Path(results_path)
    completed: dict[str, dict] = {}
    if file_path.exists():
        if not resume:
            raise SerializationError(
                f"results file {file_path} already exists; "
                "pass resume=True (--resume) or move it aside"
            )
        completed = read_checkpoint(file_path, spec)

    todo = [p for p in points if p.digest not in completed]
    budget_hit = False
    if max_points is not None and len(todo) > max_points:
        todo = todo[:max_points]
        budget_hit = True
    chunks = _chunk_points(todo, chunk_size)
    # Built before the file opens: bad arguments leave no header-only file.
    chunk_fn = partial(_run_point_chunk, spec)
    chunk_results = iter_map_chunks(chunk_fn, chunks, workers=workers)
    if obs.is_enabled():
        obs.event(
            "sweep_start",
            sweep=spec.name,
            spec_digest=spec.digest,
            total=len(points),
            skipped=len(completed),
            todo=len(todo),
            chunks=len(chunks),
            workers=workers or 1,
        )

    results_by_digest = dict(completed)
    ran = 0
    file_path.parent.mkdir(parents=True, exist_ok=True)
    mode = "a" if (resume and file_path.exists()) else "w"
    with obs.span("sweep_run"), file_path.open(mode, encoding="utf-8") as out:
        if mode == "w":
            out.write(_encode_line(_header_line(spec)) + "\n")
            out.flush()
        for chunk_number, chunk_records in enumerate(chunk_results):
            for record in chunk_records:
                out.write(
                    _encode_line(
                        {
                            "kind": "point",
                            "index": record["index"],
                            "digest": record["digest"],
                            "result": record,
                        }
                    )
                    + "\n"
                )
                results_by_digest[record["digest"]] = record
                ran += 1
            out.flush()
            if obs.is_enabled():
                obs.event(
                    "sweep_checkpoint",
                    chunk=chunk_number,
                    size=len(chunk_records),
                    completed=len(results_by_digest),
                )

    ordered = sorted(results_by_digest.values(), key=lambda r: r["index"])
    if obs.is_enabled():
        obs.event(
            "sweep_done",
            ran=ran,
            skipped=len(completed),
            remaining=len(points) - len(ordered),
        )
    return {
        "name": spec.name,
        "spec_digest": spec.digest,
        "total": len(points),
        "ran": ran,
        "skipped": len(completed),
        "remaining": len(points) - len(ordered),
        "budget_hit": budget_hit,
        "points": ordered,
    }
