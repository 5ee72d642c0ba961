"""Sweep execution, checkpointing, and resume semantics."""

import json

import pytest

from repro.attacks.max_damage import MaxDamageAttack
from repro.exceptions import SerializationError, ValidationError
from repro.obs import PerfRecorder, recording
from repro.sweep import SweepSpec, aggregate_rows, load_results, run_grid_point, run_sweep
from repro.sweep.cache import FactorizationCache
from repro.sweep.runner import _chunk_points, read_checkpoint


def small_doc(**overrides) -> dict:
    doc = {
        "format": "repro-sweep",
        "version": 1,
        "name": "runner-unit",
        "seed": 5,
        "strategies": ["chosen-victim", "naive"],
        "topologies": [{"kind": "fig1"}],
        "attacker_counts": [1, 2],
    }
    doc.update(overrides)
    return doc


@pytest.fixture()
def spec():
    return SweepSpec.from_dict(small_doc())


class TestRunSweep:
    def test_checkpoint_file_structure(self, spec, tmp_path):
        out = tmp_path / "r.jsonl"
        summary = run_sweep(spec, results_path=out)
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        header, points = lines[0], lines[1:]
        assert header["kind"] == "header"
        assert header["format"] == "repro-sweep-results"
        assert header["spec_digest"] == spec.digest
        assert header["points"] == spec.num_points() == len(points)
        assert all(p["kind"] == "point" for p in points)
        assert [p["index"] for p in points] == list(range(len(points)))
        assert summary["ran"] == len(points)
        assert summary["skipped"] == 0
        assert summary["remaining"] == 0

    def test_records_are_strict_json(self, spec, tmp_path):
        out = tmp_path / "r.jsonl"
        run_sweep(spec, results_path=out)
        for line in out.read_text().splitlines():
            # bare Infinity/NaN tokens would make this raise
            json.loads(line, parse_constant=lambda token: pytest.fail(token))

    def test_existing_file_refused_without_resume(self, spec, tmp_path):
        out = tmp_path / "r.jsonl"
        run_sweep(spec, results_path=out)
        before = out.read_bytes()
        with pytest.raises(SerializationError, match="already exists"):
            run_sweep(spec, results_path=out)
        assert out.read_bytes() == before

    def test_bad_workers_leave_no_results_file(self, spec, tmp_path):
        out = tmp_path / "r.jsonl"
        for bad in ({"workers": 0}, {"chunk_size": 0}, {"chunk_size": -1}, {"max_points": -2}):
            (name,) = bad
            with pytest.raises(ValidationError, match=name):
                run_sweep(spec, results_path=out, **bad)
            assert not out.exists()
        summary = run_sweep(spec, results_path=out, workers=1)
        assert summary["ran"] == spec.num_points()

    def test_budget_then_resume_completes(self, spec, tmp_path):
        out = tmp_path / "r.jsonl"
        partial = run_sweep(spec, results_path=out, max_points=1)
        assert partial["ran"] == 1
        assert partial["remaining"] == spec.num_points() - 1
        assert partial["budget_hit"] is True
        finish = run_sweep(spec, results_path=out, resume=True)
        assert finish["ran"] == spec.num_points() - 1
        assert finish["skipped"] == 1
        assert finish["remaining"] == 0

    def test_resume_with_zero_remaining_is_noop(self, spec, tmp_path):
        out = tmp_path / "r.jsonl"
        run_sweep(spec, results_path=out)
        before = out.read_bytes()
        again = run_sweep(spec, results_path=out, resume=True)
        assert again["ran"] == 0
        assert again["skipped"] == spec.num_points()
        assert out.read_bytes() == before

    def test_degenerate_points_recorded_not_raised(self, tmp_path):
        # 50 attackers on the 8-node Fig. 1 graph: every node is malicious,
        # so chosen-victim has no candidate; the point must be recorded as
        # infeasible rather than aborting the sweep.
        spec = SweepSpec.from_dict(
            small_doc(strategies=["chosen-victim"], attacker_counts=[50])
        )
        summary = run_sweep(spec, results_path=tmp_path / "r.jsonl")
        (record,) = summary["points"]
        assert record["feasible"] is False
        assert record["damage"] == 0.0


class TestChunkPayloads:
    """Workers receive grid-point payloads — nobody re-expands the spec."""

    def test_chunks_never_cross_topology(self):
        spec = SweepSpec.from_dict(
            small_doc(
                topologies=[{"kind": "fig1"}, {"kind": "grid", "rows": 3, "cols": 3}]
            )
        )
        points = spec.expand()
        for chunk in _chunk_points(points, None):
            assert len({p.topology_index for p in chunk}) == 1
        # splitting preserves order and loses nothing
        split = _chunk_points(points, 1)
        assert [p.index for chunk in split for p in chunk] == [p.index for p in points]

    def test_spec_expanded_exactly_once_per_run(self, spec, tmp_path, monkeypatch):
        calls = []
        original = SweepSpec.expand

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(SweepSpec, "expand", counting)
        run_sweep(spec, results_path=tmp_path / "r.jsonl", workers=1)
        # the driver expands once to enumerate the grid; chunk execution
        # works off the shipped GridPoint payloads and never re-expands
        assert len(calls) == 1

    def test_parallel_checkpoint_byte_identical_to_serial(self, spec, tmp_path):
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        run_sweep(spec, results_path=serial, workers=1)
        run_sweep(spec, results_path=parallel, workers=2, chunk_size=1)
        assert parallel.read_bytes() == serial.read_bytes()


class TestMaxVictims:
    def _seen_kwargs(self, monkeypatch, attack_overrides):
        import repro.attacks.obfuscation as obfuscation_module

        seen = {}
        real = obfuscation_module.ObfuscationAttack

        class Recording(real):
            def __init__(self, context, **kwargs):
                seen.update(kwargs)
                super().__init__(context, **kwargs)

        monkeypatch.setattr(obfuscation_module, "ObfuscationAttack", Recording)
        doc = small_doc(strategies=["obfuscation"], attacker_counts=[2])
        if attack_overrides:
            doc["attack"] = attack_overrides
        spec = SweepSpec.from_dict(doc)
        for point in spec.expand():
            run_grid_point(spec, point)
        return seen

    def test_window_pinned_to_min_when_absent(self, monkeypatch):
        seen = self._seen_kwargs(monkeypatch, None)
        assert seen["min_victims"] == seen["max_victims"] == 2

    def test_spec_range_passed_through(self, monkeypatch):
        seen = self._seen_kwargs(
            monkeypatch, {"min_victims": 1, "max_victims": 3}
        )
        assert seen["min_victims"] == 1 and seen["max_victims"] == 3


class TestSharedSolver:
    def test_solver_for_hands_one_warm_model_to_every_scan(self, fig1_scenario):
        cache = FactorizationCache(store=None)
        context = cache.context_for(fig1_scenario, ("B", "C"))
        alone = MaxDamageAttack(context).run()
        first = MaxDamageAttack(context, shared_solver=cache.solver_for(context)).run()
        with recording(PerfRecorder()) as recorder:
            second = MaxDamageAttack(
                context, shared_solver=cache.solver_for(context)
            ).run()
        assert (cache.stats["solver_miss"], cache.stats["solver_hit"]) == (1, 1)
        # The second scan re-solved on the first scan's model: no rebuild.
        assert recorder.counters.get("lp_model_build", 0) == 0
        for outcome in (first, second):
            assert outcome.victim_links == alone.victim_links
            assert outcome.damage == pytest.approx(alone.damage, rel=1e-9)


class TestRecordsDependOnlyOnTheSpec:
    """No environment variable picks a point's kernel or defender, so a
    results file never mixes records of two configurations."""

    def test_records_ignore_backend_and_estimator_variables(self, monkeypatch):
        spec = SweepSpec.from_dict(
            small_doc(
                seed=3,
                strategies=["chosen-victim", "max-damage", "obfuscation", "naive"],
                topologies=[{"kind": "fig1"}, {"kind": "grid", "rows": 3, "cols": 4}],
                attacker_counts=[1, 2, 3],
            )
        )

        def records():
            scenarios = {}
            return [
                run_grid_point(spec, point, scenarios=scenarios)
                for point in spec.expand()
            ]

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_ESTIMATOR", raising=False)
        unset = records()
        monkeypatch.setenv("REPRO_BACKEND", "sparse")
        monkeypatch.setenv("REPRO_ESTIMATOR", "bayes-map")
        assert len(unset) == 24
        assert records() == unset


class TestCheckpointIntegrity:
    def test_corrupt_trailing_line_refused(self, spec, tmp_path):
        out = tmp_path / "r.jsonl"
        run_sweep(spec, results_path=out)
        out.write_bytes(out.read_bytes() + b'{"kind": "point", "trunc')
        before = out.read_bytes()
        with pytest.raises(SerializationError, match="corrupt"):
            run_sweep(spec, results_path=out, resume=True)
        assert out.read_bytes() == before

    def test_garbage_header_refused(self, spec, tmp_path):
        out = tmp_path / "r.jsonl"
        out.write_text('{"kind": "other"}\n')
        with pytest.raises(SerializationError, match="header"):
            run_sweep(spec, results_path=out, resume=True)

    def test_foreign_spec_refused(self, spec, tmp_path):
        out = tmp_path / "r.jsonl"
        run_sweep(spec, results_path=out)
        other = SweepSpec.from_dict(small_doc(seed=6))
        with pytest.raises(SerializationError, match="different sweep spec"):
            run_sweep(other, results_path=out, resume=True)

    def test_unknown_point_digest_refused(self, spec, tmp_path):
        out = tmp_path / "r.jsonl"
        run_sweep(spec, results_path=out, max_points=1)
        lines = out.read_text().splitlines()
        forged = json.loads(lines[1])
        forged["digest"] = "0" * 64
        forged["result"]["digest"] = "0" * 64
        out.write_text("\n".join([lines[0], json.dumps(forged)]) + "\n")
        with pytest.raises(SerializationError, match="matches no point"):
            read_checkpoint(out, spec)

    def test_empty_file_refused(self, spec, tmp_path):
        out = tmp_path / "r.jsonl"
        out.write_text("")
        with pytest.raises(SerializationError, match="empty"):
            run_sweep(spec, results_path=out, resume=True)


class TestAggregation:
    def test_load_results_sorts_and_validates(self, spec, tmp_path):
        out = tmp_path / "r.jsonl"
        summary = run_sweep(spec, results_path=out)
        header, points = load_results(out, spec=spec)
        assert header["spec_digest"] == spec.digest
        assert [p["index"] for p in points] == list(range(spec.num_points()))
        assert points == summary["points"]

    def test_duplicate_point_rejected(self, spec, tmp_path):
        out = tmp_path / "r.jsonl"
        run_sweep(spec, results_path=out, max_points=1)
        lines = out.read_text().splitlines()
        out.write_text("\n".join(lines + [lines[1]]) + "\n")
        with pytest.raises(SerializationError, match="duplicate"):
            load_results(out)

    def test_aggregate_rows_groups_and_rates(self, spec, tmp_path):
        out = tmp_path / "r.jsonl"
        summary = run_sweep(spec, results_path=out)
        rows = aggregate_rows(summary["points"])
        assert [(r["topology"], r["strategy"]) for r in rows] == [
            ("fig1", "chosen-victim"),
            ("fig1", "naive"),
        ]
        for row in rows:
            assert row["points"] == 2
            assert 0.0 <= row["success_rate"] <= 1.0
            if row["feasible"] == 0:
                assert row["mean_damage"] is None
            else:
                assert row["mean_damage"] > 0

    def test_aggregate_empty(self):
        assert aggregate_rows([]) == []
