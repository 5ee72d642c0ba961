"""Tests for the JSONL event log and its activation hooks."""

import json
import math

import numpy as np
import pytest

from repro.exceptions import SerializationError
from repro.obs import (
    SCHEMA_VERSION,
    EventLog,
    read_events,
    summarize_events,
    summarize_run,
)
from repro.obs import core as obs


class TestDisabledPath:
    """With no active log, every hook must be a no-op touching nothing."""

    def test_hooks_are_noops(self, tmp_path):
        assert obs.active_log() is None
        assert not obs.is_enabled()
        obs.event("x", a=1)
        obs.counter("x", 5)
        obs.gauge("x", 1.0)
        with obs.span("x") as log:
            assert log is None
        assert list(tmp_path.iterdir()) == []  # nothing written anywhere

    def test_env_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        assert not obs.env_enabled()
        with obs.enabled_from_env() as log:
            assert log is None

    def test_env_falsy_values(self, monkeypatch):
        for value in ("", "0", "false", "off", "no"):
            monkeypatch.setenv("REPRO_OBS", value)
            assert not obs.env_enabled()
        for value in ("1", "true", "YES", "On"):
            monkeypatch.setenv("REPRO_OBS", value)
            assert obs.env_enabled()


class TestEventLog:
    def test_header_and_footer_envelope(self, tmp_path):
        path = tmp_path / "run.jsonl"
        log = EventLog(path, run_id="my-run")
        log.event("hello", value=1)
        log.close()
        records = read_events(path)
        assert records[0]["kind"] == "header"
        assert records[0]["schema"] == SCHEMA_VERSION
        assert records[0]["run"] == "my-run"
        assert records[-1]["kind"] == "footer"
        assert records[-1]["wall_s"] >= 0.0

    def test_every_line_is_strict_json(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.enabled(path) as log:
            log.event("weird", inf=math.inf, ninf=-math.inf, nan=math.nan)
            log.gauge("g", np.float64(2.5))
            log.event("np", n=np.int64(3), arr=np.asarray([1.0, math.inf]))

        def reject_constant(name):
            raise AssertionError(f"non-standard token {name!r} in log line")

        for line in path.read_text().splitlines():
            json.loads(line, parse_constant=reject_constant)
        records = read_events(path)
        weird = next(r for r in records if r.get("name") == "weird")
        assert weird["inf"] == "Infinity"
        assert weird["ninf"] == "-Infinity"
        assert weird["nan"] == "NaN"
        np_event = next(r for r in records if r.get("name") == "np")
        assert np_event["n"] == 3
        assert np_event["arr"] == [1.0, "Infinity"]

    def test_nested_spans_parent_and_depth(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.enabled(path) as log:
            with log.span("outer"):
                with log.span("inner"):
                    log.event("leaf")
        records = read_events(path)
        starts = {r["name"]: r for r in records if r["kind"] == "span_start"}
        assert starts["outer"]["parent"] is None
        assert starts["outer"]["depth"] == 0
        assert starts["inner"]["parent"] == starts["outer"]["id"]
        assert starts["inner"]["depth"] == 1
        leaf = next(r for r in records if r.get("name") == "leaf")
        assert leaf["span"] == starts["inner"]["id"]
        ends = [r for r in records if r["kind"] == "span_end"]
        assert len(ends) == 2
        assert all(r["dur_s"] >= 0.0 for r in ends)

    def test_counters_keep_running_totals(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.enabled(path) as log:
            log.counter("svd")
            log.counter("svd", 2)
            log.counter("lp", 4)
        records = read_events(path)
        footer = records[-1]
        assert footer["counters"] == {"svd": 3, "lp": 4}
        increments = [r for r in records if r["kind"] == "counter" and r["name"] == "svd"]
        assert [r["total"] for r in increments] == [1, 3]

    def test_enabled_activates_and_restores(self, tmp_path):
        assert obs.active_log() is None
        with obs.enabled(tmp_path / "run.jsonl") as log:
            assert obs.active_log() is log
            assert obs.is_enabled()
            obs.event("via-hook")
        assert obs.active_log() is None
        names = [r.get("name") for r in read_events(tmp_path / "run.jsonl")]
        assert "via-hook" in names

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "run.jsonl"
        log = EventLog(path)
        log.close()
        log.close()
        log.event("after")  # silently dropped, never corrupts the file
        records = read_events(path)
        assert [r["kind"] for r in records] == ["header", "footer"]


class TestSummaries:
    def test_round_trip_summary(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.enabled(path, run_id="sum") as log:
            with log.span("work"):
                log.counter("steps", 3)
                log.gauge("temp", 1.5)
                log.gauge("temp", 0.5)
                log.event("tick")
                log.event("tick")
        summary = summarize_run(path)
        assert summary["run"] == "sum"
        assert summary["complete"]
        assert summary["open_spans"] == 0
        assert summary["spans"]["work"]["calls"] == 1
        assert summary["counters"] == {"steps": 3}
        assert summary["gauges"]["temp"]["samples"] == 2
        assert summary["gauges"]["temp"]["min"] == 0.5
        assert summary["gauges"]["temp"]["max"] == 1.5
        assert summary["events"]["tick"] == 2

    def test_truncated_log_counts_open_spans(self, tmp_path):
        path = tmp_path / "run.jsonl"
        log = EventLog(path)
        log._emit({"kind": "span_start", "name": "crashed", "id": 1, "parent": None, "depth": 0})
        log._file.close()  # simulate a killed run: no span_end, no footer
        log._closed = True
        summary = summarize_events(read_events(path))
        assert not summary["complete"]
        assert summary["open_spans"] == 1

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SerializationError, match="cannot read"):
            read_events(tmp_path / "nope.jsonl")

    def test_corrupt_line_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.enabled(path):
            pass
        path.write_text(path.read_text() + "{broken\n")
        with pytest.raises(SerializationError, match="invalid JSON"):
            read_events(path)

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"kind": "event", "name": "x"}\n')
        with pytest.raises(SerializationError, match="header"):
            read_events(path)

    def test_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"kind": "header", "schema": 99}\n')
        with pytest.raises(SerializationError, match="schema"):
            read_events(path)


class TestEnvActivation:
    def test_env_path_respected(self, tmp_path, monkeypatch):
        target = tmp_path / "explicit.jsonl"
        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_PATH", str(target))
        with obs.enabled_from_env() as log:
            assert log is not None
            assert log.path == target
            obs.event("env-run")
        assert target.exists()

    def test_outer_activation_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_PATH", str(tmp_path / "inner.jsonl"))
        with obs.enabled(tmp_path / "outer.jsonl") as outer:
            with obs.enabled_from_env() as inner:
                assert inner is None  # the outer log keeps ownership
                assert obs.active_log() is outer
        assert not (tmp_path / "inner.jsonl").exists()

    def test_default_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_PATH", raising=False)
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "logs"))
        path = obs.default_run_path()
        assert path.parent == tmp_path / "logs"
        assert path.suffix == ".jsonl"


class TestPerfShim:
    """``repro.obs`` is the one instrumentation API: ``obs.counter`` feeds
    an active recorder and the active run log alike, and ``repro.perf``
    only re-exports the recorder for the benchmark."""

    def test_stage_and_events_land_in_obs_log(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.enabled(path):
            with obs.span("outer"):
                obs.counter("svd", 2)
        summary = summarize_run(path)
        assert summary["spans"]["outer"]["calls"] == 1
        assert summary["counters"]["svd"] == 2

    def test_shim_still_noop_when_everything_off(self, tmp_path):
        """Counters outside a recording block reach no recorder, and with
        no log active nothing is written anywhere."""
        obs.counter("before")
        with obs.recording() as recorder:
            obs.counter("inside")
        obs.counter("after")
        with obs.span("nothing") as handle:
            assert handle is None
        assert dict(recorder.counters) == {"inside": 1}
        assert obs.active_log() is None
        assert list(tmp_path.iterdir()) == []

    def test_recorder_and_log_both_fed(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.enabled(path), obs.recording() as recorder:
            obs.counter("svd", 2)
            with obs.span("both"):
                obs.counter("lp_solve")
            obs.event("not_a_counter")
        assert dict(recorder.counters) == {"svd": 2, "lp_solve": 1}
        assert summarize_run(path)["counters"] == dict(recorder.counters)

    def test_recorder_works_without_a_log(self):
        with obs.recording() as outer:
            obs.counter("svd")
            with obs.recording() as inner:
                obs.counter("svd", 3)
            obs.counter("lp_solve")
        assert obs.active_log() is None
        assert dict(inner.counters) == {"svd": 3}
        assert dict(outer.counters) == {"svd": 1, "lp_solve": 1}

    def test_benchmark_import_path_receives_counters(self):
        """``repro.perf.recording`` is what the benchmark imports."""
        from repro.perf import PerfRecorder, recording

        with recording() as recorder:
            obs.counter("online_check")
        assert isinstance(recorder, PerfRecorder)
        assert recorder.counters["online_check"] == 1


class TestInstrumentedLibrary:
    """Hot paths emit events when a log is active — and only then."""

    def test_linear_system_factorization_event(self, tmp_path):
        from repro.tomography.linear_system import LinearSystem

        matrix = np.asarray([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        path = tmp_path / "run.jsonl"
        with obs.enabled(path):
            LinearSystem(matrix).rank
        events = [r for r in read_events(path) if r.get("name") == "linear_system_factorize"]
        assert len(events) == 1
        assert events[0]["paths"] == 2
        assert events[0]["links"] == 3
        assert events[0]["rank"] == 2

    def test_sparse_factorization_event_keeps_r_sparse(self, tmp_path):
        import scipy.sparse

        from repro.tomography.linear_system import LinearSystem

        matrix = scipy.sparse.csr_matrix([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        system = LinearSystem(matrix, backend="sparse")
        path = tmp_path / "run.jsonl"
        with obs.enabled(path):
            system.estimate(np.ones(2))
        events = [r for r in read_events(path) if r.get("name") == "linear_system_factorize"]
        assert len(events) == 1
        assert events[0]["backend"] == "sparse"
        # The event must not densify R (no `matrix` view, no dense twin).
        assert "matrix" not in vars(system)
        assert "_dense_fallback" not in vars(system._backend)

    def test_lp_solve_event(self, tmp_path, fig1_scenario):
        from repro.attacks.lp import BandConstraints, solve_manipulation_lp
        from repro.tomography.linear_system import estimator_operator

        operator = estimator_operator(fig1_scenario.path_set.routing_matrix())
        bands = BandConstraints.unbounded(10)
        path = tmp_path / "run.jsonl"
        with obs.enabled(path):
            solve_manipulation_lp(
                operator, fig1_scenario.true_metrics, [0, 1], 23, bands, cap=100.0
            )
        events = [
            r
            for r in read_events(path)
            if r["kind"] == "event" and r.get("name") == "lp_solve"
        ]
        assert events and events[0]["success"]
        assert events[0]["variables"] == 2  # one per supported path

    def test_unbounded_resolve_event(self, tmp_path, fig1_scenario):
        from repro.attacks.lp import BandConstraints, solve_manipulation_lp
        from repro.tomography.linear_system import estimator_operator

        operator = estimator_operator(fig1_scenario.path_set.routing_matrix())
        bands = BandConstraints.unbounded(10)
        path = tmp_path / "run.jsonl"
        with obs.enabled(path):
            solution = solve_manipulation_lp(
                operator, fig1_scenario.true_metrics, [0, 1], 23, bands, cap=None
            )
        assert solution.unbounded
        names = [r.get("name") for r in read_events(path)]
        assert "lp_unbounded_resolve" in names

    def test_run_trials_chunk_events(self, tmp_path):
        from repro.scenarios.montecarlo import run_trials

        from tests.scenarios.test_montecarlo import _stochastic_trial

        path = tmp_path / "run.jsonl"
        with obs.enabled(path):
            run_trials(8, _stochastic_trial, seed=3, workers=2, chunk_size=2)
        records = read_events(path)
        run_events = [r for r in records if r.get("name") == "mc_run"]
        assert run_events[0]["workers"] == 2
        assert run_events[0]["chunks"] == 4
        chunk_events = [r for r in records if r.get("name") == "mc_chunk"]
        assert [c["index"] for c in chunk_events] == [0, 1, 2, 3]
        assert chunk_events[-1]["collected"] == 8
        done = [r for r in records if r.get("name") == "mc_done"]
        assert done[0]["trials"] == 8

    def test_recorder_counters_equal_the_run_log(self, tmp_path):
        """A whole Fig. 1 max-damage attack: the in-memory recorder and the
        run log see the same counter totals."""
        from repro.attacks.max_damage import MaxDamageAttack
        from repro.scenarios.simple_network import paper_fig1_scenario

        scenario = paper_fig1_scenario()  # fresh, so it factorizes in the block
        path = tmp_path / "run.jsonl"
        with obs.enabled(path), obs.recording() as recorder:
            MaxDamageAttack(scenario.attack_context(["B", "C"])).run()
        counters = summarize_run(path)["counters"]
        assert counters["lp_solve"] > 0
        # pytest --backend may route the system to either backend.
        dense = scenario.system.backend_name == "dense"
        assert counters["svd" if dense else "gram_cholesky"] >= 1
        assert dict(recorder.counters) == counters

    def test_observability_does_not_change_results(self, tmp_path):
        """Identical trial outcomes with and without an active log."""
        from repro.scenarios.montecarlo import run_trials

        from tests.scenarios.test_montecarlo import _stochastic_trial

        plain = run_trials(12, _stochastic_trial, seed=11, workers=2)
        with obs.enabled(tmp_path / "run.jsonl"):
            observed = run_trials(12, _stochastic_trial, seed=11, workers=2)
        assert plain == observed


def _noisy_trial(rng):
    """Module-level trial that tries to report into the event log."""
    obs.event("worker_probe", pid=True)
    with obs.span("worker_span"):
        return {"v": float(rng.random())}


class TestForkedWorkers:
    """Pool workers must never write into the parent's inherited log."""

    def test_detach_is_noop_in_owner_process(self, tmp_path):
        with obs.enabled(tmp_path / "run.jsonl") as log:
            obs.detach_inherited_log()
            assert obs.active_log() is log
        assert obs.active_log() is None

    def test_detach_drops_log_from_other_pid(self, tmp_path, monkeypatch):
        with obs.enabled(tmp_path / "run.jsonl") as log:
            monkeypatch.setattr(log, "_pid", log._pid + 1)  # simulate fork
            obs.detach_inherited_log()
            assert obs.active_log() is None
        # the owner's close still wrote a well-formed footer
        assert read_events(tmp_path / "run.jsonl")[-1]["kind"] == "footer"

    def test_worker_events_stay_out_of_parent_log(self, tmp_path):
        """Trials emitting events in a forked pool leave no trace: the
        inherited log is detached, and the parent's file stays a single
        well-formed record stream (no replayed buffers, no interleaving)."""
        from repro.scenarios.montecarlo import run_trials

        path = tmp_path / "run.jsonl"
        with obs.enabled(path):
            results = run_trials(6, _noisy_trial, seed=5, workers=2)
        assert len(results) == 6
        records = read_events(path)
        kinds = [r["kind"] for r in records]
        assert kinds.count("header") == 1 and kinds.count("footer") == 1
        assert kinds.count("span_start") == kinds.count("span_end")
        names = {r.get("name") for r in records}
        assert "worker_probe" not in names and "worker_span" not in names
