"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` (~2 min).

The smoke runs call ``run.py`` with the command line ``BENCHMARK.json``
describes, with a tiny measuring time.  The negative tests corrupt unit outputs and check
that the corruption is counted as a failed unit.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, ChurnIsp, Fig7MonteCarlo, SweepGrid  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
        check=False,
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "5", "--seconds", "0.3", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for m in expected:
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        assert any(
            line.split()[1:2] == [m["name"]] and line.split()[-1] == m["unit"]
            for line in done.stderr.splitlines()
        ), f"{m['name']} not printed with its unit"


def test_outside_a_checkout_exits_nonzero_without_result(tmp_path):
    # Only BENCHMARK.json and the benchmark's own files: no program to run.
    (tmp_path / "perfbench").mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig7-mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_fig7_check_flags_a_theorem1_violation():
    good = [{"presence_ratio": 1.0, "success": True, "perfect_cut": True, "damage": 12.5}]
    broken = [dict(good[0], success=False, damage=0.0)]
    rejected = [dict(good[0], presence_ratio=0.5)]
    problems = Fig7MonteCarlo(0).check(None, [good, [], broken, rejected])
    assert problems[:2] == [None, None]
    assert "Theorem 1" in problems[2]
    assert "presence ratio" in problems[3]


def test_sweep_check_flags_a_pass_that_differs_from_the_first():
    workload = SweepGrid(0)
    spec = workload._spec()
    points = spec.expand()
    state = {"spec": spec, "points": points}
    records = [
        {"index": p.index, "feasible": True, "damage": 1.0, "detected": True, "residual_l1": 500.0}
        for p in points
    ]
    second = [dict(r) for r in records]
    second[3]["damage"] = 2.0
    second[5]["detected"] = False
    problems = workload.check(state, records + second)
    assert [i for i, p in enumerate(problems) if p] == [len(points) + 3, len(points) + 5]
    lying = [dict(r, detected=False) for r in records]
    assert all(workload.check(state, lying))


def _corrupting(measure, corrupt):
    def wrapped(self, state, seconds, mark):
        durations, outputs = measure(self, state, seconds, mark)
        corrupt(outputs)
        return durations, outputs

    return wrapped


def test_corrupted_fig7_output_lowers_ok_frac(monkeypatch):
    def corrupt(outputs):
        outputs[0] = [{"presence_ratio": 1.0, "success": False, "perfect_cut": True,
                       "num_attackers": 1, "damage": 0.0}]

    monkeypatch.setattr(Fig7MonteCarlo, "measure", _corrupting(Fig7MonteCarlo.measure, corrupt))
    doc = worker.run("fig7-mc", 3, 0.5, False, None)
    metrics = run.end_to_end(doc)
    assert doc["failed"] == 1
    assert metrics["ok_frac"][0] == pytest.approx(1 - 1 / len(doc["unit_s"]))


def test_corrupted_churn_estimate_fails_the_cold_rebuild(monkeypatch):
    def corrupt(outputs):
        observed, result, rows = outputs[-1]
        result.estimate[0] += 1e-3

    monkeypatch.setattr(ChurnIsp, "measure", _corrupting(ChurnIsp.measure, corrupt))
    doc = worker.run("churn-isp", 3, 0.3, False, None)
    assert doc["failed"] == 1
    assert "cold rebuild" in doc["unit_problems"][0]
    assert run.end_to_end(doc)["ok_frac"][0] < 1.0
    assert np.isfinite(doc["peak_rss_mb"])
