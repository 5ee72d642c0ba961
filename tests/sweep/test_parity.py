"""Parity of sweep results: workers and the LP reference must not change them.

This module covers the sweep runner's chunk mapper (the library's one
process pool) and the sweep built on top of it, including resume
byte-identity, and the warm LP path against the cold ``linprog``
reference over whole grids.
"""

import pytest

from repro.exceptions import ValidationError
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.cache import FactorizationCache
from repro.sweep.runner import (
    _check_picklable,
    build_scenarios,
    iter_map_chunks,
    run_grid_point,
)


def _double_chunk(chunk):
    return [2 * value for value in chunk]


def grid_doc() -> dict:
    return {
        "format": "repro-sweep",
        "version": 1,
        "name": "parity",
        "seed": 7,
        "strategies": ["chosen-victim", "max-damage", "obfuscation"],
        "topologies": [{"kind": "fig1"}, {"kind": "grid", "rows": 3, "cols": 3}],
        "attacker_counts": [1, 2, 3],
    }


class TestIterMapChunks:
    def test_serial_equals_parallel_in_order(self):
        chunks = [[1, 2], [3], [4, 5, 6]]
        serial = list(iter_map_chunks(_double_chunk, chunks, workers=1))
        parallel = list(iter_map_chunks(_double_chunk, chunks, workers=3))
        assert serial == parallel == [[2, 4], [6], [8, 10, 12]]

    def test_workers_capped_by_chunk_count(self):
        assert list(iter_map_chunks(_double_chunk, [[9]], workers=8)) == [[18]]

    def test_bad_workers_rejected(self):
        with pytest.raises(ValidationError, match="workers"):
            list(iter_map_chunks(_double_chunk, [[1]], workers=0))

    def test_unpicklable_chunk_fn_rejected(self):
        with pytest.raises(ValidationError, match="picklable"):
            list(iter_map_chunks(lambda chunk: chunk, [[1], [2]], workers=2))  # repro: noqa RP008 the rejection under test


class TestCheckPicklable:
    def test_module_level_function_passes(self):
        _check_picklable(_double_chunk)

    def test_closure_rejected_with_guidance(self):
        bound = 3

        def closure_chunk(chunk):
            return [bound] * len(chunk)

        with pytest.raises(ValidationError, match="module-level function"):
            _check_picklable(closure_chunk)


@pytest.mark.slow
class TestSweepParity:
    """The 18-point acceptance grid: 3 strategies x 2 topologies x 3 counts."""

    @pytest.fixture(scope="class")
    def spec(self):
        return SweepSpec.from_dict(grid_doc())

    @pytest.fixture(scope="class")
    def serial_bytes(self, spec, tmp_path_factory):
        out = tmp_path_factory.mktemp("parity") / "serial.jsonl"
        run_sweep(spec, results_path=out, workers=1)
        return out.read_bytes()

    def test_workers_byte_identical_to_serial(self, spec, serial_bytes, tmp_path):
        out = tmp_path / "par.jsonl"
        run_sweep(spec, results_path=out, workers=4)
        assert out.read_bytes() == serial_bytes

    def test_chunk_size_byte_identical(self, spec, serial_bytes, tmp_path):
        out = tmp_path / "chunked.jsonl"
        run_sweep(spec, results_path=out, workers=2, chunk_size=1)
        assert out.read_bytes() == serial_bytes

    def test_interrupted_resume_byte_identical(self, spec, serial_bytes, tmp_path):
        """Kill-and-resume equals one uninterrupted run, byte for byte."""
        out = tmp_path / "resumed.jsonl"
        run_sweep(spec, results_path=out, workers=1, max_points=7)
        assert len(out.read_text().splitlines()) == 1 + 7
        run_sweep(spec, results_path=out, workers=3, resume=True)
        assert out.read_bytes() == serial_bytes


class TestLpReferenceParity:
    """Whole grids solved on the warm path and on the cold reference.

    Symmetric families (grid, ladder) make many max-damage candidates tie
    at the best damage, so the victim comparison exercises the tie-break.
    Feasibility, the detector verdict and every victim set must be
    identical; damage must agree within 1e-9 relative.  ``num_abnormal``,
    ``num_uncertain``, ``residual_l1`` and ``status`` are not compared:
    the first three depend on which optimal vertex the solver returns
    when the optimum is not unique, and the status strings are
    solver-specific.
    """

    @staticmethod
    def _records(seed: int) -> list[dict]:
        spec = SweepSpec.from_dict(
            {
                "format": "repro-sweep",
                "version": 1,
                "name": "lp-parity",
                "seed": seed,
                "strategies": ["chosen-victim", "max-damage", "obfuscation"],
                "topologies": [
                    {"kind": "grid", "rows": 3, "cols": 4},
                    {"kind": "ladder", "rungs": 6},
                ],
                "attacker_counts": [1, 2, 3, 4],
            }
        )
        points = spec.expand()
        scenarios = build_scenarios(spec, points)
        cache = FactorizationCache(store=None)
        return [
            run_grid_point(spec, point, cache=cache, scenarios=scenarios)
            for point in points
        ]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_warm_sweep_matches_reference(self, seed, cold_lp_reference):
        warm = self._records(seed)
        with cold_lp_reference():
            cold = self._records(seed)
        assert any(r["feasible"] for r in cold)
        for c, w in zip(cold, warm):
            where = f"point {c['index']} ({c['strategy']}, {c['topology']})"
            assert w["feasible"] == c["feasible"], where
            assert w["detected"] == c["detected"], where
            assert w["victim_links"] == c["victim_links"], where
            assert w["damage"] == pytest.approx(c["damage"], rel=1e-9, abs=1e-9), where
