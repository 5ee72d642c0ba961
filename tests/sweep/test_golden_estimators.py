"""Per-estimator golden fixtures on the 18-point acceptance grid.

One fixture per zoo family under ``tests/fixtures/golden/`` pins, for
every point of the acceptance grid (3 strategies x 2 topologies x 3
attacker counts, seed 7), the attack's feasibility, the detector verdict
under that family, and the damage — plus the grid-level attack-success
and detection rates.  Any estimator-side drift (a solver change shifting
the L1 vertex, a recalibrated threshold, a changed MAP prior default)
fails with a field-by-field diff instead of silently changing the
paper's headline numbers.

Regenerate intentionally with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/sweep/test_golden_estimators.py

The digest-stability tests at the bottom pin the cache-compatibility
contract: naming an estimator (or changing its params) re-keys every
grid point, while omitting it leaves the historical digests untouched.
"""

import json
import os
from pathlib import Path

import pytest

from repro.sweep import SweepSpec, run_sweep

GOLDEN_DIR = Path(__file__).parents[1] / "fixtures" / "golden"
TOLERANCE = 1e-6

#: The families the ablation ships with, with any non-default params.
ESTIMATORS = {
    "ls": {},
    "bayes-map": {"prior_var": 1e6},
    "l1": {},
}


def grid_doc(estimator: str, params: dict) -> dict:
    attack = {"estimator": estimator}
    if params:
        attack["estimator_params"] = params
    return {
        "format": "repro-sweep",
        "version": 1,
        "name": f"golden-{estimator}",
        "seed": 7,
        "strategies": ["chosen-victim", "max-damage", "obfuscation"],
        "topologies": [{"kind": "fig1"}, {"kind": "grid", "rows": 3, "cols": 3}],
        "attacker_counts": [1, 2, 3],
        "attack": attack,
    }


def compute_record(estimator: str, params: dict, tmp_path: Path) -> dict:
    spec = SweepSpec.from_dict(grid_doc(estimator, params))
    summary = run_sweep(spec, results_path=tmp_path / f"{estimator}.jsonl", workers=1)
    points = [
        {
            "topology": p["topology"],
            "strategy": p["strategy"],
            "num_attackers": p["num_attackers"],
            "feasible": p["feasible"],
            "detected": p["detected"],
            "damage": p["damage"],
        }
        for p in summary["points"]
    ]
    feasible = [p for p in points if p["feasible"]]
    detected = [p for p in feasible if p["detected"]]
    return {
        "estimator": estimator,
        "estimator_params": params,
        "num_points": len(points),
        "attack_success_rate": len(feasible) / len(points),
        "detection_rate": (len(detected) / len(feasible)) if feasible else None,
        "points": points,
    }


def _diff(expected: dict, actual: dict) -> list[str]:
    problems = []
    for key in sorted(set(expected) | set(actual)):
        if key not in expected or key not in actual:
            problems.append(
                f"  {key}: only in {'actual' if key in actual else 'golden'}"
            )
            continue
        want, got = expected[key], actual[key]
        if key == "points":
            for index, (w, g) in enumerate(zip(want, got)):
                for field in sorted(set(w) | set(g)):
                    wv, gv = w.get(field), g.get(field)
                    if field == "damage":
                        if abs(wv - gv) > TOLERANCE:
                            problems.append(
                                f"  points[{index}].damage: golden {wv!r} "
                                f"!= actual {gv!r}"
                            )
                    elif wv != gv:
                        problems.append(
                            f"  points[{index}].{field}: golden {wv!r} "
                            f"!= actual {gv!r}"
                        )
            if len(want) != len(got):
                problems.append(f"  points: length {len(want)} != {len(got)}")
        elif isinstance(want, float) and isinstance(got, float):
            if abs(want - got) > TOLERANCE:
                problems.append(f"  {key}: golden {want!r} != actual {got!r}")
        elif want != got:
            problems.append(f"  {key}: golden {want!r} != actual {got!r}")
    return problems


@pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
def test_estimator_golden_fixture(estimator, tmp_path):
    fixture = GOLDEN_DIR / f"estimator_{estimator.replace('-', '_')}.json"
    actual = compute_record(estimator, ESTIMATORS[estimator], tmp_path)
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        fixture.parent.mkdir(parents=True, exist_ok=True)
        fixture.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        return
    if not fixture.exists():
        pytest.fail(
            f"golden fixture {fixture} missing; regenerate with REPRO_REGEN_GOLDEN=1"
        )
    expected = json.loads(fixture.read_text())
    problems = _diff(expected, actual)
    if problems:
        pytest.fail(
            f"golden drift for estimator {estimator} (fixture {fixture.name}):\n"
            + "\n".join(problems)
            + "\n(if intentional, regenerate with REPRO_REGEN_GOLDEN=1 and commit)"
        )


def test_estimator_fixtures_committed():
    missing = [
        name
        for name in ESTIMATORS
        if not (GOLDEN_DIR / f"estimator_{name.replace('-', '_')}.json").exists()
    ]
    assert not missing, f"estimator golden fixtures missing for {missing}"


class TestDigestStability:
    """Estimator keys are optional-by-absence in the point digests."""

    def _digests(self, doc):
        return [p.digest for p in SweepSpec.from_dict(doc).expand()]

    def _base_doc(self):
        doc = grid_doc("ls", {})
        del doc["attack"]
        doc["name"] = "golden-base"
        return doc

    def test_omitting_the_estimator_keeps_digests_byte_identical(self):
        base = self._digests(self._base_doc())
        again = self._digests(self._base_doc())
        assert base == again
        # An explicit empty attack section is the same spec.
        empty = self._base_doc()
        empty["attack"] = {}
        assert self._digests(empty) == base

    def test_naming_an_estimator_rekeys_every_point(self):
        base = self._digests(self._base_doc())
        named = self._base_doc()
        named["attack"] = {"estimator": "ls"}
        rekeyed = self._digests(named)
        assert len(base) == len(rekeyed)
        assert not set(base) & set(rekeyed)

    def test_params_rekey_every_point(self):
        narrow = self._base_doc()
        narrow["attack"] = {
            "estimator": "bayes-map",
            "estimator_params": {"prior_var": 1e4},
        }
        wide = self._base_doc()
        wide["attack"] = {
            "estimator": "bayes-map",
            "estimator_params": {"prior_var": 1e6},
        }
        assert not set(self._digests(narrow)) & set(self._digests(wide))

    def test_params_without_estimator_rejected(self):
        from repro.exceptions import ValidationError

        doc = self._base_doc()
        doc["attack"] = {"estimator_params": {"prior_var": 1e4}}
        with pytest.raises(ValidationError, match="estimator"):
            SweepSpec.from_dict(doc)
