"""Per-rule fixture tests: each per-file rule must fire on a violating
snippet and stay silent on the clean twin."""

from __future__ import annotations

import tempfile
import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import all_rules, noqa_rules_for_line, resolve_selection
from repro.analysis.lint.engine import analyze_paths
from repro.exceptions import ValidationError


def _lint_snippet(tmp_path, source, *, select, rel_path="snippet.py"):
    """Analyze one snippet at ``rel_path`` under a fresh analysis root."""
    root = Path(tempfile.mkdtemp(dir=tmp_path))
    path = root / rel_path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return analyze_paths([root], select=select).violations


# One (violating, clean) snippet pair per rule.
RULE_FIXTURES = {
    "RP001": (
        """
        import numpy as np

        def estimate(matrix, y):
            return np.linalg.pinv(matrix) @ y
        """,
        """
        from repro.tomography.linear_system import LinearSystem

        def estimate(matrix, y):
            return LinearSystem(matrix).estimate(y)
        """,
    ),
    "RP002": (
        """
        import numpy as np

        def draw():
            np.random.seed(7)
            return np.random.rand(3)
        """,
        """
        def draw(rng):
            return rng.random(3)
        """,
    ),
    "RP003": (
        """
        import time

        def stamp():
            return time.time()
        """,
        """
        def stamp(clock):
            return clock()
        """,
    ),
    "RP004": (
        """
        def check(x):
            assert x > 0, "x must be positive"
            return x
        """,
        """
        from repro.exceptions import ValidationError

        def check(x):
            if x <= 0:
                raise ValidationError("x must be positive")
            return x
        """,
    ),
    "RP005": (
        """
        def load(path):
            try:
                return open(path).read()
            except Exception:
                return None
        """,
        """
        def load(path):
            try:
                return open(path).read()
            except OSError as exc:
                raise RuntimeError(f"cannot load {path}") from exc
        """,
    ),
}


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_rule_fires_on_violating_snippet(tmp_path, rule_id):
    violating, _ = RULE_FIXTURES[rule_id]
    found = _lint_snippet(tmp_path, violating, select=[rule_id])
    assert found, f"{rule_id} did not fire"
    assert all(v.rule == rule_id for v in found)
    assert all(v.line >= 1 for v in found)


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_rule_silent_on_clean_snippet(tmp_path, rule_id):
    _, clean = RULE_FIXTURES[rule_id]
    assert _lint_snippet(tmp_path, clean, select=[rule_id]) == []


def test_all_rules_registered():
    from repro.analysis.lint.registry import ProjectRule

    rules = all_rules()
    file_rules = {
        rule_id for rule_id, cls in rules.items() if not issubclass(cls, ProjectRule)
    }
    assert sorted(file_rules) == sorted(RULE_FIXTURES)
    # The whole-program rules register alongside (exercised in
    # tests/analysis/test_analyze.py).
    assert set(rules) - file_rules == {"RP006", "RP008", "RP009", "RP010"}


class TestPathExemptions:
    def test_rp001_allows_the_shared_kernel(self, tmp_path):
        source = """
        import numpy as np

        def svd(mat):
            return np.linalg.svd(mat)
        """
        assert (
            _lint_snippet(
                tmp_path, source, select=["RP001"], rel_path="tomography/backends.py"
            )
            == []
        )
        # The backends are the one kernel: LinearSystem only reads them, and
        # the rank-1 Cholesky kernels factorise nothing, so neither gets a pass.
        for rel_path in (
            "tomography/linear_system.py",
            "detection/robust.py",
            "utils/updates.py",
        ):
            assert _lint_snippet(
                tmp_path, source, select=["RP001"], rel_path=rel_path
            )

    def test_rp002_allows_the_rng_module(self, tmp_path):
        source = """
        import numpy as np

        def ensure(seed):
            return np.random.seed(seed)
        """
        assert (
            _lint_snippet(tmp_path, source, select=["RP002"], rel_path="utils/rng.py")
            == []
        )

    def test_rp003_allows_obs_only(self, tmp_path):
        """Only obs/ may read a clock; perf/ is a re-export and gets no pass."""
        source = """
        import time

        def tick():
            return time.perf_counter()
        """
        assert (
            _lint_snippet(tmp_path, source, select=["RP003"], rel_path="obs/core.py")
            == []
        )
        for rel_path in ("perf/__init__.py", "attacks/lp.py"):
            assert _lint_snippet(
                tmp_path, source, select=["RP003"], rel_path=rel_path
            ), rel_path

    def test_rp004_skips_test_modules(self, tmp_path):
        source = """
        def test_thing():
            assert 1 + 1 == 2
        """
        assert (
            _lint_snippet(
                tmp_path, source, select=["RP004"], rel_path="tests/test_thing.py"
            )
            == []
        )


class TestNoqa:
    def test_blanket_noqa_suppresses_all(self, tmp_path):
        source = """
        import numpy as np

        def estimate(matrix):
            return np.linalg.pinv(matrix)  # repro: noqa
        """
        assert _lint_snippet(tmp_path, source, select=["RP001"]) == []
        # The marker is case-insensitive.
        shouted = source.replace("# repro: noqa", "# REPRO: NOQA")
        assert _lint_snippet(tmp_path, shouted, select=["RP001"]) == []

    def test_targeted_noqa_suppresses_only_named_rule(self, tmp_path):
        source = """
        import numpy as np

        def bad(matrix):
            assert matrix.ndim == 2
            return np.linalg.pinv(matrix)  # repro: noqa RP004
        """
        found = _lint_snippet(tmp_path, source, select=["RP001", "RP004"])
        # The bare assert (no noqa) keeps RP004; the pinv line suppresses
        # RP004 only, so its RP001 survives.
        assert [v.rule for v in found] == ["RP004", "RP001"]

    def test_noqa_spec_parsing(self):
        assert noqa_rules_for_line("x = 1") is None
        assert noqa_rules_for_line("x = 1  # repro: noqa") == frozenset()
        assert noqa_rules_for_line("x = 1  # repro: noqa RP001,RP005") == frozenset(
            {"RP001", "RP005"}
        )


class TestEngine:
    def test_syntax_error_reported_as_rp000(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        found = analyze_paths([bad]).violations
        assert [v.rule for v in found] == ["RP000"]

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            analyze_paths([tmp_path / "nope"])

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValidationError):
            resolve_selection(["RP999"])

    def test_directory_walk_skips_pycache(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "stale.py").write_text("import random\n")
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert analyze_paths([tmp_path]).violations == []
