"""CLI behaviour of the per-file rules (RP001-RP005) under ``repro
analyze``: formats, selection, exit codes, and the obs package analyzing
clean on its own."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture()
def violating_tree(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "bad.py").write_text(
        "import numpy as np\n"
        "\n"
        "def estimate(matrix):\n"
        "    assert matrix.ndim == 2\n"
        "    return np.linalg.pinv(matrix)\n"
    )
    return pkg


def test_clean_tree_exits_zero(tmp_path, capsys):
    (tmp_path / "fine.py").write_text("x = 1\n")
    assert main(["analyze", str(tmp_path)]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_violations_exit_one_with_locations(violating_tree, capsys):
    assert main(["analyze", str(violating_tree)]) == 1
    out = capsys.readouterr().out
    assert "RP001" in out and "RP004" in out
    assert "bad.py:4" in out and "bad.py:5" in out


def test_select_limits_rules(violating_tree, capsys):
    assert main(["analyze", str(violating_tree), "--select", "RP004"]) == 1
    out = capsys.readouterr().out
    assert "RP004" in out
    assert "RP001" not in out


def test_select_can_make_tree_clean(violating_tree, capsys):
    assert main(["analyze", str(violating_tree), "--select", "RP005"]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_json_format_is_machine_readable(violating_tree, capsys):
    assert main(["analyze", str(violating_tree), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["errors"] == len(payload["violations"]) == 2
    rules = {v["rule"] for v in payload["violations"]}
    assert rules == {"RP001", "RP004"}
    for violation in payload["violations"]:
        assert {"rule", "path", "line", "col", "message"} <= set(violation)


def test_unknown_rule_is_usage_error(violating_tree, capsys):
    assert main(["analyze", str(violating_tree), "--select", "RP999"]) == 2
    assert "unknown lint rule" in capsys.readouterr().err


def test_missing_path_is_usage_error(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "absent")]) == 2
    assert "does not exist" in capsys.readouterr().err


PER_FILE_RULES = ("RP001", "RP002", "RP003", "RP004", "RP005")


def test_list_rules(capsys):
    """Every per-file rule is listed, untagged: none of them needs the
    whole program to run."""
    assert main(["analyze", "--list-rules"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for rule_id in PER_FILE_RULES:
        (line,) = [text for text in lines if text.startswith(rule_id)]
        assert not line.endswith("]")


def test_repo_source_tree_lints_clean(capsys):
    """The per-file rules alone exit 0 on this repository's source tree."""
    assert REPO_SRC.is_dir()
    select = ",".join(PER_FILE_RULES)
    assert main(["analyze", str(REPO_SRC), "--select", select]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_obs_package_lints_clean(capsys):
    """The observability layer analyzes clean on its own: its wall-clock
    reads are covered by the RP003 ``obs/`` exemption even when ``obs`` is
    the analysis root, and every other rule applies to it unreduced."""
    obs_dir = REPO_SRC / "repro" / "obs"
    assert obs_dir.is_dir()
    assert main(["analyze", str(obs_dir)]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_rp003_does_not_exempt_other_directories(tmp_path, capsys):
    """The obs carve-out must not leak: a wall-clock read anywhere else
    still violates RP003."""
    pkg = tmp_path / "scenarios"
    pkg.mkdir()
    (pkg / "timing.py").write_text("import time\nnow = time.time()\n")
    assert main(["analyze", str(pkg), "--select", "RP003"]) == 1
    assert "RP003" in capsys.readouterr().out
