"""Whole-program analyzer: fixture trees per pass, severity profiles, the
CLI surface, and the deterministic JSON report."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint.engine import (
    AnalysisReport,
    analyze_paths,
    collect_python_files,
)
from repro.cli import main
from repro.exceptions import ValidationError

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def _write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


def _analyze(tree: Path, select: list[str], **kwargs) -> AnalysisReport:
    kwargs.setdefault("root_package", "pkg")
    return analyze_paths([tree], select=select, **kwargs)


# ---------------------------------------------------------------------------
# RP006 — architecture layering
# ---------------------------------------------------------------------------

LAYERS_TOML = """\
root = "pkg"

[[layers]]
name = "core"
modules = [".", "core"]

[[layers]]
name = "app"
modules = ["app"]
"""


class TestLayerContract:
    def _tree(self, tmp_path, core_source: str) -> tuple[Path, Path]:
        layers = tmp_path / "layers.toml"
        layers.write_text(LAYERS_TOML)
        tree = _write_tree(
            tmp_path / "tree",
            {
                "pkg/__init__.py": "",
                "pkg/core.py": core_source,
                "pkg/app.py": """
                    from pkg.core import helper

                    def run():
                        return helper()
                    """,
            },
        )
        return tree, layers

    def test_upward_module_scope_import_is_violation(self, tmp_path):
        tree, layers = self._tree(
            tmp_path,
            """
            import pkg.app

            def helper():
                return 1
            """,
        )
        report = _analyze(tree, ["RP006"], layers_path=layers)
        assert [v.rule for v in report.violations] == ["RP006"]
        message = report.violations[0].message
        assert "higher layer" in message and "pkg.app" in message
        assert report.violations[0].path.endswith("core.py")
        assert report.exit_code == 1

    def test_lazy_upward_import_is_exempt(self, tmp_path):
        tree, layers = self._tree(
            tmp_path,
            """
            def helper():
                return 1

            def diagnostics():
                import pkg.app as app
                return app
            """,
        )
        report = _analyze(tree, ["RP006"], layers_path=layers)
        assert report.violations == []
        assert report.exit_code == 0

    def test_unassigned_module_is_violation(self, tmp_path):
        tree, layers = self._tree(tmp_path, "def helper():\n    return 1\n")
        _write_tree(tree, {"pkg/extra.py": "x = 1\n"})
        report = _analyze(tree, ["RP006"], layers_path=layers)
        assert [v.rule for v in report.violations] == ["RP006"]
        assert "not assigned to any layer" in report.violations[0].message
        assert report.violations[0].path.endswith("extra.py")

    def test_malformed_contract_is_usage_error(self, tmp_path):
        tree, _ = self._tree(tmp_path, "def helper():\n    return 1\n")
        broken = tmp_path / "broken.toml"
        broken.write_text('root = "pkg"\n')  # no [[layers]]
        with pytest.raises(ValidationError):
            _analyze(tree, ["RP006"], layers_path=broken)


# ---------------------------------------------------------------------------
# RP008 — worker-state discipline
# ---------------------------------------------------------------------------

RACY_WORKERS = """
    from functools import partial

    from pkg.pool import iter_map_chunks

    CHUNKS = [[1], [2]]

    TOTALS = {}
    COUNTS = []
    LIMIT = 3

    def bad_worker(chunk):
        TOTALS[len(chunk)] = chunk
        return chunk

    def helper_write():
        global LIMIT
        LIMIT = 5

    def chained_worker(chunk):
        helper_write()
        return chunk

    def ok_worker(chunk):
        local = []
        local.extend(chunk)
        return local

    def deliberate_worker(chunk):
        TOTALS[len(chunk)] = chunk  # repro: worker-state-ok (test fixture)
        return chunk

    def mutator(items):
        items.append(1)
        return items

    def scaled_worker(factor, chunk):
        COUNTS.append(len(chunk) * factor)
        return chunk

    def run_all():
        iter_map_chunks(bad_worker, CHUNKS, workers=2)
        iter_map_chunks(chained_worker, CHUNKS, workers=2)
        iter_map_chunks(ok_worker, CHUNKS, workers=2)
        iter_map_chunks(deliberate_worker, CHUNKS, workers=2)
        iter_map_chunks(mutator, CHUNKS, workers=2)
        iter_map_chunks(lambda chunk: chunk, CHUNKS, workers=2)

    def run_partial():
        fn = partial(scaled_worker, 2)
        return iter_map_chunks(fn, CHUNKS, workers=2)

    def run_nested():
        def inner(chunk):
            return chunk
        return iter_map_chunks(inner, CHUNKS, workers=2)
    """


class TestWorkerState:
    @pytest.fixture()
    def report(self, tmp_path):
        tree = _write_tree(
            tmp_path / "tree",
            {
                "pkg/__init__.py": "",
                "pkg/pool.py": """
                    def iter_map_chunks(chunk_fn, chunks, workers=None):
                        return [chunk_fn(chunk) for chunk in chunks]
                    """,
                "pkg/work.py": RACY_WORKERS,
            },
        )
        return _analyze(tree, ["RP008"])

    def test_module_state_write_in_worker(self, report):
        assert any(
            "bad_worker" in v.message and "'TOTALS'" in v.message
            for v in report.violations
        )

    def test_global_decl_reachable_through_call_graph(self, report):
        assert any(
            "helper_write" in v.message and "'LIMIT'" in v.message
            for v in report.violations
        )

    def test_argument_mutation_in_root_worker(self, report):
        assert any(
            "mutator" in v.message and "'items'" in v.message
            for v in report.violations
        )

    def test_lambda_and_nested_def_with_workers(self, report):
        assert any("lambda" in v.message for v in report.violations)
        assert any(
            "closure-local function 'inner'" in v.message for v in report.violations
        )

    def test_partial_bound_worker_is_resolved(self, report):
        assert any(
            "scaled_worker" in v.message and "'COUNTS'" in v.message
            for v in report.violations
        )

    def test_allowlist_marker_silences(self, report):
        assert not any("deliberate_worker" in v.message for v in report.violations)

    def test_clean_worker_not_flagged(self, report):
        assert not any("ok_worker" in v.message for v in report.violations)
        # Exactly the six seeded defects, nothing else.
        assert len(report.violations) == 6


# ---------------------------------------------------------------------------
# RP009 — obs-schema drift
# ---------------------------------------------------------------------------


class TestObsSchema:
    @pytest.fixture()
    def report(self, tmp_path):
        tree = _write_tree(
            tmp_path / "tree",
            {
                "pkg/__init__.py": "",
                "pkg/obs/__init__.py": "",
                "pkg/obs/core.py": """
                    def emit_event(name):
                        return {"kind": "event", "name": name}

                    def emit_footer(total):
                        return {"kind": "footer", "total": total}

                    def emit_orphan():
                        return {"kind": "orphan", "x": 1}
                    """,
                "pkg/obs/summary.py": """
                    def summarize_events(records):
                        footer = None
                        out = {}
                        for record in records:
                            kind = record.get("kind")
                            if kind == "event":
                                out[record.get("name")] = record.get("t")
                                record.get("missing_field")
                            if kind == "footer":
                                footer = record
                            if kind == "ghost":
                                out["ghost"] = record.get("id")
                        out["total"] = (footer or {}).get("total")
                        return out
                    """,
            },
        )
        return _analyze(tree, ["RP009"])

    def test_consumed_kind_never_emitted(self, report):
        assert any(
            "'ghost'" in v.message and "never emits" in v.message
            for v in report.violations
        )

    def test_field_missing_at_emit_site(self, report):
        flagged = [v for v in report.violations if "missing_field" in v.message]
        assert len(flagged) == 1
        assert flagged[0].path.endswith("core.py")

    def test_emitted_kind_never_summarised(self, report):
        assert any(
            "'orphan'" in v.message and "schema drift" in v.message
            for v in report.violations
        )

    def test_envelope_fields_and_matching_reads_are_clean(self, report):
        # record.get("t") (envelope), record.get("name"), and the
        # (footer or {}).get("total") idiom must not be flagged.
        assert not any("'t'" in v.message for v in report.violations)
        assert not any("'name'" in v.message for v in report.violations)
        assert not any("total" in v.message for v in report.violations)
        assert len(report.violations) == 3


class TestObsCatalogSites:
    """Catalog rows name the enclosing function, never a line number."""

    SOURCE = textwrap.dedent(
        """\
        from pkg import obs

        obs.counter("loaded")


        def work():
            obs.counter("work")
            obs.event("done")
            obs.event("done")


        class Engine:
            def run(self):
                def inner():
                    obs.event("inner")

                return inner
        """
    )

    @staticmethod
    def _catalog(tmp_path, source: str) -> str:
        from repro.analysis.obschema import render_obs_catalog

        tree = _write_tree(
            tmp_path / "tree",
            {"pkg/__init__.py": "", "pkg/obs.py": "", "pkg/work.py": source},
        )
        return render_obs_catalog(_analyze(tree, ["RP009"]).project)

    def test_sites_name_the_enclosing_function(self, tmp_path):
        rows = [
            line.split("|")
            for line in self._catalog(tmp_path, self.SOURCE).splitlines()
            if line.startswith("| `")
        ]
        assert {row[2].strip(): row[3].strip().split("::", 1)[1] for row in rows} == {
            "`loaded`": "<module>`",
            "`work`": "work`",
            "`done`": "work` (2 calls)",
            "`inner`": "Engine.run.inner`",
        }

    def test_inserting_lines_above_an_emission_leaves_the_catalog_unchanged(
        self, tmp_path
    ):
        shifted = "# a header comment\n\n" + self.SOURCE.replace(
            '    obs.counter("work")', '    """Docstring."""\n\n    obs.counter("work")'
        )
        before = self._catalog(tmp_path, self.SOURCE)
        assert "## Instrumentation sites" in before
        assert self._catalog(tmp_path, shifted) == before


# ---------------------------------------------------------------------------
# RP010 — dead code (opt-in)
# ---------------------------------------------------------------------------


class TestDeadCode:
    @pytest.fixture()
    def tree(self, tmp_path):
        return _write_tree(
            tmp_path / "tree",
            {
                "pkg/__init__.py": "from pkg.app import call\n",
                "pkg/lib.py": """
                    __all__ = ["used_fn", "dead_fn"]

                    def _register(obj):
                        return obj

                    def used_fn():
                        return 1

                    def dead_fn():
                        return 2

                    def _private_helper():
                        return 3

                    @_register
                    class RegisteredThing:
                        pass

                    class Base:
                        pass
                    """,
                "pkg/app.py": """
                    from pkg.lib import Base, used_fn

                    class Child(Base):
                        pass

                    def call():
                        return used_fn()
                    """,
            },
        )

    def test_only_genuinely_unreferenced_symbols_flagged(self, tree):
        report = _analyze(tree, ["RP010"])
        flagged = {v.message.split("'")[1] for v in report.violations}
        # dead_fn: nothing references it.  Child: public, unreferenced.
        assert flagged == {"dead_fn", "Child"}

    def test_decorated_private_and_based_symbols_survive(self, tree):
        report = _analyze(tree, ["RP010"])
        flagged = " ".join(v.message for v in report.violations)
        assert "RegisteredThing" not in flagged  # decorated = registered
        assert "_private_helper" not in flagged  # private
        assert "'Base'" not in flagged  # used as a base class elsewhere
        assert "used_fn" not in flagged

    def test_rp010_is_opt_in(self, tree):
        report = _analyze(tree, select=None)
        assert not any(v.rule == "RP010" for v in report.violations)


# ---------------------------------------------------------------------------
# Extraction helpers used by the passes
# ---------------------------------------------------------------------------


class TestExtractionHelpers:
    def test_module_name_of_walks_init_chains(self, tmp_path):
        from repro.analysis.project import module_name_of

        tree = _write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/sub/__init__.py": "",
                "pkg/sub/mod.py": "",
                "loose.py": "",
            },
        )
        assert module_name_of(tree / "pkg" / "sub" / "mod.py") == "pkg.sub.mod"
        assert module_name_of(tree / "pkg" / "__init__.py") == "pkg"
        # A file outside any package chain is a top-level module.
        assert module_name_of(tree / "loose.py") == "loose"

    def test_load_layer_contract_orders_and_validates(self, tmp_path):
        from repro.analysis.importgraph import load_layer_contract

        path = tmp_path / "layers.toml"
        path.write_text(LAYERS_TOML)
        contract = load_layer_contract(path)
        assert contract.root == "pkg"
        assert [layer.name for layer in contract.layers] == ["core", "app"]
        assert contract.layer_of("core").name == "core"
        assert contract.layer_of("app.deep.sub").name == "app"
        assert contract.layer_of("").name == "core"  # "." = the root package
        assert contract.layer_of("unmapped") is None

    def test_load_layer_contract_rejects_duplicate_prefix(self, tmp_path):
        from repro.analysis.importgraph import load_layer_contract

        path = tmp_path / "dup.toml"
        path.write_text(
            'root = "pkg"\n\n[[layers]]\nname = "a"\nmodules = ["x"]\n'
            '\n[[layers]]\nname = "b"\nmodules = ["x"]\n'
        )
        with pytest.raises(ValidationError, match="assigned twice"):
            load_layer_contract(path)

    def test_obs_extraction_matches_the_real_event_log(self):
        from repro.analysis.obschema import extract_consumed, extract_emitted

        emitted = extract_emitted(REPO_SRC / "repro" / "obs" / "core.py")
        assert {"event", "counter", "gauge", "span_start", "span_end"} <= set(emitted)
        assert emitted["event"].open_ended  # event(**fields) merges kwargs
        consumed, dispatched = extract_consumed(
            REPO_SRC / "repro" / "obs" / "summary.py"
        )
        consumed_kinds = {read.kind for read in consumed}
        # Everything the summariser touches is a kind the log emits.
        assert consumed_kinds <= set(emitted) | {"header", "footer"}
        assert "span_end" in dispatched

    def test_obs_extraction_sees_the_benchmark_counters(self):
        """Every counter the benchmark reads is a catalogued emit site."""
        from repro.analysis.project import ProjectModel, extract_facts

        files = [
            extract_facts(path, rel_path=path.relative_to(REPO_SRC).as_posix())
            for path in collect_python_files([REPO_SRC])
        ]
        project = ProjectModel(files=files, root_package="repro")
        counters = {
            emit["name"]
            for facts in project.package_files()
            for emit in facts.obs_emits
            if emit["api"] == "counter"
        }
        for name in ("svd", "gram_cholesky", "lp_solve", "system_evolve", "online_check"):
            assert name in counters, name


# ---------------------------------------------------------------------------
# Severity profiles
# ---------------------------------------------------------------------------


class TestProfiles:
    @pytest.fixture()
    def seeded_tree(self, tmp_path):
        return _write_tree(
            tmp_path / "tree",
            {
                "pkg/__init__.py": "",
                "pkg/t.py": "import numpy as np\n\n"
                "def draw():\n    np.random.seed(7)\n    return 1\n",
            },
        )

    def test_tests_profile_demotes_to_advisory(self, seeded_tree):
        strict = _analyze(seeded_tree, ["RP002"], profile="src")
        relaxed = _analyze(seeded_tree, ["RP002"], profile="tests")
        assert strict.error_count == 1 and strict.exit_code == 1
        assert relaxed.error_count == 0 and relaxed.advisory_count == 1
        assert relaxed.exit_code == 0

    def test_unknown_profile_rejected(self, seeded_tree):
        with pytest.raises(ValidationError):
            _analyze(seeded_tree, ["RP002"], profile="nope")

    def test_unparsable_file_is_one_rp000_error(self, tmp_path):
        tree = _write_tree(
            tmp_path / "tree",
            {
                "pkg/__init__.py": "",
                "pkg/bad.py": "import time\ndef f(:\n    return time.time()\n",
            },
        )
        report = _analyze(tree, ["RP003", "RP006"])
        assert report.files == 2
        assert [(v.rule, v.line) for v in report.violations] == [("RP000", 2)]
        assert report.violations[0].path.endswith("bad.py")
        assert report.exit_code == 1


# ---------------------------------------------------------------------------
# CLI surface + the repo-wide acceptance self-checks
# ---------------------------------------------------------------------------


class TestAnalyzeCli:
    @pytest.fixture()
    def violating_tree(self, tmp_path):
        return _write_tree(
            tmp_path / "tree",
            {
                "pkg/__init__.py": "",
                "pkg/bad.py": "import numpy as np\n\n"
                "def estimate(matrix):\n    return np.linalg.pinv(matrix)\n",
            },
        )

    def test_findings_exit_one_json_parses(self, violating_tree, capsys):
        assert (
            main(["analyze", str(violating_tree), "--format", "json"])
            == 1
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1
        assert payload["violations"][0]["rule"] == "RP001"
        assert set(payload) >= {"files", "root_package", "rules", "violations"}

    def test_list_rules_shows_whole_program_and_opt_in_tags(self, capsys):
        assert main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for number in (1, 2, 3, 4, 5, 6, 8, 9, 10):
            assert f"RP{number:03d}" in out
        assert "RP007" not in out
        assert "[whole-program]" in out
        assert "[whole-program, opt-in]" in out

    def test_obs_catalog_renders_repo_schema(self, capsys):
        assert (
            main(
                [
                    "analyze",
                    str(REPO_SRC),
                    "--select",
                    "RP009",
                    "--obs-catalog",
                    "-",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "## Record kinds" in out
        for kind in ("event", "counter", "gauge", "span_start", "span_end"):
            assert f"`{kind}`" in out
        assert "## Instrumentation sites" in out

    def test_obs_catalog_parses_each_file_once(self, monkeypatch, tmp_path):
        """The catalog renders from the analyzer's own model instead of
        extracting every file's facts a second time."""
        from repro.analysis import project

        calls: dict[str, int] = {}
        extract = project.extract_facts

        def counting_extract(path, **kwargs):
            calls[str(path)] = calls.get(str(path), 0) + 1
            return extract(path, **kwargs)

        monkeypatch.setattr(project, "extract_facts", counting_extract)
        catalog = tmp_path / "OBS_EVENTS.md"
        argv = ["analyze", str(REPO_SRC), "--select", "RP009", "--obs-catalog", str(catalog)]
        assert main(argv) == 0
        files = collect_python_files([REPO_SRC])
        assert sorted(calls) == sorted(str(path) for path in files)
        assert set(calls.values()) == {1}
        # Sites keep the path the analyzer was given, not the root-relative one.
        sites = [
            line.split("|")[3].strip()
            for line in catalog.read_text().splitlines()
            if line.startswith("| `") and line.count("|") == 4
        ]
        assert sites
        assert all(site.startswith(f"`{REPO_SRC.as_posix()}/repro/") for site in sites)

    def test_repo_source_tree_analyzes_clean(self, capsys):
        """The acceptance self-check: the full analyzer (all default rules,
        RP001-RP009) exits 0 on this repository's source tree."""
        assert REPO_SRC.is_dir()
        assert main(["analyze", str(REPO_SRC)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out
