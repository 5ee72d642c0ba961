"""Shared fixtures and the suite's kernel/defender options.

Expensive objects (the Fig. 1 scenario, a small ISP scenario) are
session-scoped; tests must not mutate them.  Tests that need mutation
build their own instances.

``--backend {dense,sparse}`` builds every ``LinearSystem`` that names no
backend on that kernel, and ``--estimator NAME`` runs every defender
that names no estimator with that zoo family; for example::

    python -m pytest -m "not slow" --backend sparse tests/detection
    python -m pytest -m "not slow" --estimator bayes-map tests/detection

Both act at configure time, before any fixture builds a kernel, by
rebinding the library's resolvers where they are called; the library
itself has no such switch.
"""

from __future__ import annotations

import importlib
import math
import pkgutil
import sys
from contextlib import contextmanager

import numpy as np
import pytest

import repro
from repro.attacks.lp import BandConstraints, IncrementalLpSolver, solve_manipulation_lp
from repro.scenarios.scenario import Scenario
from repro.scenarios.simple_network import paper_fig1_scenario
from repro.tomography import backends, estimator_zoo, linear_system
from repro.topology.generators.isp import synthetic_rocketfuel
from repro.topology.generators.simple import (
    grid_topology,
    ladder_topology,
    paper_example_network,
)


def pytest_addoption(parser):
    group = parser.getgroup("repro")
    group.addoption(
        "--backend",
        choices=("dense", "sparse"),
        default=None,
        help="build every LinearSystem that names no backend on this kernel",
    )
    group.addoption(
        "--estimator",
        choices=estimator_zoo.estimator_names(),
        default=None,
        help="run every defender that names no estimator with this zoo family",
    )


def pin_backend(patch: pytest.MonkeyPatch, name: str | None) -> None:
    """Make a ``LinearSystem`` that names no backend resolve ``name``;
    ``None`` restores the library's auto heuristic."""
    resolve = backends.resolve_backend_name

    def pinned(requested, **kwargs):
        return resolve(name if requested is None else requested, **kwargs)

    patch.setattr(linear_system, "resolve_backend_name", resolve if name is None else pinned)


def pytest_configure(config):
    patch = pytest.MonkeyPatch()
    config.add_cleanup(patch.undo)
    backend = config.getoption("--backend")
    if backend is not None:
        pin_backend(patch, backend)
    estimator = config.getoption("--estimator")
    if estimator is not None:
        resolve = estimator_zoo.resolve_estimator

        def pinned(name=None, **kwargs):
            return resolve(estimator if name is None else name, **kwargs)

        # Rebind it in every repro module that imported it, re-exports
        # included; the defining module keeps the library's own.
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name != "repro.__main__":
                importlib.import_module(info.name)
        for name, module in list(sys.modules.items()):
            if (
                name.startswith("repro.")
                and module is not estimator_zoo
                and getattr(module, "resolve_estimator", None) is resolve
            ):
                patch.setattr(module, "resolve_estimator", pinned)


@pytest.fixture()
def backend_pin(monkeypatch):
    """``backend_pin(name)`` pins the kernel of every ``LinearSystem`` that
    names no backend, for this test (``None``: the auto heuristic)."""
    return lambda name: pin_backend(monkeypatch, name)


@pytest.fixture()
def rng():
    """A deterministic RNG, fresh per test."""
    return np.random.default_rng(12345)


@pytest.fixture()
def paper_topology():
    """A fresh Fig. 1 topology (mutable per test)."""
    return paper_example_network()


@pytest.fixture(scope="session")
def fig1_scenario():
    """The deterministic Fig. 1 scenario (shared; do not mutate)."""
    return paper_fig1_scenario()


@pytest.fixture(scope="session")
def fig1_context(fig1_scenario):
    """Attack context for the canonical attackers B and C (shared)."""
    return fig1_scenario.attack_context(["B", "C"])


@pytest.fixture(scope="session")
def small_isp_scenario():
    """A small but non-trivial ISP scenario (shared; do not mutate)."""
    topology = synthetic_rocketfuel(
        "mini",
        backbone_nodes=5,
        pops_per_backbone=1,
        access_per_pop=(1, 2),
        extra_backbone_chords=2,
        seed=4,
    )
    # max_per_pair=15 makes this scenario fully identifiable (rank 25/25),
    # which several invariants (e.g. perfect cut => success) rely on.
    return Scenario.build(topology, rng=4, max_per_pair=15, name="mini-isp")


@pytest.fixture(scope="session")
def ladder_scenario():
    """A ladder scenario with good path diversity (shared; do not mutate)."""
    topology = ladder_topology(4)
    monitors = [("top", 0), ("bot", 0), ("top", 3), ("bot", 3)]
    return Scenario.build(topology, monitors=monitors, rng=9, name="ladder4")


@pytest.fixture()
def grid():
    """A fresh 3x3 grid topology."""
    return grid_topology(3, 3)


@contextmanager
def _cold_lp_reference():
    """Within the block, every ``IncrementalLpSolver`` solve is answered by
    the cold ``linprog`` reference, ``solve_manipulation_lp``.

    The solver still validates its inputs as in production; each solve
    then rebuilds the candidate's bands from scratch (base bands with the
    overridden links replaced) and hands them to the reference.  The
    presolve pruner is bypassed, so every candidate really reaches an LP.
    The max-damage bound is answered the same way (freed links unbanded,
    no memo), so a reference scan is cold end to end.
    """
    original_init = IncrementalLpSolver.__init__

    def init(self, estimator_operator, true_metrics, support, num_paths, base_bands, **kwargs):
        original_init(
            self, estimator_operator, true_metrics, support, num_paths, base_bands, **kwargs
        )
        self._reference = (
            estimator_operator,
            np.array(true_metrics, dtype=float),
            list(support),
            BandConstraints(np.array(base_bands.lower), np.array(base_bands.upper)),
            {
                key: kwargs[key]
                for key in (
                    "cap",
                    "consistency_matrix",
                    "sub_operator",
                    "consistency_columns",
                )
                if key in kwargs
            },
        )

    def solve(self, overrides=None):
        operator, x_true, support, base, kwargs = self._reference
        bands = BandConstraints(base.lower.copy(), base.upper.copy())
        for j, (lower, upper) in dict(overrides or {}).items():
            bands.lower[j], bands.upper[j] = lower, upper
        return solve_manipulation_lp(
            operator, x_true, support, self.num_paths, bands, **kwargs
        )

    def damage_bound(self, free_links):
        solution = solve(self, {j: (-math.inf, math.inf) for j in free_links})
        return solution.damage if solution.feasible else math.inf

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(IncrementalLpSolver, "__init__", init)
        patch.setattr(IncrementalLpSolver, "solve", solve)
        patch.setattr(IncrementalLpSolver, "damage_bound", damage_bound)
        yield


@pytest.fixture()
def cold_lp_reference():
    """Context-manager factory that swaps the warm LP path for the reference.

    Parity tests run a strategy as shipped, then again inside
    ``with cold_lp_reference():`` and compare the two outcomes.
    """
    return _cold_lp_reference
