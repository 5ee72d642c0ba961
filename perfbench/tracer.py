"""Outside-in layer tracer for the ``repro`` library.

The tracer wraps the public entry points of each layer at run time, from
the benchmark's own files, and records one span per call.  Nothing under
``src/`` is edited: class attributes are replaced on the class, and
module-level functions are rebound in every loaded ``repro`` module that
imported them (``from x import f`` copies the binding, so patching only
the defining module would miss those call sites).

Rules the wrapping keeps:

- ``functools.cached_property`` attributes are never wrapped.  Several
  are pre-seeded through ``__dict__`` (the sweep cache writes
  ``LinearSystem.digest`` that way), and a wrapper would break that.
- Per-element hot calls (``MeasurementPath.contains_link`` runs millions
  of times per run) are not wrapped; their time lands in the caller's
  layer.
- Generator functions get one span per resume, so lazy work is charged to
  the layer that does it, not to the consumer.

A span is ``(target, start, end, parent, unit)``.  Spans stay in memory
and are written out when the run ends; a layer's self time is the sum of
its spans' durations minus their children's.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from functools import cached_property

#: Layer -> targets.  A target is ``(owner, names)`` where ``owner`` is a
#: module path or ``module:Class``; names ``"*"`` wraps every public
#: method and plain property the class defines.  A dotted layer is a
#: sub-layer: its self time is carved out of the parent layer's.
LAYER_TARGETS: dict[str, list[tuple[str, tuple[str, ...]]]] = {
    "routing": [
        ("repro.routing.selection", ("select_identifiable_paths",)),
        ("repro.routing.ksp", ("k_shortest_paths",)),
        (
            "repro.routing.paths:PathSet",
            (
                "routing_matrix",
                "sparse_routing_matrix",
                "paths_containing_node",
                "paths_containing_any_node",
                "paths_containing_link",
                "paths_containing_any_link",
            ),
        ),
    ],
    "tomography": [("repro.tomography.linear_system:LinearSystem", ("*",))],
    "tomography.evolve": [("repro.tomography.linear_system:LinearSystem", ("evolve",))],
    "attacks": [
        ("repro.attacks.base:AttackContext", ("__init__",)),
        ("repro.attacks.chosen_victim:ChosenVictimAttack", ("run",)),
        ("repro.attacks.max_damage:MaxDamageAttack", ("run",)),
        ("repro.attacks.obfuscation:ObfuscationAttack", ("run",)),
        ("repro.attacks.naive:NaiveDelayAttack", ("run",)),
        ("repro.attacks.hybrid:FrameAndBlurAttack", ("run",)),
        ("repro.attacks.lp:IncrementalLpSolver", ("solve", "solve_many")),
        ("repro.attacks.lp", ("solve_manipulation_lp",)),
        (
            "repro.attacks.cuts",
            (
                "victim_paths",
                "uncut_victim_paths",
                "is_perfect_cut",
                "attack_presence_ratio",
                "perfectly_cut_links",
            ),
        ),
    ],
    "attacks.lp_solve": [
        ("repro.attacks.lp", ("linprog",)),
        ("repro.attacks.lp_engine:PersistentLpSolver", ("solve",)),
    ],
    "detection": [
        ("repro.detection.consistency:ConsistencyDetector", ("check", "check_batch")),
        ("repro.detection.online:OnlineConsistencyDetector", ("check", "advance")),
        ("repro.detection.auditor:TomographyAuditor", ("audit",)),
    ],
    "sweep": [
        ("repro.sweep.runner", ("run_grid_point",)),
        (
            "repro.sweep.cache:FactorizationCache",
            ("system_for", "scenario_system_for", "context_for", "solver_for", "auditor_for"),
        ),
        ("repro.sweep.cache", ("matrix_digest",)),
    ],
    "scenarios": [
        ("repro.scenarios.scenario:Scenario", ("build",)),
        ("repro.scenarios.experiments", ("success_probability_sweep",)),
        ("repro.scenarios.streaming:StreamingCampaign", ("__init__", "run")),
    ],
}

#: Functions that belong to a layer only where one module binds them:
#: ``linprog`` is scipy's (only the attack LP's calls are LP-solve time),
#: and ``matrix_digest`` is also reached from inside the tomography kernel.
LOCAL_ONLY = {"linprog", "matrix_digest"}

#: Targets listed under ``"*"`` that belong to another layer.
_CLAIMED_ELSEWHERE = {"evolve"}

#: Layers in report order.
LAYERS = tuple(LAYER_TARGETS)

#: Program counters read through ``repro.perf.recording()`` in traced runs.
PERF_COUNTERS = ("svd", "gram_cholesky", "lp_solve", "system_evolve", "online_check")


class Tracer:
    """Span recorder plus the patch bookkeeping that installs it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.spans: list[list] = []
        self.unit: object = "setup"
        self.results: Counter[tuple[str, str]] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _target(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def wrap(self, fn, name: str, layer: str, on_result=None):
        """A traced stand-in for ``fn`` (span per call, or per resume)."""
        target = self._target(name, layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def enter() -> list:
            record = [target, clock(), 0.0, stack[-1] if stack else -1, self.unit]
            stack.append(len(spans))
            spans.append(record)
            return record

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                record = enter()
                try:
                    iterator = fn(*args, **kwargs)
                finally:
                    record[2] = clock()
                    stack.pop()
                while True:
                    record = enter()
                    try:
                        value = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        record[2] = clock()
                        stack.pop()
                    yield value

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_result is not None:
                phase = "setup" if self.unit == "setup" else "unit"
                on_result(self.results, phase, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target in :data:`LAYER_TARGETS`; undo with :meth:`uninstall`."""
        # Import every owner first, so the import-site scan below sees
        # each module that copied a function binding.
        for targets in LAYER_TARGETS.values():
            for owner_path, _ in targets:
                importlib.import_module(owner_path.partition(":")[0])
        for layer, targets in LAYER_TARGETS.items():
            for owner_path, names in targets:
                module_path, _, class_name = owner_path.partition(":")
                module = sys.modules[module_path]
                if class_name:
                    self._install_class(getattr(module, class_name), names, layer)
                else:
                    for name in names:
                        self._install_function(module, name, layer)

    def _install_class(self, cls, names: tuple[str, ...], layer: str) -> None:
        if names == ("*",):
            names = tuple(
                name
                for name in cls.__dict__
                if (name == "__init__" or not name.startswith("_"))
                and name not in _CLAIMED_ELSEWHERE
            )
        for name in names:
            raw = cls.__dict__[name]
            label = f"{cls.__name__}.{name}"
            if isinstance(raw, cached_property):
                continue
            if isinstance(raw, property):
                if raw.fget is None:
                    continue
                wrapped = property(
                    self.wrap(raw.fget, label, layer), raw.fset, raw.fdel, raw.__doc__
                )
            elif isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(raw.__func__, label, layer))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self.wrap(raw.__func__, label, layer))
            elif inspect.isfunction(raw):
                wrapped = self.wrap(raw, label, layer, _RESULT_HOOKS.get(label))
            else:
                continue
            self._set(cls, name, wrapped)

    def _install_function(self, module, name: str, layer: str) -> None:
        original = getattr(module, name)
        wrapped = self.wrap(
            original, f"{module.__name__}.{name}", layer, _RESULT_HOOKS.get(name)
        )
        if name in LOCAL_ONLY:
            self._set(module, name, wrapped)
            return
        for other in list(sys.modules.values()):
            namespace = getattr(other, "__dict__", None)
            if (
                namespace is not None
                and getattr(other, "__name__", "").startswith("repro")
                and namespace.get(name) is original
            ):
                self._set(other, name, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[tuple[object, str], float]:
        """``(unit, layer) -> self seconds``; a span counts for its start unit."""
        child = [0.0] * len(self.spans)
        for target, start, end, parent, unit in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[tuple[object, str], float] = {}
        for index, (target, start, end, parent, unit) in enumerate(self.spans):
            key = (unit, self.layers[target])
            totals[key] = totals.get(key, 0.0) + (end - start) - child[index]
        return totals

    def call_counts(self) -> Counter[tuple[object, str]]:
        """``(unit, target name) -> calls``."""
        return Counter((unit, self.names[target]) for target, _, _, _, unit in self.spans)

    def write(self, path) -> None:
        """Write the spans as gzipped column arrays."""
        columns = list(zip(*self.spans)) if self.spans else [(), (), (), (), ()]
        doc = {
            "names": self.names,
            "layers": self.layers,
            "target": columns[0],
            "start": columns[1],
            "end": columns[2],
            "parent": columns[3],
            "unit": [str(u) for u in columns[4]],
        }
        with gzip.open(path, "wt", compresslevel=1) as out:
            json.dump(doc, out)


def _count_lp_feasible(results: Counter, phase: str, result) -> None:
    # scipy: status 0 optimal, 3 unbounded (both feasible); persistent
    # engine: an ``optimal`` flag.
    results[(phase, "lp_solve_results")] += 1
    if getattr(result, "optimal", None) or getattr(result, "status", None) in (0, 3):
        results[(phase, "lp_solve_feasible")] += 1


def _count_evolve(results: Counter, phase: str, system) -> None:
    results[(phase, "evolve_results")] += 1
    if getattr(system, "evolved_incrementally", False):
        results[(phase, "evolve_incremental")] += 1


#: Post-call hooks that classify a call's result (by function label).
_RESULT_HOOKS = {
    "linprog": _count_lp_feasible,
    "PersistentLpSolver.solve": _count_lp_feasible,
    "LinearSystem.evolve": _count_evolve,
}
