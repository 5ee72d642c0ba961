"""The three benchmark workloads: set-up, the measured loop, and the checks.

Every workload is a closed loop from one process: one client, and the next
unit starts when the previous one ends.  The seed drives every random
draw; each workload draws from its own ``SeedSequence([seed, tag])``
streams so the same seed always gives the same inputs.

A workload object offers:

- ``setup()`` -- builds the program state.  Its wall time is ``setup_s``
  and lasts until lazy set-up has finished (first factorization, first
  HiGHS call), so that work cannot hide in the first unit.
- ``setup_problems(state)`` -- set-up checks, run untimed.
- ``measure(state, seconds, mark)`` -- runs units until ``seconds`` have
  passed and returns ``(durations, outputs)``.  ``mark(i)`` is called as
  unit ``i`` starts, so a tracer can tag its spans.
- ``check(state, outputs)`` -- one problem string (or ``None``) per unit,
  run untimed.
- ``digest(output)`` -- a canonical string of a unit's output, compared
  between the traced and the untraced run.
"""

from __future__ import annotations

import hashlib
import json
import math
import time

import numpy as np

#: Rows of the fig7-mc routing matrix are selected from this many sampled
#: monitor pairs.  At 400 the AS1221 stand-in gives R of 169 x 166 at full
#: column rank, which the Theorem-1 oracle needs.
FIG7_PAIR_BUDGET = 400

#: sweep-grid: four fixed topology families (the repository's own sweep
#: grids use fixed families too), the four strategies and one to eight
#: attackers -- 128 points per pass.  Fixed families keep the LP sizes the
#: same from seed to seed (seeded Waxman / random-geometric graphs change
#: them with the topology draw), and eight attacker counts average the
#: per-draw LP counts: LP solves per pass varied 810-979 over eight seeds
#: with one to four attackers and 1670-1779 with one to eight.  The seed
#: still draws monitors, paths, delays and every attacker set.
SWEEP_TOPOLOGIES = (
    {"kind": "grid", "rows": 6, "cols": 7},
    {"kind": "grid", "rows": 7, "cols": 8},
    {"kind": "fattree", "k": 4},
    {"kind": "ladder", "rungs": 24},
)
SWEEP_STRATEGIES = ("chosen-victim", "max-damage", "obfuscation", "naive")
SWEEP_ATTACKERS = (1, 2, 3, 4, 5, 6, 7, 8)

#: churn-isp: deduplicated shortest paths on the ~2.5k-router ISP map,
#: three attacker nodes, attacker active in 30% of epochs, and on average
#: one path failure per epoch.  500 paths (not 800) give about twice the
#: epochs per run and cut set-up from ~6 s to ~3.5 s with the same layer
#: mix.
CHURN_PATHS = 500
CHURN_ATTACKERS = 3
CHURN_ACTIVITY = 0.3
#: Schedule length per measured second: about three times the epoch rate
#: at the baseline, so a faster program still runs until the deadline.
CHURN_EPOCHS_PER_SECOND = 100
#: Epochs re-derived from a cold ``LinearSystem`` (plus the last one).
CHURN_COLD_CHECKS = 12
#: Cold-rebuild agreement.  Measured worst case 2.4e-12 on estimates of
#: 1-2000 ms; 1e-8 is the repository's parity tolerance.
CHURN_TOL = 1e-8


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, default=repr)


class Fig7MonteCarlo:
    """Fig. 7 chosen-victim trials on the AS1221 stand-in."""

    name = "fig7-mc"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self):
        from repro.scenarios.experiments import success_probability_sweep
        from repro.scenarios.scenario import Scenario
        from repro.tomography.linear_system import LinearSystem
        from repro.topology.generators.isp import synthetic_rocketfuel

        # The topology is the library's fixed AS1221 stand-in (the paper
        # runs Fig. 7 on one real map); the seed draws monitors, paths,
        # delays and every trial.  Same settings as
        # ``standard_wireline_scenario`` plus the pair budget.
        scenario = Scenario.build(
            synthetic_rocketfuel("AS1221"),
            monitor_fraction=0.3,
            max_per_pair=6,
            pair_budget=FIG7_PAIR_BUDGET,
            name="wireline-as1221",
            rng=np.random.SeedSequence([self.seed, 1]),
        )
        rank = LinearSystem(scenario.path_set.routing_matrix()).rank
        # Warm-up trial from a stream the measured units never use: the
        # first HiGHS call and the first factorization happen here.
        success_probability_sweep(
            scenario, num_trials=1, seed=np.random.SeedSequence([self.seed, 2])
        )
        return {"scenario": scenario, "rank": rank}

    def setup_problems(self, state) -> list[str]:
        scenario = state["scenario"]
        links = scenario.topology.num_links
        if state["rank"] != links:
            return [f"R has rank {state['rank']} < {links} links (not identifiable)"]
        return []

    def describe(self, state) -> dict:
        shape = state["scenario"].path_set.routing_matrix().shape
        return {"routing_matrix": list(shape), "rank": state["rank"]}

    def measure(self, state, seconds: float, mark):
        from repro.scenarios.experiments import success_probability_sweep

        scenario = state["scenario"]
        durations, outputs = [], []
        clock = time.perf_counter
        deadline = clock() + seconds
        index = 0
        while clock() < deadline:
            mark(index)
            start = clock()
            try:
                result = success_probability_sweep(
                    scenario,
                    num_trials=1,
                    seed=np.random.SeedSequence([self.seed, 3, index]),
                )
                outputs.append(result["trials"])
            except Exception as exc:  # a raising unit is a failed unit
                outputs.append({"raised": repr(exc)})
            durations.append(clock() - start)
            index += 1
        return durations, outputs

    def check(self, state, outputs) -> list[str | None]:
        return [_fig7_problem(trials) for trials in outputs]

    def digest(self, output) -> str:
        return _canonical(output)


def _fig7_problem(trials) -> str | None:
    if isinstance(trials, dict):
        return trials["raised"]
    for trial in trials:
        ratio, success = trial["presence_ratio"], trial["success"]
        perfect, damage = trial["perfect_cut"], trial["damage"]
        if perfect and not success:
            return "Theorem 1: perfect cut but the attack is infeasible"
        if perfect != (ratio == 1.0):
            return f"perfect_cut={perfect} but presence ratio {ratio}"
        if success != (math.isfinite(damage) and damage > 0):
            return f"success={success} but damage {damage}"
    return None


class SweepGrid:
    """Whole passes over a sweep grid, one fresh cache per pass."""

    name = "sweep-grid"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _spec(self):
        from repro.sweep.spec import SweepSpec

        return SweepSpec.from_dict(
            {
                "format": "repro-sweep",
                "version": 1,
                "name": "perfbench-sweep-grid",
                "seed": self.seed,
                "strategies": list(SWEEP_STRATEGIES),
                "topologies": [dict(t) for t in SWEEP_TOPOLOGIES],
                "attacker_counts": list(SWEEP_ATTACKERS),
            }
        )

    def setup(self):
        from repro.sweep.cache import FactorizationCache
        from repro.sweep.runner import build_scenarios, run_grid_point

        spec = self._spec()
        points = spec.expand()
        scenarios = build_scenarios(spec, points)
        # Warm-up: one chosen-victim point per topology with a throwaway
        # cache (first factorizations, first HiGHS call).
        warm = FactorizationCache(store=None)
        for point in points:
            if point.strategy == "chosen-victim" and point.num_attackers == 1:
                run_grid_point(spec, point, cache=warm, scenarios=scenarios)
        return {"spec": spec, "points": points, "scenarios": scenarios, "cache_stats": []}

    def setup_problems(self, state) -> list[str]:
        return []

    def describe(self, state) -> dict:
        return {
            "points_per_pass": len(state["points"]),
            "routing_matrices": [
                list(s.path_set.routing_matrix().shape) for s in state["scenarios"].values()
            ],
        }

    def measure(self, state, seconds: float, mark):
        from repro.sweep.cache import FactorizationCache
        from repro.sweep.runner import run_grid_point

        spec, points, scenarios = state["spec"], state["points"], state["scenarios"]
        durations, outputs = [], []
        clock = time.perf_counter
        deadline = clock() + seconds
        index = 0
        # Whole passes only, so every run measures the same unit mix.
        while clock() < deadline:
            cache = FactorizationCache(store=None)
            state["cache_stats"].append(cache.stats)
            for point in points:
                mark(index)
                start = clock()
                try:
                    outputs.append(
                        run_grid_point(spec, point, cache=cache, scenarios=scenarios)
                    )
                except Exception as exc:  # a raising unit is a failed unit
                    outputs.append({"raised": repr(exc)})
                durations.append(clock() - start)
                index += 1
        return durations, outputs

    def check(self, state, outputs) -> list[str | None]:
        per_pass = len(state["points"])
        alpha = state["spec"].attack["alpha"]
        problems = []
        for index, record in enumerate(outputs):
            reference = outputs[index % per_pass]
            if "raised" in record:
                problems.append(record["raised"])
            elif _canonical(record) != _canonical(reference):
                problems.append(f"point {record['index']} differs from the first pass")
            elif record["detected"] is not None and record["detected"] != (
                record["residual_l1"] > alpha
            ):
                problems.append(
                    f"detected={record['detected']} but residual {record['residual_l1']}"
                )
            else:
                problems.append(None)
        return problems

    def digest(self, output) -> str:
        return _canonical(output)

    def system_hit_frac(self, state) -> float:
        hits = sum(stats["system_hit"] for stats in state["cache_stats"])
        misses = sum(stats["system_miss"] for stats in state["cache_stats"])
        return hits / (hits + misses) if hits + misses else 0.0


class _Deadline(Exception):
    """Raised from the epoch observer to end the campaign at the deadline."""


class ChurnIsp:
    """One streaming campaign over ISP-scale path churn, one epoch per unit."""

    name = "churn-isp"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _path_set(self, topology, rng):
        from repro.exceptions import NoPathError
        from repro.routing.ksp import k_shortest_paths
        from repro.routing.paths import MeasurementPath, PathSet

        nodes = topology.nodes()
        path_set = PathSet(topology)
        seen: set = set()
        while path_set.num_paths < CHURN_PATHS:
            a, b = rng.choice(len(nodes), size=2, replace=False)
            try:
                sequence = k_shortest_paths(topology, nodes[int(a)], nodes[int(b)], 1)[0]
            except NoPathError:
                continue
            path = MeasurementPath(topology, sequence)
            if path.key() not in seen:
                seen.add(path.key())
                path_set.append(path)
        return path_set

    def setup(self):
        from repro.metrics.link_metrics import uniform_delay_metrics
        from repro.scenarios.scenario import Scenario
        from repro.scenarios.streaming import StreamingCampaign
        from repro.topology.generators.isp import large_isp_topology

        rng = _rng(self.seed, 1)
        topology = large_isp_topology(seed=self.seed)
        path_set = self._path_set(topology, rng)
        endpoints = sorted({p.source for p in path_set} | {p.target for p in path_set}, key=str)
        interior = sorted({n for p in path_set for n in p.interior_nodes}, key=str)
        attackers = [interior[int(i)] for i in rng.choice(len(interior), CHURN_ATTACKERS, replace=False)]
        scenario = Scenario(
            topology=topology,
            monitors=tuple(endpoints),
            path_set=path_set,
            true_metrics=uniform_delay_metrics(topology, 1.0, 20.0, rng=rng),
            name="isp-large-churn",
        )
        campaign = StreamingCampaign(scenario, attacker_nodes=attackers, backend="sparse")
        campaign.detector.system.rank  # noqa: B018 - forces the first factorization
        return {"scenario": scenario, "campaign": campaign}

    def setup_problems(self, state) -> list[str]:
        system = state["campaign"].detector.system
        if system.backend_name != "sparse":
            return [f"campaign runs the {system.backend_name} backend, not sparse"]
        return []

    def describe(self, state) -> dict:
        system = state["campaign"].detector.system
        return {
            "routing_matrix": [system.num_paths, system.num_links],
            "attackers": [str(a) for a in state["campaign"].attacker_nodes],
        }

    def _schedule(self, seconds: float):
        from repro.scenarios.streaming import random_churn_schedule

        epochs = max(10, math.ceil(seconds * CHURN_EPOCHS_PER_SECOND))
        return random_churn_schedule(
            CHURN_PATHS, epochs, churn_rate=1.0 / CHURN_PATHS, rng=_rng(self.seed, 2)
        )

    def measure(self, state, seconds: float, mark):
        campaign = state["campaign"]
        schedule = state["schedule"] = self._schedule(seconds)
        detector = campaign.detector
        check = detector.check
        clock = time.perf_counter
        ends: list[float] = []
        outputs: list = []

        # The campaign runs its whole schedule in one call, so epoch
        # boundaries are taken where each epoch ends: at its detector
        # check.  The observer keeps what the checks need and stops the
        # campaign once the deadline has passed.
        def observe(observed):
            result = check(observed)
            ends.append(clock())
            outputs.append((observed, result, detector.system.num_paths))
            if ends[-1] >= deadline:
                raise _Deadline
            mark(len(ends))
            return result

        detector.check = observe
        mark(0)
        start = clock()
        deadline = start + seconds
        try:
            campaign.run(schedule, active_epochs=CHURN_ACTIVITY, rng=_rng(self.seed, 3))
        except _Deadline:
            pass
        except Exception as exc:  # the epoch in flight failed
            ends.append(clock())
            outputs.append({"raised": repr(exc)})
        finally:
            del detector.check
        durations = list(np.diff([start] + ends))
        return durations, outputs

    def check(self, state, outputs) -> list[str | None]:
        from repro.tomography.linear_system import LinearSystem

        campaign, schedule = state["campaign"], state["schedule"]
        base = state["scenario"].path_set.sparse_routing_matrix()
        x_true = state["scenario"].true_metrics
        alpha = campaign.detector.alpha
        cold = set(np.linspace(0, len(outputs) - 1, CHURN_COLD_CHECKS).astype(int))
        cold.add(len(outputs) - 1)
        live = list(range(base.shape[0]))
        problems: list[str | None] = []
        for epoch, output in enumerate(outputs):
            event = schedule[epoch]
            failed = set(event.fail)
            live = [b for b in live if b not in failed] + list(event.recover)
            if isinstance(output, dict):
                problems.append(output["raised"])
                continue
            observed, result, rows = output
            matrix = base[live]
            honest = np.allclose(observed, matrix @ x_true, rtol=0, atol=1e-9)
            problem = None
            if rows != len(live):
                problem = f"detector has {rows} rows for {len(live)} live paths"
            elif honest and result.detected:
                problem = f"false alarm on honest measurements (residual {result.residual_l1})"
            elif epoch in cold:
                cold_system = LinearSystem(matrix, backend="sparse")
                problem = _cold_problem(cold_system, observed, result, alpha)
            problems.append(problem)
        return problems

    def digest(self, output) -> str:
        if isinstance(output, dict):
            return _canonical(output)
        observed, result, rows = output
        h = hashlib.sha256()
        for array in (observed, result.estimate, result.per_path_residual):
            h.update(np.ascontiguousarray(array).tobytes())
        return f"{rows}:{result.detected}:{result.residual_l1!r}:{h.hexdigest()}"


def _cold_problem(system, observed, result, alpha: float) -> str | None:
    estimate = system.estimate(observed)
    error = float(np.max(np.abs(estimate - result.estimate)))
    if error > CHURN_TOL:
        return f"evolved estimate differs from a cold rebuild by {error:.3g}"
    residual = float(np.abs(system.predict(estimate) - observed).sum())
    if abs(residual - result.residual_l1) > CHURN_TOL * max(1.0, residual):
        return f"residual {result.residual_l1} but a cold rebuild gives {residual}"
    if (residual > alpha) != result.detected:
        return f"verdict {result.detected} but a cold rebuild gives residual {residual}"
    return None


WORKLOADS = {w.name: w for w in (Fig7MonteCarlo, SweepGrid, ChurnIsp)}
