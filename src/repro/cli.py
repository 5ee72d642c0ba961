"""Command-line interface.

``python -m repro <command>`` exposes the library's main entry points
without writing any code:

- ``info`` — version and system inventory;
- ``topology`` — generate a topology and print its summary or edge list;
- ``case-study`` — reproduce a Section V-B figure (fig4/fig5/fig6/loss);
- ``attack`` — plan an attack on the Fig. 1 scenario and show the
  operator's resulting view plus the detector's verdict;
- ``run`` — plan an attack on a scenario loaded from a JSON file
  (written by :func:`repro.scenarios.serialization.save_scenario`);
- ``experiment`` — run a Monte-Carlo experiment (fig7/fig8/fig9) at a
  configurable trial count;
- ``sweep`` — run a declarative parameter-grid sweep (strategy x
  topology x attacker count) from a JSON spec, sharded and resumable;
- ``reproduce`` — regenerate every Section V-B case study (Figs. 4-6,
  the naive baseline, and the loss-domain variant) into a directory;
- ``analyze`` — run the repo's static analyzer (the per-file rules
  RP001-RP005 plus the cross-module passes RP006 and RP008-RP010: layer
  contract, worker-state discipline, obs schema, dead code);
- ``obs`` — inspect structured observability logs (``obs summarize``).

All output is plain text on stdout; exit status 0 on success, 1 on
failures/findings, 2 on bad arguments (argparse convention).

Setting ``REPRO_OBS=1`` makes every command write a structured JSONL
event log plus a run manifest (see :mod:`repro.obs`); ``REPRO_OBS_PATH``
/ ``REPRO_OBS_DIR`` control where.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for shell-completion tools)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scapegoating attacks on network tomography (ICDCS 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="version and system inventory")

    topo = sub.add_parser("topology", help="generate and describe a topology")
    topo.add_argument(
        "kind",
        choices=["fig1", "isp", "rgg", "waxman", "fattree"],
        help="topology family",
    )
    topo.add_argument("--seed", type=int, default=0)
    topo.add_argument("--nodes", type=int, default=100, help="node count (rgg/waxman)")
    topo.add_argument("--edges", action="store_true", help="print the edge list")

    case = sub.add_parser("case-study", help="reproduce a Section V-B figure")
    case.add_argument("figure", choices=["fig4", "fig5", "fig6", "naive", "loss"])
    case.add_argument("--seed", type=int, default=2017)

    attack = sub.add_parser("attack", help="plan an attack on the Fig. 1 scenario")
    attack.add_argument(
        "strategy",
        choices=["chosen-victim", "max-damage", "obfuscation", "naive", "frame-and-blur"],
    )
    attack.add_argument(
        "--attackers", nargs="+", default=["B", "C"], help="attacker node labels"
    )
    attack.add_argument(
        "--victims",
        nargs="*",
        type=int,
        default=None,
        help="victim link indices (chosen-victim / frame-and-blur)",
    )
    attack.add_argument("--stealthy", action="store_true")
    attack.add_argument("--confined", action="store_true")
    attack.add_argument("--seed", type=int, default=2017)
    attack.add_argument("--alpha", type=float, default=200.0)

    run = sub.add_parser("run", help="plan an attack on a scenario JSON file")
    run.add_argument("scenario", help="path to a repro-scenario JSON document")
    run.add_argument(
        "--strategy",
        choices=["chosen-victim", "max-damage", "obfuscation", "naive", "frame-and-blur"],
        default="max-damage",
    )
    run.add_argument(
        "--attackers",
        nargs="+",
        default=None,
        help="attacker node labels (default: the first non-monitor node)",
    )
    run.add_argument(
        "--victims",
        nargs="*",
        type=int,
        default=None,
        help="victim link indices (chosen-victim / frame-and-blur)",
    )
    run.add_argument("--stealthy", action="store_true")
    run.add_argument("--confined", action="store_true")
    run.add_argument("--alpha", type=float, default=200.0)
    run.add_argument(
        "--estimator",
        default=None,
        help=(
            "defender-side inversion family (ls, bayes-map, ridge, nnls, l1; "
            "default: ls, the paper's least squares)"
        ),
    )

    experiment = sub.add_parser("experiment", help="run a Monte-Carlo experiment")
    experiment.add_argument("figure", choices=["fig7", "fig8", "fig9"])
    experiment.add_argument(
        "--network", choices=["fig1", "wireline", "wireless"], default="fig1"
    )
    experiment.add_argument("--trials", type=int, default=40)
    experiment.add_argument("--seed", type=int, default=0)

    reproduce = sub.add_parser(
        "reproduce", help="regenerate all Section V-B case studies into a directory"
    )
    reproduce.add_argument("--out", default="reproduction", help="output directory")
    reproduce.add_argument("--seed", type=int, default=2017)

    sweep = sub.add_parser(
        "sweep", help="run a declarative parameter-grid sweep from a JSON spec"
    )
    sweep.add_argument("spec", help="path to a repro-sweep JSON spec")
    sweep.add_argument(
        "--out",
        default=None,
        help="results JSONL path (default: sweeps/<spec name>.jsonl)",
    )
    sweep.add_argument(
        "--workers", type=int, default=1, help="process-pool width (1 = in-process)"
    )
    sweep.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="split per-topology shards into chunks of at most this many points",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="skip grid points already checkpointed in the results file",
    )
    sweep.add_argument(
        "--max-points",
        type=int,
        default=None,
        help="stop (resumably) after this many new points",
    )

    obs = sub.add_parser("obs", help="inspect structured observability logs")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    summarize = obs_sub.add_parser(
        "summarize", help="summarize a JSONL run log (spans, counters, events)"
    )
    summarize.add_argument("log", help="path to a run .jsonl written with REPRO_OBS=1")

    analyze = sub.add_parser(
        "analyze",
        help="run the repo's static analyzer (RP001-RP010)",
    )
    analyze.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    analyze.add_argument(
        "--format",
        dest="fmt",
        choices=["text", "json"],
        default="text",
        help="report format (json is deterministic)",
    )
    analyze.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (e.g. RP006,RP008); default: "
        "all except opt-in rules (RP010)",
    )
    analyze.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    analyze.add_argument(
        "--profile",
        choices=["src", "tests"],
        default="src",
        help="severity profile (tests demotes RP002/RP003 to advisory)",
    )
    analyze.add_argument(
        "--obs-catalog",
        default=None,
        metavar="PATH",
        help="also render the obs event catalog markdown to PATH "
        "('-' for stdout)",
    )

    return parser


def _cmd_info() -> int:
    import repro

    print(f"repro {repro.__version__}")
    print(__doc__.strip().splitlines()[0])
    print()
    inventory = [
        ("repro.topology", "topologies, generators, serialization"),
        ("repro.routing", "paths, k-shortest paths, routing matrices"),
        ("repro.monitors", "monitor placement (incl. security-aware)"),
        ("repro.metrics", "additive metrics, link states"),
        ("repro.measurement", "analytic engine + packet DES (delay & loss)"),
        ("repro.tomography", "least-squares / NNLS / ridge estimation"),
        ("repro.attacks", "the scapegoating strategies and planning"),
        ("repro.detection", "consistency detector, robust estimation"),
        ("repro.scenarios", "case studies and Monte-Carlo experiments"),
        ("repro.obs", "instrumentation: run logs, counters, manifests"),
        ("repro.analysis", "static analysis: per-file and whole-program rules"),
    ]
    for name, what in inventory:
        print(f"  {name:<20} {what}")
    return 0


def _build_topology(args):
    if args.kind == "fig1":
        from repro.topology import paper_example_network

        return paper_example_network()
    if args.kind == "isp":
        from repro.topology import synthetic_rocketfuel

        return synthetic_rocketfuel(seed=args.seed)
    if args.kind == "rgg":
        from repro.topology import random_geometric_topology

        return random_geometric_topology(args.nodes, seed=args.seed)
    if args.kind == "waxman":
        from repro.topology import waxman_topology

        return waxman_topology(args.nodes, seed=args.seed)
    from repro.topology import fat_tree_topology

    return fat_tree_topology(4)


def _cmd_topology(args) -> int:
    from repro.reporting import format_kv
    from repro.topology.analysis import node_connectivity_summary
    from repro.topology.serialization import topology_to_edge_list

    topology = _build_topology(args)
    print(format_kv(topology.name or args.kind, node_connectivity_summary(topology)))
    if args.edges:
        from repro.exceptions import SerializationError

        print()
        try:
            print(topology_to_edge_list(topology), end="")
        except SerializationError:
            # Tuple-labelled topologies (grid/fat-tree) need JSON.
            from repro.topology.serialization import topology_to_json

            print(topology_to_json(topology))
    return 0


def _cmd_case_study(args) -> int:
    from repro.reporting import format_fig4_series

    if args.figure == "fig4":
        from repro.scenarios.simple_network import chosen_victim_case_study

        record = chosen_victim_case_study(seed=args.seed)
        print(format_fig4_series(record, title="Fig. 4: chosen-victim on link 10"))
    elif args.figure == "fig5":
        from repro.scenarios.simple_network import max_damage_case_study

        record = max_damage_case_study(seed=args.seed)
        print(format_fig4_series(record, title="Fig. 5: maximum damage"))
    elif args.figure == "fig6":
        from repro.scenarios.simple_network import obfuscation_case_study

        record = obfuscation_case_study(seed=args.seed)
        print(format_fig4_series(record, title="Fig. 6: obfuscation"))
    elif args.figure == "naive":
        from repro.scenarios.simple_network import naive_baseline_case_study

        record = naive_baseline_case_study(seed=args.seed)
        print(format_fig4_series(record, title="Naive baseline: delay everything"))
        print(f"worst link is attacker-controlled: {record['worst_link_is_controlled']}")
    else:  # loss
        from repro.scenarios.loss_network import loss_chosen_victim_case_study

        record = loss_chosen_victim_case_study(seed=args.seed)
        if not record["feasible"]:
            print("loss-domain attack infeasible for this seed")
            return 1
        print("Loss-domain chosen-victim (packet drops, simulated):")
        print(f"  planned abnormal links : {record['planned_abnormal']}")
        print(f"  measured abnormal links: {record['measured_abnormal']}")
        print(
            "  victim's estimated delivery ratio: "
            f"{record['victim_delivery_estimate']:.2%} (true ~99%)"
        )
    return 0


def _plan_attack(strategy: str, context, victims, *, stealthy: bool, confined: bool):
    """Construct and run one attack strategy (shared by ``attack``/``run``)."""
    if strategy == "chosen-victim":
        from repro.attacks import ChosenVictimAttack

        return ChosenVictimAttack(
            context, victims, stealthy=stealthy, confined=confined
        ).run()
    if strategy == "max-damage":
        from repro.attacks import MaxDamageAttack

        return MaxDamageAttack(context, stealthy=stealthy, confined=confined).run()
    if strategy == "obfuscation":
        from repro.attacks import ObfuscationAttack

        return ObfuscationAttack(
            context, min_victims=1, stealthy=stealthy, confined=confined
        ).run()
    if strategy == "frame-and-blur":
        from repro.attacks import FrameAndBlurAttack

        return FrameAndBlurAttack(context, victims, stealthy=stealthy).run()
    from repro.attacks import NaiveDelayAttack

    return NaiveDelayAttack(context).run()


def _report_attack(
    outcome, context, scenario, *, strategy, attackers, alpha, estimator=None
) -> int:
    """Print the operator's view plus the detector's verdict (shared tail)."""
    from repro.detection import TomographyAuditor
    from repro.reporting import format_link_series

    if not outcome.feasible:
        print(f"attack infeasible: {outcome.status}")
        return 1
    print(
        format_link_series(
            [float(v) for v in outcome.predicted_estimate],
            [str(s) for s in outcome.diagnosis.states],
            title=(
                f"{strategy} by {attackers}: damage "
                f"{outcome.damage:.0f} ms, mean path "
                f"{outcome.mean_path_measurement:.1f} ms"
            ),
            victim_links=outcome.victim_links,
            controlled_links=sorted(context.controlled_links),
        )
    )
    # The auditor shares the context's kernel and estimator, so the CLI's
    # verdict matches what the sweep engine would record for this point.
    report = TomographyAuditor(
        scenario.path_set, alpha=alpha, system=context.system, estimator=estimator
    ).audit(outcome.observed_measurements)
    label = f"alpha={alpha}" if estimator is None else f"alpha={alpha}, {estimator}"
    print(
        f"consistency detector ({label}): "
        f"{'DETECTED' if not report.trustworthy else 'not detected'} "
        f"(residual {report.detection.residual_l1:.2f} ms)"
    )
    return 0


def _cmd_attack(args) -> int:
    from repro.exceptions import ReproError
    from repro.scenarios.simple_network import paper_fig1_scenario

    scenario = paper_fig1_scenario(seed=args.seed)
    try:
        context = scenario.attack_context(args.attackers)
    except ReproError as exc:
        # Bad attacker labels / degenerate contexts surface as ReproError
        # subclasses (AttackConstraintError, NodeNotFoundError, ...).
        print(f"error: {exc}", file=sys.stderr)
        return 1

    victims = args.victims if args.victims else [9]
    outcome = _plan_attack(
        args.strategy, context, victims, stealthy=args.stealthy, confined=args.confined
    )
    return _report_attack(
        outcome,
        context,
        scenario,
        strategy=args.strategy,
        attackers=args.attackers,
        alpha=args.alpha,
    )


def _cmd_run(args) -> int:
    from repro.exceptions import ReproError, SerializationError
    from repro.obs import core as obs
    from repro.scenarios.serialization import load_scenario

    try:
        scenario = load_scenario(args.scenario)
    except SerializationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attackers = args.attackers
    if not attackers:
        monitors = set(scenario.monitors)
        attackers = [n for n in scenario.topology.nodes() if n not in monitors][:1]
        if not attackers:
            print("error: no non-monitor node available as attacker", file=sys.stderr)
            return 1
    try:
        context = scenario.attack_context(attackers, estimator=args.estimator)
        victims = args.victims
        if args.strategy in ("chosen-victim", "frame-and-blur") and not victims:
            controlled = set(context.controlled_links)
            victims = [
                link.index
                for link in scenario.topology.links()
                if link.index not in controlled
            ][:1]
            if not victims:
                print("error: no candidate victim link", file=sys.stderr)
                return 1
        log = obs.active_log()
        manifest = getattr(log, "manifest", None)
        if manifest is not None:
            manifest.attach_scenario(scenario)
        with obs.span(
            "cli_run",
            scenario=scenario.name or args.scenario,
            strategy=args.strategy,
            attackers=attackers,
        ):
            outcome = _plan_attack(
                args.strategy,
                context,
                victims,
                stealthy=args.stealthy,
                confined=args.confined,
            )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _report_attack(
        outcome,
        context,
        scenario,
        strategy=args.strategy,
        attackers=attackers,
        alpha=args.alpha,
        estimator=args.estimator,
    )


def _cmd_experiment(args) -> int:
    from repro.reporting import format_detection_table, format_success_bins, format_table

    if args.network == "wireline":
        from repro.scenarios.experiments import standard_wireline_scenario

        scenario = standard_wireline_scenario(seed=args.seed)
    elif args.network == "wireless":
        from repro.scenarios.experiments import standard_wireless_scenario

        scenario = standard_wireless_scenario(seed=args.seed)
    else:
        from repro.scenarios.simple_network import paper_fig1_scenario

        scenario = paper_fig1_scenario()

    if args.figure == "fig7":
        from repro.scenarios.experiments import success_probability_sweep

        result = success_probability_sweep(
            scenario, num_trials=args.trials, seed=args.seed
        )
        print(
            format_success_bins(
                result["bins"],
                title=f"Fig. 7 ({args.network}, {args.trials} trials)",
            )
        )
    elif args.figure == "fig8":
        from repro.scenarios.experiments import single_attacker_sweep

        result = single_attacker_sweep(scenario, num_trials=args.trials, seed=args.seed)
        print(
            format_table(
                ["metric", "value"],
                [
                    ["max-damage success", result["max_damage_success_rate"]],
                    ["obfuscation success", result["obfuscation_success_rate"]],
                ],
            )
        )
    else:  # fig9
        from repro.scenarios.detection_experiments import detection_ratio_experiment

        cells = []
        for strategy in ("chosen-victim", "max-damage", "obfuscation"):
            for cut in ("perfect", "imperfect"):
                cells.append(
                    detection_ratio_experiment(
                        scenario,
                        strategy,
                        cut,
                        num_trials=args.trials,
                        seed=args.seed,
                    )
                )
        print(
            format_detection_table(
                cells, title=f"Fig. 9 ({args.network}, {args.trials} trials/cell)"
            )
        )
    return 0


def _cmd_reproduce(args) -> int:
    from pathlib import Path

    from repro.reporting import format_fig4_series
    from repro.scenarios.loss_network import loss_chosen_victim_case_study
    from repro.scenarios.simple_network import (
        chosen_victim_case_study,
        max_damage_case_study,
        naive_baseline_case_study,
        obfuscation_case_study,
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    studies = [
        ("fig4_chosen_victim", chosen_victim_case_study, "Fig. 4: chosen-victim on link 10"),
        ("fig5_max_damage", max_damage_case_study, "Fig. 5: maximum damage"),
        ("fig6_obfuscation", obfuscation_case_study, "Fig. 6: obfuscation"),
        ("naive_baseline", naive_baseline_case_study, "Naive baseline"),
    ]
    for name, study, title in studies:
        record = study(seed=args.seed)
        text = format_fig4_series(record, title=title)
        (out / f"{name}.txt").write_text(text + "\n")
        print(f"wrote {out / (name + '.txt')}")
    loss = loss_chosen_victim_case_study(seed=args.seed)
    if loss["feasible"]:
        lines = [
            "Loss-domain chosen-victim (simulated packet drops)",
            f"planned abnormal links : {loss['planned_abnormal']}",
            f"measured abnormal links: {loss['measured_abnormal']}",
            f"victim estimated delivery: {loss['victim_delivery_estimate']:.2%}",
        ]
        (out / "loss_chosen_victim.txt").write_text("\n".join(lines) + "\n")
        print(f"wrote {out / 'loss_chosen_victim.txt'}")
    return 0


def _cmd_sweep(args) -> int:
    from pathlib import Path

    from repro.exceptions import ReproError, SerializationError
    from repro.reporting import format_sweep_summary
    from repro.sweep import SweepSpec, aggregate_rows, run_sweep

    try:
        spec = SweepSpec.load(args.spec)
    except (SerializationError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out) if args.out else Path("sweeps") / f"{spec.name or 'sweep'}.jsonl"
    try:
        summary = run_sweep(
            spec,
            results_path=out,
            workers=args.workers,
            chunk_size=args.chunk_size,
            resume=args.resume,
            max_points=args.max_points,
        )
    except (SerializationError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"sweep {spec.name or spec.digest[:12]}: "
        f"{summary['ran']} ran, {summary['skipped']} skipped, "
        f"{summary['remaining']} remaining ({summary['total']} total)"
    )
    print(f"results: {out}")
    if summary["remaining"]:
        print(f"partial grid; finish with: repro sweep {args.spec} --resume --out {out}")
    print()
    print(
        format_sweep_summary(
            aggregate_rows(summary["points"]),
            title=f"Sweep summary ({len(summary['points'])} points)",
        )
    )
    return 0


def _cmd_obs(args) -> int:
    from repro.exceptions import SerializationError
    from repro.obs import format_summary, summarize_run

    try:
        summary = summarize_run(args.log)
    except SerializationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(format_summary(summary))
    return 0


def _print_rule_listing() -> int:
    from repro.analysis.lint import all_rules
    from repro.analysis.lint.registry import ProjectRule

    for rule_id, rule_cls in all_rules().items():
        tags = []
        if issubclass(rule_cls, ProjectRule):
            tags.append("whole-program")
        if not rule_cls.default_enabled:
            tags.append("opt-in")
        suffix = f" [{', '.join(tags)}]" if tags else ""
        print(f"{rule_id}  {rule_cls.summary}{suffix}")
    return 0


def _parse_select(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [code for code in raw.split(",") if code.strip()]


def _cmd_analyze(args) -> int:
    from repro.analysis.lint.engine import analyze_paths, format_analysis
    from repro.exceptions import ValidationError

    if args.list_rules:
        return _print_rule_listing()
    try:
        report = analyze_paths(
            args.paths,
            select=_parse_select(args.select),
            profile=args.profile,
        )
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.obs_catalog is not None:
        from pathlib import Path

        from repro.analysis.obschema import render_obs_catalog

        catalog = render_obs_catalog(report.project)
        if args.obs_catalog == "-":
            print(catalog)
        else:
            Path(args.obs_catalog).write_text(catalog, encoding="utf-8")
            print(f"wrote obs catalog to {args.obs_catalog}", file=sys.stderr)
    print(format_analysis(report, fmt=args.fmt))
    return report.exit_code


def _dispatch(args) -> int:
    if args.command == "info":
        return _cmd_info()
    if args.command == "topology":
        return _cmd_topology(args)
    if args.command == "case-study":
        return _cmd_case_study(args)
    if args.command == "attack":
        return _cmd_attack(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "reproduce":
        return _cmd_reproduce(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    raise RuntimeError(f"unhandled command {args.command!r}")  # pragma: no cover


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit status.

    Under ``REPRO_OBS=1`` the whole dispatch runs inside an active
    :class:`~repro.obs.core.EventLog`, and a run manifest (seed, config
    digest, version, wall/CPU time, exit status) is written next to the
    log as ``<log stem>.manifest.json``.
    """
    args = build_parser().parse_args(argv)
    from repro.obs import core as obs_core

    with obs_core.enabled_from_env() as log:
        if log is None:
            return _dispatch(args)

        from repro.obs.manifest import RunManifest

        manifest = RunManifest(
            command=args.command, seed=getattr(args, "seed", None), config=vars(args)
        )
        # Commands can enrich the manifest (e.g. attach the scenario).
        log.manifest = manifest
        with log.span("cli", command=args.command):
            status = _dispatch(args)
        manifest.data["exit_status"] = status
        manifest_path = manifest.write(log.path.with_suffix(".manifest.json"))
        log.event("manifest_written", path=str(manifest_path))
        print(f"obs: run log {log.path}, manifest {manifest_path}", file=sys.stderr)
        return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
