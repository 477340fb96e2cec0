"""Command-line interface for the FalVolt reproduction.

Exposes the experiment registry so every figure of the paper can be
regenerated from the shell::

    python -m repro list                      # list all registered experiments
    python -m repro run fig7 --dataset mnist  # regenerate one figure
    python -m repro run fig5b --dataset dvs_gesture --out fig5b.json
    python -m repro info                      # package / configuration summary

Fault-injection campaigns run directly on the campaign engine::

    python -m repro campaign counts --counts 0,4,8,16 --trials 8
    python -m repro campaign bits --bits 0,4,8,14 --engine sequential
    python -m repro campaign sizes --sizes 8,16,32 --workers 4 --cache-dir .cache

Named scenarios bundle dataset, sweep axis, fault model and mitigation
into one registry entry (:mod:`repro.experiments.scenarios`)::

    python -m repro campaign --list-scenarios
    python -m repro campaign --scenario nmnist-transient-bernoulli
    python -m repro campaign --scenario dvs-gesture-transient-burst --engine sequential

Every sweep runs as work units on the campaign orchestrator, with its
retries and cache-key resume.  By default one process computes them in
multi-map passes; ``--workers K`` pulls them from a crash-tolerant
work-stealing queue, ``--resume`` persists unit results so an interrupted
sweep continues where it stopped, and ``--shard i/N`` splits one sweep
across N machines sharing a cache directory::

    python -m repro campaign counts --trials 8 --workers 4 --resume
    python -m repro campaign counts --shard 0/2 --cache-dir sweep-cache
    python -m repro campaign counts --shard 1/2 --cache-dir sweep-cache
    python -m repro campaign counts --cache-dir sweep-cache  # merge

Retraining grids (``run fig2|fig6|fig7|fig8|ablation-threshold``) run
their cells on the same orchestrator and take ``--workers``,
``--cache-dir``, ``--shard``, ``--unit-timeout`` and ``--resume``::

    python -m repro run fig7 --shard 0/2 --cache-dir retrain-cache
    python -m repro run fig7 --shard 1/2 --cache-dir retrain-cache
    python -m repro run fig7 --cache-dir retrain-cache  # merge

Every sweep entry point takes the same campaign flags.  The CLI turns them
into one options dict (:func:`runner_options`) that reaches
:class:`~repro.faults.CampaignRunner` unchanged.
:func:`~repro.faults.check_runner_options` (for a retraining grid,
:func:`~repro.experiments.check_retrain_options`) validates it before any
baseline is trained: bad values exit 2 with every problem listed.
``campaign bits|counts|sizes`` runs an unregistered scenario through
:func:`~repro.experiments.run_scenario`, the same path as ``--scenario``
and ``run fig5a|fig5b|fig5c`` (the built-in scenarios of those names).
``repro run`` rejects (exit 2) any campaign flag that the chosen experiment
cannot honour, and ``campaign --scenario`` any grid flag (``--dataset``,
``--counts``, ``--trials``, ...), since the scenario fixes its grid.

The CLI is a thin layer over :mod:`repro.experiments` and
:mod:`repro.faults`; anything it can do is also available programmatically.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from . import __version__
from .experiments import (
    EXPERIMENTS,
    default_config,
    format_table,
    get_experiment,
    list_experiments,
)
from .experiments.config import PAPER_DATASETS, SCALES, check_overrides
from .experiments.scenarios import SWEEPS, get_scenario
from .experiments.mitigation import RETRAIN_OPTIONS
from .faults.injection import ENGINES
from .utils import configure_logging, save_records


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Improving Reliability of Spiking Neural Networks "
                    "through Fault Aware Threshold Voltage Optimization' (FalVolt, DATE 2023)")
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command")

    list_parser = subparsers.add_parser("list", help="list registered experiments")
    list_parser.set_defaults(handler=_cmd_list)

    info_parser = subparsers.add_parser("info", help="show package and preset information")
    info_parser.set_defaults(handler=_cmd_info)

    run_parser = subparsers.add_parser("run", help="run one registered experiment")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS),
                            help="experiment id (e.g. fig7)")
    run_parser.add_argument("--dataset", choices=PAPER_DATASETS, default="mnist")
    run_parser.add_argument("--scale", choices=sorted(SCALES), default="small")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="override the preset seed")
    run_parser.add_argument("--out", default=None,
                            help="optional JSON path for the raw records")
    _add_engine_arguments(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    campaign_parser = subparsers.add_parser(
        "campaign", help="run a fault-injection sweep on the campaign engine")
    campaign_parser.add_argument("sweep", nargs="?", default=None,
                                 choices=SWEEPS,
                                 help="grid axis: bit positions, faulty-PE counts "
                                      "or array sizes (Fig. 5a/5b/5c); omit when "
                                      "using --scenario")
    campaign_parser.add_argument("--scenario", default=None, metavar="NAME",
                                 help="run a named scenario from the registry "
                                      "(dataset x sweep x fault model x "
                                      "mitigation); see --list-scenarios")
    campaign_parser.add_argument("--list-scenarios", action="store_true",
                                 help="list registered scenarios and exit")
    campaign_parser.add_argument("--seed", type=int, default=None)
    _add_grid_arguments(campaign_parser)
    campaign_parser.add_argument("--out", default=None,
                                 help="optional JSON path for the raw records")
    _add_engine_arguments(campaign_parser)
    campaign_parser.set_defaults(handler=_cmd_campaign)
    return parser


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags of a hand-launched sweep, which a ``--scenario`` fixes."""

    parser.add_argument("--dataset", choices=PAPER_DATASETS, default="mnist")
    parser.add_argument("--scale", choices=sorted(SCALES), default="small")
    parser.add_argument("--bits", type=_int_list,
                        default=list(get_scenario("fig5a").values),
                        help="comma-separated bit positions (bits sweep; "
                             "default: fig5a's, the even bits up to the "
                             "MSB and the MSB)")
    parser.add_argument("--counts", type=_int_list, default=[0, 2, 4, 8, 16],
                        help="comma-separated faulty-PE counts (counts sweep)")
    parser.add_argument("--sizes", type=_int_list, default=[4, 8, 16, 32],
                        help="comma-separated array sizes (sizes sweep)")
    parser.add_argument("--trials", type=int, default=4,
                        help="fault maps per grid point")
    parser.add_argument("--stuck", choices=("sa0", "sa1"), default="sa1")


def _flags_off_default(args: argparse.Namespace, add_arguments) -> List[str]:
    """``add_arguments``' flags whose value in ``args`` is not the default."""

    parser = argparse.ArgumentParser()
    add_arguments(parser)
    defaults = vars(parser.parse_args([]))
    return [name for name, default in defaults.items()
            if getattr(args, name) != default]


def _int_list(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _shard_spec(text: str):
    from .faults import ShardSpec

    try:
        return ShardSpec.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


#: Cache directory used when ``--resume``/``--shard`` are given without an
#: explicit ``--cache-dir``.
DEFAULT_CACHE_DIR = ".repro-cache"


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--engine", choices=ENGINES,
                        default="fused",
                        help="campaign execution engine (float64 records are "
                             "identical across engines; 'fused' is the "
                             "no-autograd default)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes pulling the work units of a "
                             "sweep or retraining grid from the "
                             "orchestrator's work-stealing queue (1 = serial)")
    parser.add_argument("--cache-dir", default=None,
                        help="directory for on-disk result caching (doubles "
                             "as the shard coordination layer)")
    parser.add_argument("--shard", type=_shard_spec, default=None, metavar="i/N",
                        help="run only shard i of an N-way split of a sweep "
                             "or retraining grid (0-based); shards pointed "
                             "at the same cache directory partition the "
                             "work units exactly")
    parser.add_argument("--trial-chunk", type=int, default=None, metavar="K",
                        help="split each sweep point into work units of at "
                             "most K trials (default: one unit per point); "
                             "per-map accuracies are independent of the "
                             "split, so merged float64 records are "
                             "byte-identical to an unchunked run")
    parser.add_argument("--unit-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-unit soft deadline for a sweep or "
                             "retraining grid: a worker whose unit runs "
                             "longer is killed and the unit retried on "
                             "another worker (default: no deadline).  "
                             "Workers are otherwise killed only when their "
                             "heartbeats stall or they die, so only this "
                             "flag catches a unit stuck in a busy loop.  A "
                             "timing knob only -- records are unchanged")
    parser.add_argument("--resume", action="store_true",
                        help=f"cache results under {DEFAULT_CACHE_DIR}/ (when "
                             "no --cache-dir is given) so an interrupted "
                             "sweep or retraining grid continues where it "
                             "stopped")


def runner_options(args: argparse.Namespace) -> dict:
    """The campaign options set on the command line, as CampaignRunner keywords.

    The one place the CLI builds them.  A flag left at its default is left
    out, so CampaignRunner's own default applies and a runner that cannot
    honour an option only meets it when it was asked for.  ``--resume`` and
    ``--shard`` imply a cache directory.  Every run gets progress lines:
    pooled and sharded runs one per unit, serial runs only for failures,
    retries and cache incidents.
    """

    from .faults import RUNNER_OPTIONS

    options = {name: getattr(args, name)
               for name in _flags_off_default(args, _add_engine_arguments)
               if name in RUNNER_OPTIONS}
    if args.resume or args.shard is not None:
        options.setdefault("cache_dir", DEFAULT_CACHE_DIR)
    options["progress"] = (_print_progress
                           if args.workers > 1 or args.shard is not None
                           else _print_incidents)
    return options


def _option_problems(options: dict, retraining: bool = False) -> List[str]:
    """The problem with the campaign options, as a list of at most one.

    A ``retraining`` grid's options are checked without the fused-engine
    settings, which it never uses.
    """

    from .experiments import check_retrain_options
    from .faults import check_runner_options

    check = check_retrain_options if retraining else check_runner_options
    try:
        check(**options)
    except ValueError as exc:
        return [str(exc)]
    return []


def _report_problems(problems: List[str]) -> bool:
    """Print every problem found on the command line; whether there was one."""

    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return bool(problems)


def _print_progress(event: dict) -> None:
    kind = event.get("kind")
    if kind == "unit-done":
        position = (f" {event['completed']}/{event['total']}"
                    if "completed" in event else "")
        eta = event.get("eta_seconds")
        eta_text = f", eta {eta:.0f}s" if eta is not None else ""
        print(f"  unit{position} done: {event.get('unit')} in "
              f"{event.get('seconds', 0.0):.2f}s{eta_text}")
    elif kind == "unit-failed":
        delay = event.get("retry_delay")
        retry = f"; retrying in {delay:.2f}s" if delay is not None else ""
        print(f"  unit {event.get('unit')} failed on attempt "
              f"{event.get('attempt')}: {event.get('error')}{retry}")
    elif kind == "worker-crash":
        print(f"  worker {event.get('pid')} died (exit {event.get('exitcode')}); "
              f"rescheduling its unit if attempts remain")
    elif kind == "worker-hung":
        print(f"  worker {event.get('pid')} hung ({event.get('error')}); "
              f"killed and replaced, rescheduling its unit if attempts remain")
    elif kind == "cache-corrupt":
        print(f"  damaged cache entry quarantined to "
              f"{event.get('quarantined_to')}; recomputing "
              f"({event.get('detail')})")
    elif kind == "store-degraded":
        print(f"  could not store cache record ({event.get('detail')}); "
              f"continuing uncached")


def _print_incidents(event: dict) -> None:
    """A serial run's progress: every event but a first-attempt unit-done."""

    if event.get("kind") != "unit-done" or event.get("attempt", 1) > 1:
        _print_progress(event)


def _cmd_list(args: argparse.Namespace) -> int:
    rows = [{
        "id": spec.experiment_id,
        "paper artifact": spec.paper_artifact,
        "description": spec.description,
    } for spec in list_experiments()]
    print(format_table(rows, columns=["id", "paper artifact", "description"],
                       title="Registered experiments"))
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    print(f"repro {__version__} -- FalVolt (DATE 2023) reproduction")
    print(f"datasets: {', '.join(PAPER_DATASETS)}")
    print(f"scales:   {', '.join(sorted(SCALES))}")
    rows = []
    for dataset in PAPER_DATASETS:
        config = default_config(dataset)
        rows.append({
            "dataset": dataset,
            "train/test": f"{config.num_train}/{config.num_test}",
            "channels": config.channels,
            "time steps": config.time_steps,
            "array": f"{config.array_rows}x{config.array_cols}",
            "baseline epochs": config.baseline_epochs,
        })
    print(format_table(rows, columns=["dataset", "train/test", "channels", "time steps",
                                      "array", "baseline epochs"],
                       title="Small-scale presets"))
    return 0


def _report_pending_shard(exc, options: dict) -> int:
    """Explain a sharded sweep or retraining grid waiting on its sibling shards."""

    cache_dir = options["cache_dir"]
    print(f"shard {options['shard']} finished its work units; "
          f"{len(exc.pending)} record(s) of the sweep or retraining grid "
          f"still need units from other shards.")
    print(f"run the remaining shards against --cache-dir {cache_dir}, then "
          f"re-run this command without --shard (or with --resume) to merge "
          f"the records from the cache.")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .faults import PendingShardError

    spec = get_experiment(args.experiment)
    options = runner_options(args)
    if "progress" not in spec.options:
        options.pop("progress", None)  # runners without work units take none
    unsupported = [name for name in options if name not in spec.options]
    problems = [f"{spec.experiment_id} cannot honour "
                f"{', '.join(_flag_names(unsupported))}"] if unsupported else []
    for name in unsupported:
        del options[name]
    problems += _option_problems(options,
                                 retraining=spec.options == RETRAIN_OPTIONS)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        config = default_config(args.dataset, scale=args.scale, **overrides)
    except ValueError as exc:
        problems.append(str(exc))
    if _report_problems(problems):
        return 2
    print(f"running {spec.experiment_id} ({spec.paper_artifact}) on {args.dataset} "
          f"[{args.scale} scale]")
    try:
        records = spec.runner(config, **options)
    except PendingShardError as exc:
        return _report_pending_shard(exc, options)
    if records and isinstance(records, list) and isinstance(records[0], dict):
        print(format_table(records, title=f"{spec.experiment_id} records"))
    if args.out:
        save_records(records, args.out)
        print(f"records saved to {args.out}")
    return 0


#: Record columns printed per sweep axis.
_CAMPAIGN_COLUMNS = {
    "bits": ["dataset", "stuck_type", "bit_position", "accuracy", "accuracy_std"],
    "counts": ["dataset", "num_faulty_pes", "fault_rate", "accuracy", "accuracy_std"],
    "sizes": ["dataset", "array_size", "num_faulty_pes", "accuracy", "accuracy_std"],
}


def _flag_names(names: Sequence[str]) -> List[str]:
    return ["--" + name.replace("_", "-") for name in names]


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .experiments.scenarios import Scenario, list_scenarios, run_scenario
    from .faults import PendingShardError

    if args.list_scenarios:
        rows = [{
            "name": scenario.name,
            "dataset": scenario.dataset,
            "sweep": scenario.sweep,
            "fault model": scenario.fault_model,
            "mitigation": scenario.mitigation,
            "description": scenario.description,
        } for scenario in list_scenarios()]
        print(format_table(rows, columns=["name", "dataset", "sweep", "fault model",
                                          "mitigation", "description"],
                           title="Registered scenarios"))
        return 0
    if (args.sweep is None) == (args.scenario is None):
        print("error: give exactly one of a sweep axis (bits/counts/sizes) "
              "or --scenario NAME", file=sys.stderr)
        return 2
    problems = []
    fixed = (_flags_off_default(args, _add_grid_arguments)
             if args.scenario is not None else [])
    if fixed:
        problems.append(f"scenario '{args.scenario}' fixes its grid and "
                        f"dataset; cannot honour {', '.join(_flag_names(fixed))}")
    overrides = {"seed": args.seed} if args.seed is not None else {}
    try:
        if args.scenario is not None:
            scenario = get_scenario(args.scenario)
        else:
            scenario = Scenario(
                name=f"{args.dataset}-{args.sweep}", dataset=args.dataset,
                sweep=args.sweep, values=getattr(args, args.sweep),
                scale=args.scale, trials=args.trials, stuck_type=args.stuck)
    except ValueError as exc:
        problems.append(str(exc))
        check_overrides(overrides, problems)  # what build_config checks
    else:
        try:
            config = scenario.build_config(**overrides)
            scenario.check_grid(config)
        except ValueError as exc:
            problems.append(str(exc))
    options = runner_options(args)
    problems += _option_problems(options)
    if _report_problems(problems):
        return 2
    settings = "".join(f", {name}={value}" for name, value in options.items()
                       if name != "progress")
    print(f"campaign {scenario.describe()} [{scenario.scale} scale{settings}]")
    try:
        records = run_scenario(scenario, config, **options)
    except PendingShardError as exc:
        return _report_pending_shard(exc, options)
    print(format_table(records, columns=_CAMPAIGN_COLUMNS[scenario.sweep],
                       title=f"campaign {scenario.name} records"))
    if args.out:
        save_records(records, args.out)
        print(f"records saved to {args.out}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""

    configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "handler", None):
        parser.print_help()
        return 2
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
