"""End-to-end benchmark of the FalVolt reproduction: fault sweeps and retraining.

Run from the repository root:

    python3 perfbench/run.py                      # every workload, one process each
    python3 perfbench/run.py --workload sweep-stuckat --seed 3 --seconds 20
    python3 perfbench/run.py --workload retrain-fig7 --trace 1
    python3 perfbench/run.py --workload sweep-dvs-transient --pin

One run of a workload sets the program up ``SETUP_REPEATS`` times (imports,
dataset synthesis, baseline training), checks an untimed reference of the
workload's operation, then repeats the operation for ``--seconds`` seconds
and checks every repetition.  With ``--trace 0`` it reports the end-to-end
metrics (``setup_s``, ``run_s``, ``peak_rss_mb``).  With ``--trace 1`` it
sets up once under the tracer, interleaves untraced and traced
repetitions, reports the per-layer metrics of ``probes.py`` plus the
tracing overhead, and writes a Chrome trace-event file to
``perfbench/out/``.  ``--pin`` re-pins the default seed's output digests
in ``perfbench/pinned.json`` once the run's output checks pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when an output check failed or the program cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import stamp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
PINNED_FILE = HERE / "pinned.json"
WORKLOAD_NAMES = ("sweep-stuckat", "retrain-fig7", "sweep-dvs-transient")
DEFAULT_SEED = 7
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="re-pin the default seed's output digests")
    args = parser.parse_args(argv)
    if args.pin and (args.workload == "all" or args.trace
                     or args.seed != DEFAULT_SEED):
        parser.error(f"--pin needs one --workload, --trace 0 and seed {DEFAULT_SEED}")
    return args


def emit(correct: bool, attempted: int, failed: int, metrics: dict,
         notes=()) -> int:
    """Print the metric table and the final JSON line; return the exit code."""

    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    share = failed / attempted if attempted else 1.0
    print(f"  {'failed_frac':42s} {share:14.6g} ({failed} of {attempted} operations)")
    for note in notes:
        print(f"  check: {note}")
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


def pinned_outputs(name: str, seed: int, env: dict):
    """Pinned output digests for this workload, if they apply here."""

    if seed != DEFAULT_SEED or not PINNED_FILE.exists():
        return None
    entry = json.loads(PINNED_FILE.read_text()).get(name)
    if entry is None or entry["numeric_env"] != stamp.numeric_key(env):
        return None
    return entry["outputs"]


def write_pin(name: str, env: dict, outputs: dict) -> None:
    pins = json.loads(PINNED_FILE.read_text()) if PINNED_FILE.exists() else {}
    pins[name] = {"seed": DEFAULT_SEED, "numeric_env": stamp.numeric_key(env),
                  "outputs": outputs}
    PINNED_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def timed_rep(workload, index: int, outcome, times: list):
    """One timed repetition; an exception fails all its operations."""

    gc.collect()
    start = time.perf_counter()
    try:
        result = workload.rep(index)
    except Exception:
        traceback.print_exc()
        outcome.attempted += workload.ops_per_rep
        outcome.failed += workload.ops_per_rep
        outcome.notes.append(f"repetition {index} raised")
        return None
    times.append(time.perf_counter() - start)
    return result


def run_workload(args) -> int:
    stamp.pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    try:
        from repro.experiments import baseline as experiments_baseline
        import workloads
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start

    env = stamp.environment(ROOT)
    workload = workloads.WORKLOADS[args.workload]()
    config = workload.config(args.seed)
    pinned = None if args.pin else pinned_outputs(args.workload, args.seed, env)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  {workload.describe(config)}")
    print(f"  numpy {env['numpy']}  blas {env['blas_runtime'] or env['blas_build']}"
          f"  nproc {env['nproc']}  git {env['git_revision'] or 'n/a'}"
          f"  src {env['source_digest']}  pinned {stamp.PINNED}")

    outcome = workloads.Outcome()
    report = {"workload": args.workload, "seed": args.seed, "stamp": env,
              "description": workload.describe(config)}
    if args.trace:
        import probes
        from tracing import Tracer

        tracer = Tracer()
        with tracer.installed(probes.install), tracer.span("bench.setup"):
            baseline = experiments_baseline.prepare_baseline(config, use_cache=False)
    else:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            begin = time.perf_counter()
            baseline = experiments_baseline.prepare_baseline(config, use_cache=False)
            setup_times.append(import_s + time.perf_counter() - begin)

    workload.start(baseline)
    try:
        outcome.add(workload.reference(pinned))
    except Exception:
        traceback.print_exc()
        outcome.attempted += workload.ops_per_rep
        outcome.failed += workload.ops_per_rep
        outcome.notes.append("reference raised")

    rep_times, untraced_times = [], []
    index = 0
    begin = time.perf_counter()
    while not outcome.failed:
        if args.trace:
            # Untraced then traced, on the same repetition index, so the
            # pair measures the tracing overhead on identical work.
            result = timed_rep(workload, index, outcome, untraced_times)
            if result is not None:
                outcome.add(workload.check(result))
            tracer.scope = "rep"
            with tracer.installed(probes.install), tracer.span("bench.rep"):
                result = timed_rep(workload, index, outcome, rep_times)
        else:
            result = timed_rep(workload, index, outcome, rep_times)
        if result is not None:
            outcome.add(workload.check(result))
        index += 1
        min_reps = 1 if args.trace else workload.min_reps
        if index >= min_reps and time.perf_counter() - begin >= args.seconds:
            break

    if args.trace:
        metrics = (probes.per_layer_metrics(tracer, rep_times, untraced_times)
                   if rep_times and untraced_times else {})
        report.update(per_layer=metrics, layers=probes.layer_rows(tracer))
    else:
        metrics = {}
        if rep_times:
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "run_s": (statistics.median(rep_times), "s"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
        report.update(setup_times=setup_times)
    report.update(rep_times=rep_times, untraced_times=untraced_times,
                  outcome=vars(outcome), outputs=workload.outputs(),
                  summary=workload.summary())
    for key, value in report["summary"].items():
        if key.endswith("_acc"):
            print(f"  {key:42s} {value:14.6g} (simulated accuracy)")

    OUT_DIR.mkdir(exist_ok=True)
    suffix = f"{args.workload}-seed{args.seed}"
    if args.trace:
        (OUT_DIR / f"trace-{suffix}.json").write_text(
            json.dumps(tracer.chrome_trace(report)))
    else:
        (OUT_DIR / f"result-{suffix}.json").write_text(
            json.dumps(report, indent=1, default=str))
    correct = not outcome.failed and outcome.attempted > 0 and bool(metrics)
    if args.pin and correct:
        write_pin(args.workload, env, report["outputs"])
        outcome.notes.append(f"pinned {len(report['outputs'])} digests")
    return emit(correct, outcome.attempted, outcome.failed, metrics, outcome.notes)


def run_all(args) -> int:
    """Every workload in its own fresh process; one combined summary."""

    combined, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__)), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {done.returncode})", file=sys.stderr)
            return done.returncode or 1
        correct = correct and result["correct"] and done.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            combined[f"{name}.{metric}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
