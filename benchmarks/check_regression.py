"""CI perf-regression gate for the campaign-engine benchmark.

Compares a freshly measured ``campaign_engine.json`` (written by
``bench_campaign.py`` into ``REPRO_BENCH_RESULTS_DIR``) against the
*recorded* baseline tracked in ``benchmarks/results/``.

Rules (the documented gate policy):

* **Identity mismatch always fails.**  The fresh run's ``meta`` row must
  report ``identical_records: true`` -- float64 records bit-identical
  across the sequential / fused engines.  No tolerance applies.
* **Only machine-relative ratios are gated.**  Absolute seconds are not
  comparable between the recording box and a CI runner, but ratios
  measured *within one run* are: the ``speedup`` column (cost relative to
  the same run's sequential oracle) for the fused engine, and the
  ``meta`` ratios ``transient_overhead`` (the stuck-at sweep over the
  transient-schedule sweep), ``gather_speedup`` (the strided-window
  reference gather over ``im2col``, per call), ``spike_kernel_speedup``
  (the 9-pass divide neuron step plus ``reshape -> sum`` pooling over the
  fused neuron and pooling kernels, per call), ``map_memory_scaling``
  (the traced memory peak of a 32-map fused pass over a 128-map one),
  ``train_graph_release`` (the traced forward graph of a training step
  over the peak during its backward) and ``chain_row_block_speedup`` (one
  recorded wide conv chain call run on the whole batch over the same call
  in row blocks, per call) --
  each gated whenever the recorded run reports it, so a fresh run that
  stops writing a recorded ratio fails.  Every ratio is the median of
  several alternating rounds (their spread is recorded beside it).  Each
  fresh ratio must be at least ``(1 - tolerance)`` times the recorded one.
  The timing ratios use ``--tolerance`` (default 30%), sized for noisy
  shared CI boxes: one round's ratio can swing 20% or more, and a real
  fast-path regression costs 2x+.  The two memory ratios are
  deterministic tracemalloc peaks (recorded spreads under 0.2%), so they
  use a fixed 10% (``MEMORY_TOLERANCE``): a training graph that is no
  longer released as backward runs (about 0.70 against 0.94) or memory
  that grows with the maps of a pass (about 0.3 against 0.87) fails.

Exit status: 0 when the gate passes, 1 on any violation (so the CI step
fails), 2 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Engines whose same-run speedup (vs sequential) is gated.
GATED_ENGINES = ("fused",)

#: Default allowed relative shortfall of a fresh timing ratio vs the recorded one.
DEFAULT_TOLERANCE = 0.30

#: Fixed allowed shortfall of the deterministic memory ratios.
MEMORY_TOLERANCE = 0.10
MEMORY_RATIOS = ("map_memory_scaling", "train_graph_release")


def load_rows(path: Path) -> dict:
    rows = json.loads(path.read_text())
    return {row.get("engine"): row for row in rows if isinstance(row, dict)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path(__file__).resolve().parent / "results" / "campaign_engine.json",
        help="recorded baseline JSON (tracked in git)",
    )
    parser.add_argument(
        "--fresh",
        type=Path,
        required=True,
        help="freshly measured JSON from this CI run",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed relative shortfall of fresh vs recorded timing ratios "
        "(default %(default)s; memory ratios use a fixed "
        f"{MEMORY_TOLERANCE}; identity has no tolerance)",
    )
    args = parser.parse_args(argv)

    try:
        baseline = load_rows(args.baseline)
        fresh = load_rows(args.fresh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"perf gate: cannot read inputs: {exc}", file=sys.stderr)
        return 2

    failures = []

    meta = fresh.get("meta")
    if meta is None:
        failures.append("fresh results carry no 'meta' row (identity unknown)")
    elif not meta.get("identical_records"):
        failures.append(
            "IDENTITY MISMATCH: engine records are not bit-identical "
            "(identical_records is false) -- this always fails, no tolerance"
        )

    def gate(label, fresh_value, recorded_value, tolerance):
        floor = recorded_value * (1.0 - tolerance)
        status = "ok" if fresh_value >= floor else "REGRESSION"
        print(
            f"perf gate: {label}: fresh {fresh_value:.2f}x vs recorded "
            f"{recorded_value:.2f}x (floor {floor:.2f}x) -> {status}"
        )
        if fresh_value < floor:
            failures.append(
                f"{label}: {fresh_value:.2f}x below floor {floor:.2f}x "
                f"(recorded {recorded_value:.2f}x, tolerance {tolerance:.0%})"
            )

    for engine in GATED_ENGINES:
        if engine not in fresh:
            failures.append(f"fresh results miss the '{engine}' engine row")
            continue
        if engine not in baseline:
            print(f"perf gate: no recorded baseline for '{engine}', skipping")
            continue
        gate(f"{engine} speedup", fresh[engine]["speedup"], baseline[engine]["speedup"],
             args.tolerance)

    recorded_meta = baseline.get("meta", {})
    gated_ratios = (
        ("transient_overhead", "transient path"),
        ("gather_speedup", "im2col gather"),
        ("spike_kernel_speedup", "spike kernels"),
        ("map_memory_scaling", "map memory scaling"),
        ("train_graph_release", "training graph release"),
        ("chain_row_block_speedup", "chain row blocks"),
    )
    for key, label in gated_ratios:
        if key not in recorded_meta:
            continue
        if key not in (meta or {}):
            failures.append(f"{label}: fresh results miss the recorded '{key}' ratio")
            continue
        tolerance = MEMORY_TOLERANCE if key in MEMORY_RATIOS else args.tolerance
        gate(label, meta[key], recorded_meta[key], tolerance)

    if failures:
        print("perf gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
