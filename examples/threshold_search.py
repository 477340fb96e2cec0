#!/usr/bin/env python
"""Exhaustive threshold search vs FalVolt (paper Fig. 2 + motivation for Section IV).

The paper's motivational study retrains a faulty systolicSNN at several
hand-picked threshold voltages and observes that the best choice depends on
the fault rate and the dataset -- finding it by exhaustive search costs one
full retraining run per candidate.  This example runs that grid search and
a single FalVolt retraining as retraining cells on one fault map, and
compares:

* the best accuracy the grid search found vs FalVolt's accuracy,
* the total retraining epochs consumed by the search vs by FalVolt.

    python examples/threshold_search.py --dataset mnist --fault-rate 0.3
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments import (
    PAPER_THRESHOLD_GRID,
    RetrainCell,
    default_config,
    format_table,
    prepare_baseline,
    retrain_cells,
)
from repro.utils import configure_logging


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", choices=("mnist", "nmnist", "dvs_gesture"),
                        default="mnist")
    parser.add_argument("--fault-rate", type=float, default=0.30)
    parser.add_argument("--retrain-epochs", type=int, default=None)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    configure_logging()
    config = default_config(args.dataset)
    epochs = args.retrain_epochs or config.retrain_epochs

    baseline = prepare_baseline(config)
    print(f"baseline accuracy: {baseline.baseline_accuracy:.3f}")

    # One fault map for every cell: same rate, same (default) map tag.
    grid_cells = [RetrainCell(args.fault_rate, "fapit", threshold=threshold)
                  for threshold in PAPER_THRESHOLD_GRID]
    falvolt_cell = RetrainCell(args.fault_rate, "falvolt")
    *grid, falvolt = retrain_cells(baseline, grid_cells + [falvolt_cell],
                                   retraining_epochs=epochs)
    print(f"fault map: {falvolt['fault_rate']:.1%} of the PEs stuck-at-1")

    print(f"\n== exhaustive grid search over thresholds {PAPER_THRESHOLD_GRID} ==")
    rows = [{"threshold": cell.threshold, "accuracy": record["accuracy"],
             "baseline_accuracy": record["baseline_accuracy"]}
            for cell, record in zip(grid_cells, grid)]
    print(format_table(rows))
    winner = max(rows, key=lambda row: row["accuracy"])
    grid_cost = sum(record["retraining_epochs"] for record in grid)
    print(f"best fixed threshold: {winner['threshold']} "
          f"(accuracy {winner['accuracy']:.3f}), search cost {grid_cost} epochs")

    print("\n== single FalVolt run (thresholds optimized during retraining) ==")
    print(f"FalVolt accuracy: {falvolt['accuracy']:.3f} using {epochs} retraining epochs "
          f"({grid_cost // max(epochs, 1)}x fewer than the grid search)")
    print("optimized per-layer thresholds:")
    for layer, threshold in falvolt["thresholds"].items():
        print(f"  {layer}: {threshold:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
