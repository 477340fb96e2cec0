#!/usr/bin/env python
"""Exhaustive threshold search vs FalVolt (paper Fig. 2 + motivation for Section IV).

The paper's motivational study retrains a faulty systolicSNN at several
hand-picked threshold voltages and observes that the best choice depends on
the fault rate and the dataset -- finding it by exhaustive search costs one
full retraining run per candidate.  This example runs that grid search, then
runs a single FalVolt retraining and compares:

* the best accuracy the grid search found vs FalVolt's accuracy,
* the total retraining epochs consumed by the search vs by FalVolt.

    python examples/threshold_search.py --dataset mnist --fault-rate 0.3
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import FalVolt, best_threshold, search_cost_epochs, threshold_grid_search
from repro.experiments import PAPER_THRESHOLD_GRID, default_config, format_table, prepare_baseline
from repro.experiments.mitigation import _fault_map_for_rate
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
    fault_map = _fault_map_for_rate(config, args.fault_rate)
    print(f"baseline accuracy: {baseline.baseline_accuracy:.3f}")
    print(f"fault map: {fault_map.describe()}")

    print(f"\n== exhaustive grid search over thresholds {PAPER_THRESHOLD_GRID} ==")
    grid = threshold_grid_search(baseline.model_factory, fault_map,
                                 baseline.fresh_train_loader, baseline.test_loader,
                                 num_classes=baseline.num_classes,
                                 thresholds=PAPER_THRESHOLD_GRID,
                                 retraining_epochs=epochs,
                                 learning_rate=config.retrain_lr,
                                 dataset=config.dataset)
    print(format_table(grid, columns=["threshold", "accuracy", "baseline_accuracy"]))
    winner = best_threshold(grid)
    grid_cost = search_cost_epochs(grid)
    print(f"best fixed threshold: {winner['threshold']} "
          f"(accuracy {winner['accuracy']:.3f}), search cost {grid_cost} epochs")

    print("\n== single FalVolt run (thresholds optimized during retraining) ==")
    model = baseline.model_factory()
    falvolt = FalVolt(retraining_epochs=epochs, learning_rate=config.retrain_lr)
    result = falvolt.run(model, fault_map, baseline.fresh_train_loader(),
                         baseline.test_loader,
                         num_classes=baseline.num_classes,
                         baseline_accuracy=baseline.baseline_accuracy)
    print(f"FalVolt accuracy: {result.accuracy:.3f} using {epochs} retraining epochs "
          f"({grid_cost // max(epochs, 1)}x fewer than the grid search)")
    print("optimized per-layer thresholds:")
    for layer, threshold in result.thresholds.items():
        print(f"  {layer}: {threshold:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
