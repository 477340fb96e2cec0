#!/usr/bin/env python
"""Quickstart: train a PLIF-SNN, break it with stuck-at faults, repair it with FalVolt.

This walks through the paper's whole pipeline on the synthetic MNIST stand-in:

1. train a small PLIF-SNN classifier to its baseline accuracy,
2. map it onto a systolic-array accelerator with stuck-at faults in 30 % of
   the PEs and measure the (collapsed) accuracy,
3. apply fault-aware pruning (FaP) -- the hardware bypass alone,
4. apply FalVolt -- pruning plus retraining with per-layer threshold voltage
   optimization -- and show the baseline accuracy is restored.

Run time: a couple of minutes on a laptop CPU.

    python examples/quickstart.py [--fault-rate 0.3] [--epochs 8]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import FalVolt, FaultAwarePruning
from repro.datasets import DataLoader, load_dataset
from repro.experiments import format_table
from repro.faults import evaluate_with_faults, fault_map_from_rate
from repro.snn import Adam, Trainer, build_model_for_dataset
from repro.systolic import DEFAULT_ACCUMULATOR_FORMAT
from repro.utils import configure_logging


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fault-rate", type=float, default=0.30,
                        help="fraction of faulty PEs (paper: 0.1, 0.3, 0.6)")
    parser.add_argument("--epochs", type=int, default=8,
                        help="baseline training epochs")
    parser.add_argument("--retrain-epochs", type=int, default=6,
                        help="fault-aware retraining epochs")
    parser.add_argument("--array-size", type=int, default=32,
                        help="systolic array dimension (NxN)")
    parser.add_argument("--seed", type=int, default=7)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    configure_logging()

    # ------------------------------------------------------------------
    # 1. Baseline training.
    # ------------------------------------------------------------------
    print("== 1. training the baseline PLIF-SNN on synthetic MNIST ==")
    train, test = load_dataset("mnist", num_train=240, num_test=80, seed=args.seed,
                               max_shift=1, noise_std=0.05)
    train_loader = DataLoader(train, batch_size=20, shuffle=True, seed=args.seed)
    test_loader = DataLoader(test, batch_size=80)

    model, config = build_model_for_dataset("mnist", channels=8, hidden_units=32,
                                            time_steps=4, seed=args.seed)
    trainer = Trainer(model, Adam(model.parameters(), lr=2e-2), num_classes=10)
    history = trainer.fit(train_loader, epochs=args.epochs, test_loader=test_loader)
    baseline_accuracy = history.test_accuracy[-1]
    baseline_state = model.state_dict()
    print(f"baseline test accuracy: {baseline_accuracy:.3f}")

    # ------------------------------------------------------------------
    # 2. Unmitigated fault injection on the systolic array.
    # ------------------------------------------------------------------
    print(f"\n== 2. injecting stuck-at faults in {args.fault_rate:.0%} of the "
          f"{args.array_size}x{args.array_size} PEs ==")
    fault_map = fault_map_from_rate(args.array_size, args.array_size, args.fault_rate,
                                    bit_position=DEFAULT_ACCUMULATOR_FORMAT.magnitude_msb,
                                    stuck_type="sa1", seed=args.seed)
    (faulty_accuracy,) = evaluate_with_faults(model, test_loader, [fault_map])
    print(f"{fault_map.describe()}")
    print(f"accuracy with unmitigated faults: {faulty_accuracy:.3f}")

    # ------------------------------------------------------------------
    # 3. Fault-aware pruning only (FaP).
    # ------------------------------------------------------------------
    print("\n== 3. fault-aware pruning (FaP): bypass faulty PEs, no retraining ==")
    model.load_state_dict(baseline_state)
    fap_result = FaultAwarePruning().run(model, fault_map, train_loader, test_loader,
                                         num_classes=10,
                                         baseline_accuracy=baseline_accuracy)
    print(f"FaP accuracy: {fap_result.accuracy:.3f} "
          f"(pruned {fap_result.pruned_fraction:.1%} of the weights)")

    # ------------------------------------------------------------------
    # 4. FalVolt: pruning + retraining with threshold voltage optimization.
    # ------------------------------------------------------------------
    print("\n== 4. FalVolt: retraining with per-layer threshold optimization ==")
    model.load_state_dict(baseline_state)
    falvolt = FalVolt(retraining_epochs=args.retrain_epochs, learning_rate=1e-2)
    result = falvolt.run(model, fault_map, train_loader, test_loader, num_classes=10,
                         baseline_accuracy=baseline_accuracy)
    print(f"FalVolt accuracy: {result.accuracy:.3f} "
          f"(drop vs baseline: {result.accuracy_drop:.3f})")
    print("optimized per-layer threshold voltages:")
    for layer, threshold in result.thresholds.items():
        print(f"  {layer}: {threshold:.3f}")

    # ------------------------------------------------------------------
    # Summary table.
    # ------------------------------------------------------------------
    summary = [
        {"configuration": "baseline (no faults)", "accuracy": baseline_accuracy},
        {"configuration": f"faulty, unmitigated ({args.fault_rate:.0%} PEs)",
         "accuracy": faulty_accuracy},
        {"configuration": "FaP (bypass only)", "accuracy": fap_result.accuracy},
        {"configuration": "FalVolt", "accuracy": result.accuracy},
    ]
    print("\n" + format_table(summary, columns=["configuration", "accuracy"],
                              title="Quickstart summary"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
