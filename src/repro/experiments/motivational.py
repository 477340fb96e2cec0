"""Motivational case study (paper Fig. 2): retraining with fixed thresholds.

The paper retrains a faulty systolicSNN with several hand-picked threshold
voltages and shows that accuracy varies wildly with the choice -- motivating
the automatic per-layer threshold optimization of FalVolt.  This driver runs
that grid search for one dataset and a set of fault rates.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core import threshold_grid_search
from ..faults import fault_map_from_rate
from ..systolic import DEFAULT_ACCUMULATOR_FORMAT
from ..utils.rng import derive_seed
from .baseline import prepare_baseline
from .config import ExperimentConfig, PAPER_THRESHOLD_GRID, default_config


def run_fig2_threshold_grid(config: Optional[ExperimentConfig] = None,
                            dataset: str = "mnist",
                            fault_rates: Sequence[float] = (0.30, 0.60),
                            thresholds: Sequence[float] = PAPER_THRESHOLD_GRID,
                            retraining_epochs: Optional[int] = None) -> List[dict]:
    """Accuracy after retraining at each fixed threshold voltage (Fig. 2).

    Returns one record per (fault rate, threshold) pair.  The paper uses
    MNIST and DVS128 Gesture with 30 % and 60 % faulty PEs.
    """

    config = config or default_config(dataset)
    if retraining_epochs is None:
        retraining_epochs = config.retrain_epochs
    baseline = prepare_baseline(config)
    records: List[dict] = []
    for rate in fault_rates:
        fault_map = fault_map_from_rate(
            config.array_rows, config.array_cols, rate,
            bit_position=DEFAULT_ACCUMULATOR_FORMAT.magnitude_msb, stuck_type="sa1",
            seed=derive_seed(config.seed, "fig2", int(rate * 1000)))
        rate_records = threshold_grid_search(
            baseline.model_factory, fault_map,
            baseline.fresh_train_loader, baseline.test_loader,
            num_classes=baseline.num_classes,
            thresholds=thresholds, retraining_epochs=retraining_epochs,
            learning_rate=config.retrain_lr, dataset=config.dataset)
        records.extend(rate_records)
    return records
