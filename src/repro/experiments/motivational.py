"""Motivational case study (paper Fig. 2): retraining with fixed thresholds.

The paper retrains a faulty systolicSNN with several hand-picked threshold
voltages and shows that accuracy varies wildly with the choice -- motivating
the automatic per-layer threshold optimization of FalVolt.  This driver runs
that grid for one dataset and a set of fault rates: one FaPIT retraining
cell (:func:`repro.experiments.mitigation.retrain_cells`) per (fault rate,
threshold), every threshold of a rate on the same fault map.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .baseline import prepare_baseline
from .config import ExperimentConfig, PAPER_THRESHOLD_GRID, default_config
from .mitigation import RetrainCell, retrain_cells


def run_fig2_threshold_grid(config: Optional[ExperimentConfig] = None,
                            dataset: str = "mnist",
                            fault_rates: Sequence[float] = (0.30, 0.60),
                            thresholds: Sequence[float] = PAPER_THRESHOLD_GRID,
                            retraining_epochs: Optional[int] = None,
                            **options) -> List[dict]:
    """Accuracy after retraining at each fixed threshold voltage (Fig. 2).

    Returns one record per (fault rate, threshold) pair.  The paper uses
    MNIST and DVS128 Gesture with 30 % and 60 % faulty PEs.  ``options`` go to
    :func:`~repro.experiments.mitigation.retrain_cells`.
    """

    if not thresholds:
        raise ValueError("at least one candidate threshold is required")
    config = config or default_config(dataset)
    cells = [RetrainCell(rate, "fapit", threshold=float(threshold), map_tag="fig2")
             for rate in fault_rates for threshold in thresholds]
    records = retrain_cells(prepare_baseline(config), cells,
                            retraining_epochs=retraining_epochs, **options)
    return [{
        "dataset": record["dataset"],
        "threshold": cell.threshold,
        "fault_rate": record["fault_rate"],
        "accuracy": record["accuracy"],
        "baseline_accuracy": record["baseline_accuracy"],
        "retraining_epochs": record["retraining_epochs"],
    } for cell, record in zip(cells, records)]
