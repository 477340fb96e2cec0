"""Retraining-convergence experiment (paper Fig. 8).

FaPIT and FalVolt run as retraining cells
(:func:`repro.experiments.mitigation.retrain_cells`) with the same fault map
and the same retraining budget.  Each cell's per-epoch test accuracy trace
is expanded into records, so the number of epochs each method needs to come
back within a tolerance of the baseline can be compared (the paper's
"FalVolt is 2x faster" claim).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..snn import TrainingHistory
from .baseline import prepare_baseline
from .config import ExperimentConfig, default_config
from .mitigation import RetrainCell, retrain_cells


def run_fig8_convergence(config: Optional[ExperimentConfig] = None,
                         dataset: str = "mnist",
                         fault_rate: float = 0.30,
                         methods: Sequence[str] = ("fapit", "falvolt"),
                         retraining_epochs: Optional[int] = None,
                         baseline_tolerance: float = 0.02,
                         **options) -> List[dict]:
    """Per-epoch accuracy of FaPIT vs FalVolt at a fixed fault rate (Fig. 8).

    Returns one record per (method, epoch); each record also carries the
    number of epochs the method needed to reach the baseline (minus
    ``baseline_tolerance``), or ``None`` if it never did within the budget.
    ``options`` go to :func:`~repro.experiments.mitigation.retrain_cells`.
    """

    config = config or default_config(dataset)
    cells = [RetrainCell(fault_rate, method) for method in methods]
    results = retrain_cells(prepare_baseline(config), cells,
                            retraining_epochs=retraining_epochs, **options)
    records: List[dict] = []
    for result in results:
        history = TrainingHistory(**result["history"])
        epochs_needed = history.epochs_to_reach(result["baseline_accuracy"] - baseline_tolerance)
        records.extend({
            "dataset": config.dataset,
            "fault_rate": float(fault_rate),
            "method": result["method"],
            "epoch": epoch,
            "accuracy": float(accuracy),
            "baseline_accuracy": result["baseline_accuracy"],
            "epochs_to_baseline": epochs_needed,
        } for epoch, accuracy in enumerate(history.test_accuracy, start=1))
    return records


def convergence_speedup(records: Sequence[dict]) -> Optional[float]:
    """Ratio of FaPIT epochs-to-baseline over FalVolt epochs-to-baseline.

    A value >= 2 corresponds to the paper's "2x faster" claim; ``None`` when
    either method never reached the baseline within the budget.
    """

    epochs: Dict[str, Optional[int]] = {}
    for record in records:
        epochs[record["method"]] = record["epochs_to_baseline"]
    fapit = epochs.get("FaPIT")
    falvolt = epochs.get("FalVolt")
    if not fapit or not falvolt:
        return None
    return fapit / falvolt
