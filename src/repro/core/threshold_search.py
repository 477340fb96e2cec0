"""Exhaustive threshold-voltage search (the paper's motivational study, Fig. 2).

Before proposing FalVolt the paper shows that the *right* fixed threshold
voltage can recover accuracy of a faulty systolicSNN, but that finding it
requires a grid of expensive retraining runs -- one per candidate threshold.
This module implements that grid search so the motivational figure can be
regenerated and so the cost of the exhaustive search can be compared with a
single FalVolt run.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from ..datasets.base import DataLoader
from ..faults.fault_map import FaultMap
from ..snn.network import SpikingClassifier
from .fapit import FaultAwarePruningWithRetraining


def threshold_grid_search(model_factory, fault_map: FaultMap,
                          train_loader_factory: Callable[[], DataLoader],
                          test_loader: DataLoader,
                          num_classes: int,
                          thresholds: Sequence[float] = (0.45, 0.5, 0.55, 0.7),
                          retraining_epochs: int = 5,
                          learning_rate: float = 5e-3,
                          dataset: str = "") -> List[dict]:
    """Retrain with each candidate fixed threshold and record the final accuracy.

    Parameters
    ----------
    model_factory:
        Zero-argument callable returning a *fresh copy* of the pre-trained
        model (each candidate threshold retrains from the same starting
        weights, as in the paper's parallel retraining simulations).
    fault_map:
        The chip's fault map (same map for every candidate).
    train_loader_factory:
        Zero-argument callable returning a *fresh* train loader.  Each
        candidate retrains on its own loader, so its shuffle order -- and
        its record -- does not depend on which candidates ran before it.
    thresholds:
        Candidate threshold voltages; the paper sweeps {0.45, 0.5, 0.55, 0.7}.

    Returns a list of records ``{"threshold", "accuracy", "fault_rate", ...}``.
    """

    if not thresholds:
        raise ValueError("at least one candidate threshold is required")
    records: List[dict] = []
    for threshold in thresholds:
        model: SpikingClassifier = model_factory()
        mitigation = FaultAwarePruningWithRetraining(
            retraining_epochs=retraining_epochs, fixed_threshold=float(threshold),
            learning_rate=learning_rate)
        result = mitigation.run(model, fault_map, train_loader_factory(),
                                test_loader, num_classes=num_classes)
        records.append({
            "dataset": dataset,
            "threshold": float(threshold),
            "fault_rate": fault_map.fault_rate,
            "accuracy": result.accuracy,
            "baseline_accuracy": result.baseline_accuracy,
            "retraining_epochs": retraining_epochs,
        })
    return records


def best_threshold(records: Sequence[dict]) -> dict:
    """Return the grid-search record with the highest accuracy."""

    if not records:
        raise ValueError("records must not be empty")
    return max(records, key=lambda record: record["accuracy"])


def search_cost_epochs(records: Sequence[dict]) -> int:
    """Total retraining epochs consumed by the exhaustive search.

    This is the cost FalVolt avoids by optimizing the threshold inside a
    single retraining run.
    """

    return int(sum(record["retraining_epochs"] for record in records))
