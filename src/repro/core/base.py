"""Common scaffolding shared by the FaP, FaPIT and FalVolt mitigation methods."""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from ..datasets.base import DataLoader
from ..faults.fault_map import FaultMap
from ..snn.network import SpikingClassifier
from ..snn.optim import Adam
from ..snn.training import Trainer, TrainingHistory, evaluate
from .pruning import (
    PruningMaskCallback,
    find_pruned_weight_indices,
    pruned_fraction,
    set_pruned_weights_to_zero,
)


@dataclasses.dataclass
class MitigationResult:
    """Outcome of one mitigation run (Algorithm 1's outputs plus bookkeeping).

    Attributes
    ----------
    method:
        ``"FaP"``, ``"FaPIT"`` or ``"FalVolt"``.
    accuracy:
        Test accuracy of the mitigated model (bypassed faulty PEs).
    baseline_accuracy:
        Fault-free accuracy of the pre-trained model, for reference.
    thresholds:
        Final per-layer threshold voltages (layer label -> V_th).
    history:
        Per-retraining-epoch accuracy trace (used for Fig. 8).
    pruned_fraction:
        Fraction of weights zeroed by the fault-aware pruning step.
    retraining_epochs:
        Number of retraining epochs actually executed.
    fault_rate:
        Fraction of faulty PEs in the fault map.
    """

    method: str
    accuracy: float
    baseline_accuracy: float
    thresholds: Dict[str, float]
    history: TrainingHistory
    pruned_fraction: float
    retraining_epochs: int
    fault_rate: float
    dataset: str = ""

    @property
    def accuracy_drop(self) -> float:
        """Accuracy lost relative to the fault-free baseline (>= 0 when degraded)."""

        return self.baseline_accuracy - self.accuracy

    def epochs_to_baseline(self, tolerance: float = 0.01) -> Optional[int]:
        """Retraining epochs needed to come within ``tolerance`` of the baseline."""

        return self.history.epochs_to_reach(self.baseline_accuracy - tolerance)

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "dataset": self.dataset,
            "accuracy": self.accuracy,
            "baseline_accuracy": self.baseline_accuracy,
            "accuracy_drop": self.accuracy_drop,
            "thresholds": dict(self.thresholds),
            "history": self.history.as_dict(),
            "pruned_fraction": self.pruned_fraction,
            "retraining_epochs": self.retraining_epochs,
            "fault_rate": self.fault_rate,
        }


class FaultMitigation:
    """Base class for fault-aware mitigation strategies.

    The common flow (Algorithm 1) is:

    1. locate the weights mapped to faulty PEs and zero them,
    2. optionally retrain the remaining weights (and, for FalVolt, the
       per-layer threshold voltages), re-zeroing pruned weights after every
       epoch,
    3. report the test accuracy of the mitigated network.

    Subclasses customise step 2 through :meth:`prepare_model` (e.g. making
    thresholds learnable) and the ``retraining_epochs`` default.
    """

    method_name = "base"

    def __init__(self, retraining_epochs: int = 10,
                 learning_rate: float = 5e-3) -> None:
        if retraining_epochs < 0:
            raise ValueError("retraining_epochs must be non-negative")
        self.retraining_epochs = retraining_epochs
        self.learning_rate = learning_rate

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def prepare_model(self, model: SpikingClassifier) -> None:
        """Adjust the model before retraining (default: nothing)."""

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def run(self, model: SpikingClassifier, fault_map: FaultMap,
            train_loader: DataLoader, test_loader: DataLoader,
            num_classes: int, baseline_accuracy: Optional[float] = None) -> MitigationResult:
        """Execute the mitigation on ``model`` (modified in place) and return the result.

        The reported accuracy is the last retraining epoch's test accuracy:
        the pruning callback re-zeroes the pruned weights after that epoch's
        last optimizer step, before its test pass.  Without retraining (FaP)
        the pruned model is evaluated once.
        """

        if baseline_accuracy is None:
            baseline_accuracy = evaluate(model, test_loader)

        masks = find_pruned_weight_indices(model, fault_map)
        set_pruned_weights_to_zero(model, masks)
        self.prepare_model(model)

        trainer = Trainer(model, Adam(model.parameters(), lr=self.learning_rate),
                          num_classes=num_classes)
        history = trainer.fit(train_loader, epochs=self.retraining_epochs,
                              test_loader=test_loader,
                              callbacks=[PruningMaskCallback(masks)])
        final_accuracy = (history.test_accuracy[-1] if history.test_accuracy
                          else trainer.evaluate(test_loader))

        return MitigationResult(
            method=self.method_name,
            accuracy=final_accuracy,
            baseline_accuracy=baseline_accuracy,
            thresholds=model.threshold_summary(),
            history=history,
            pruned_fraction=pruned_fraction(masks),
            retraining_epochs=self.retraining_epochs,
            fault_rate=fault_map.fault_rate,
        )
