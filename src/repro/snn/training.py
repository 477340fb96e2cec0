"""Training loop utilities (used for both baseline training and fault-aware retraining).

The :class:`Trainer` is deliberately small: it iterates a
:class:`~repro.datasets.base.DataLoader`, performs surrogate-gradient BPTT
updates, tracks per-epoch train/test accuracy and supports *callbacks* -- the
hook FalVolt and FaPIT use to re-zero pruned weights at the end of every
retraining epoch (Algorithm 1, line 13).  :func:`evaluate` is the one
autograd accuracy loop: the trainer's test-set passes, the baselines and
the sequential fault-injection oracle all measure through it.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..autograd import Tensor, no_grad
from .loss import accuracy, rate_mse_loss
from .network import SpikingClassifier
from .optim import Adam


def evaluate(model: SpikingClassifier, loader) -> float:
    """Classification accuracy of ``model``'s autograd forward over ``loader``.

    Runs in inference mode without gradients; the model's train/eval mode is
    restored on return.  Inside a :class:`~repro.faults.FaultInjector` this
    is the faulty accuracy of the sequential oracle.
    """

    was_training = model.training
    model.eval()
    correct = 0
    total = 0
    try:
        with no_grad():
            for inputs, labels in loader:
                rates = model(Tensor(inputs))
                predictions = np.argmax(rates.data, axis=1)
                correct += int(np.sum(predictions == labels))
                total += labels.shape[0]
    finally:
        model.train(was_training)
    return correct / total if total else 0.0


#: Callback signature: ``callback(model, epoch, logs_dict)`` invoked after
#: every epoch (after the optimizer steps of that epoch).
EpochCallback = Callable[[SpikingClassifier, int, dict], None]


@dataclasses.dataclass
class TrainingHistory:
    """Per-epoch record of losses and accuracies produced by :class:`Trainer.fit`."""

    train_loss: List[float] = dataclasses.field(default_factory=list)
    train_accuracy: List[float] = dataclasses.field(default_factory=list)
    test_accuracy: List[float] = dataclasses.field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.train_loss)

    def epochs_to_reach(self, target_accuracy: float) -> Optional[int]:
        """First epoch (1-based) whose test accuracy reaches ``target_accuracy``.

        Returns ``None`` when the target is never reached -- used for the
        paper's "2x fewer retraining epochs" claim (Fig. 8).
        """

        for index, value in enumerate(self.test_accuracy):
            if value >= target_accuracy:
                return index + 1
        return None

    def as_dict(self) -> dict:
        return {
            "train_loss": list(self.train_loss),
            "train_accuracy": list(self.train_accuracy),
            "test_accuracy": list(self.test_accuracy),
        }


class Trainer:
    """Mini-batch surrogate-gradient trainer for :class:`SpikingClassifier`.

    Every step minimises :func:`~repro.snn.loss.rate_mse_loss`, the paper's
    loss.
    """

    def __init__(self, model: SpikingClassifier, optimizer: Adam,
                 num_classes: int) -> None:
        self.model = model
        self.optimizer = optimizer
        self.num_classes = num_classes

    # ------------------------------------------------------------------
    # Single steps
    # ------------------------------------------------------------------
    def train_step(self, inputs: np.ndarray, labels: np.ndarray) -> tuple:
        """One optimizer update; returns (loss value, batch accuracy)."""

        self.model.train()
        self.optimizer.zero_grad()
        rates = self.model(Tensor(inputs))
        loss = rate_mse_loss(rates, labels, self.num_classes)
        loss.backward()
        self.optimizer.step()
        return float(loss.item()), accuracy(rates, labels)

    def evaluate(self, loader) -> float:
        """Classification accuracy over a data loader (see :func:`evaluate`)."""

        return evaluate(self.model, loader)

    # ------------------------------------------------------------------
    # Full loop
    # ------------------------------------------------------------------
    def fit(self, train_loader, epochs: int, test_loader=None,
            callbacks: Optional[Sequence[EpochCallback]] = None) -> TrainingHistory:
        """Train for ``epochs`` epochs and return the :class:`TrainingHistory`.

        With a ``test_loader`` every epoch ends with a test-set pass (after
        the callbacks), recorded in ``history.test_accuracy``; pass one only
        when the per-epoch curve is kept.
        """

        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        callbacks = list(callbacks or [])
        history = TrainingHistory()
        for epoch in range(epochs):
            epoch_losses: List[float] = []
            epoch_accs: List[float] = []
            for inputs, labels in train_loader:
                loss_value, batch_acc = self.train_step(inputs, labels)
                epoch_losses.append(loss_value)
                epoch_accs.append(batch_acc)
            logs = {
                "epoch": epoch,
                "train_loss": float(np.mean(epoch_losses)) if epoch_losses else 0.0,
                "train_accuracy": float(np.mean(epoch_accs)) if epoch_accs else 0.0,
            }
            for callback in callbacks:
                callback(self.model, epoch, logs)
            history.train_loss.append(logs["train_loss"])
            history.train_accuracy.append(logs["train_accuracy"])
            if test_loader is not None:
                history.test_accuracy.append(self.evaluate(test_loader))
        return history
