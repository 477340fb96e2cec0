"""The rate-MSE loss and the accuracy metric for rate-coded SNN outputs.

The paper's loss is "the cross entropy loss function defined by the mean
square error" -- the standard SpikingJelly practice of regressing output
firing rates onto the one-hot label vector with MSE.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, one_hot


def rate_mse_loss(rates: Tensor, labels: np.ndarray, num_classes: int) -> Tensor:
    """Mean squared error between output firing rates and one-hot labels."""

    target = Tensor(one_hot(labels, num_classes))
    diff = rates - target
    return (diff * diff).mean()


def accuracy(rates, labels: np.ndarray) -> float:
    """Classification accuracy of the arg-max prediction, in [0, 1]."""

    data = rates.data if isinstance(rates, Tensor) else np.asarray(rates)
    labels = np.asarray(labels, dtype=np.int64)
    if data.shape[0] != labels.shape[0]:
        raise ValueError("rates and labels must have matching batch size")
    if labels.size == 0:
        return 0.0
    predictions = np.argmax(data, axis=1)
    return float(np.mean(predictions == labels))
