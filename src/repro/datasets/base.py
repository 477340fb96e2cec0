"""Dataset and data-loader abstractions.

The datasets in this reproduction are small enough to live in memory as
numpy arrays.  :class:`ArrayDataset` pairs an input array with labels;
:class:`DataLoader` produces shuffled mini-batches.  Event-based samples are
stored per-sample as ``(T, C, H, W)`` arrays and batched to
``(T, batch, C, H, W)``, the layout expected by
:class:`~repro.snn.network.SpikingClassifier`.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Tuple

import numpy as np

from ..utils.rng import get_rng


@dataclasses.dataclass
class ArrayDataset:
    """In-memory dataset of inputs and integer labels.

    ``inputs`` has shape ``(n, C, H, W)`` for static data or
    ``(n, T, C, H, W)`` for event data.
    """

    inputs: np.ndarray
    labels: np.ndarray
    num_classes: int
    name: str = "dataset"

    def __post_init__(self) -> None:
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ValueError("inputs and labels must have the same length")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels out of range for num_classes")

    def __len__(self) -> int:
        return int(self.inputs.shape[0])

    def __getitem__(self, index) -> Tuple[np.ndarray, np.ndarray]:
        return self.inputs[index], self.labels[index]

    @property
    def is_event_data(self) -> bool:
        """True when samples carry a time dimension (``(n, T, C, H, W)``)."""

        return self.inputs.ndim == 5

    def subset(self, indices) -> "ArrayDataset":
        """Return a new dataset restricted to ``indices``."""

        indices = np.asarray(indices)
        return ArrayDataset(self.inputs[indices], self.labels[indices],
                            num_classes=self.num_classes, name=self.name)

    def split(self, train_fraction: float, seed=None) -> Tuple["ArrayDataset", "ArrayDataset"]:
        """Shuffle and split into (train, test) datasets."""

        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        rng = get_rng(seed)
        order = rng.permutation(len(self))
        cut = int(round(train_fraction * len(self)))
        return self.subset(order[:cut]), self.subset(order[cut:])


class DataLoader:
    """Mini-batch iterator over an :class:`ArrayDataset`.

    Event data is transposed so that batches have shape
    ``(T, batch, C, H, W)``; static data keeps ``(batch, C, H, W)``.
    """

    def __init__(self, dataset: ArrayDataset, batch_size: int = 32,
                 shuffle: bool = False, seed=None, drop_last: bool = False) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self._rng = get_rng(seed)

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return int(np.ceil(n / self.batch_size))

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        order = self._rng.permutation(n) if self.shuffle else np.arange(n)
        for start in range(0, n, self.batch_size):
            indices = order[start:start + self.batch_size]
            if self.drop_last and indices.shape[0] < self.batch_size:
                break
            inputs = self.dataset.inputs[indices]
            labels = self.dataset.labels[indices]
            if self.dataset.is_event_data:
                # (batch, T, C, H, W) -> (T, batch, C, H, W)
                inputs = np.transpose(inputs, (1, 0, 2, 3, 4))
            yield inputs, labels
