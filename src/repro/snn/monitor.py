"""Spike-activity monitoring for trained SNNs.

FalVolt works because pruning the weights mapped to faulty PEs reduces the
synaptic drive into every layer, so the original threshold voltage becomes
too high and the network falls silent; lowering the per-layer threshold
restores the firing rates.  This module provides the instrumentation used to
*see* that effect: a :class:`SpikeMonitor` that records per-layer firing
rates (and spike counts) during inference, plus helpers to compare the
activity of a healthy, a pruned, and a FalVolt-repaired network.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Dict, List

import numpy as np

from ..autograd import Tensor, no_grad
from .network import SpikingClassifier
from .neurons import PLIFNode


@dataclasses.dataclass
class LayerActivity:
    """Aggregated spiking statistics of one neuron layer."""

    label: str
    total_spikes: float = 0.0
    total_neurons: float = 0.0
    time_steps: int = 0

    @property
    def firing_rate(self) -> float:
        """Average spikes per neuron per time step, in [0, 1]."""

        denominator = self.total_neurons
        return self.total_spikes / denominator if denominator else 0.0


class SpikeMonitor(contextlib.AbstractContextManager):
    """Context manager recording per-layer firing rates of a spiking model.

    Example
    -------
    >>> with SpikeMonitor(model) as monitor:          # doctest: +SKIP
    ...     model.predict(test_images)
    >>> monitor.firing_rates()                        # doctest: +SKIP
    {'Conv1': 0.12, 'Conv2': 0.08, 'FC1': 0.05, 'FC2': 0.03}
    """

    def __init__(self, model: SpikingClassifier, labelled_only: bool = False) -> None:
        self.model = model
        self.labelled_only = labelled_only
        self._records: Dict[int, LayerActivity] = {}
        self._nodes: List[PLIFNode] = []

    # ------------------------------------------------------------------
    def _target_nodes(self) -> List[PLIFNode]:
        nodes = self.model.spiking_layers()
        if self.labelled_only:
            nodes = [n for n in nodes if n.layer_label]
        return nodes

    def __enter__(self) -> "SpikeMonitor":
        self._nodes = self._target_nodes()
        for index, node in enumerate(self._nodes):
            label = node.layer_label or f"spiking-{index}"
            self._records[index] = LayerActivity(label=label)
            original = type(node).forward

            def make_wrapper(node=node, index=index, original=original):
                def wrapped(x: Tensor) -> Tensor:
                    spikes = original(node, x)
                    record = self._records[index]
                    record.total_spikes += float(spikes.data.sum())
                    record.total_neurons += float(spikes.data.size)
                    record.time_steps += 1
                    return spikes
                return wrapped

            object.__setattr__(node, "forward", make_wrapper())
        return self

    def __exit__(self, *exc_info) -> None:
        for node in self._nodes:
            if "forward" in node.__dict__:
                object.__delattr__(node, "forward")
        self._nodes = []

    # ------------------------------------------------------------------
    def activities(self) -> List[LayerActivity]:
        """Per-layer activity records in forward order."""

        return [self._records[index] for index in sorted(self._records)]

    def firing_rates(self) -> Dict[str, float]:
        """Mapping of layer label -> average firing rate."""

        return {record.label: record.firing_rate for record in self.activities()}

    def total_spike_count(self) -> float:
        """Total number of spikes emitted by all monitored layers."""

        return float(sum(record.total_spikes for record in self.activities()))


def measure_firing_rates(model: SpikingClassifier, inputs: np.ndarray,
                         labelled_only: bool = True) -> Dict[str, float]:
    """Run one inference pass and return per-layer firing rates."""

    was_training = model.training
    model.eval()
    try:
        with SpikeMonitor(model, labelled_only=labelled_only) as monitor, no_grad():
            model(Tensor(np.asarray(inputs, dtype=np.float64)))
    finally:
        model.train(was_training)
    return monitor.firing_rates()


def activity_drop(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """Relative drop in firing rate per layer between two measurements.

    Values in [0, 1]; 0 means unchanged, 1 means the layer went completely
    silent.  Layers missing from either measurement are skipped.
    """

    drops: Dict[str, float] = {}
    for label, rate_before in before.items():
        if label not in after:
            continue
        if rate_before <= 0:
            drops[label] = 0.0
        else:
            drops[label] = max(0.0, 1.0 - after[label] / rate_before)
    return drops
