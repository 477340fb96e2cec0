"""Fault-aware pruning with retraining, no threshold optimization (FaPIT).

FaPIT is the stronger ANN-style baseline of the paper (Fig. 7 and Fig. 8):
after pruning the weights mapped to faulty PEs, the remaining weights are
retrained with surrogate-gradient backpropagation, but the threshold voltage
of every layer stays fixed at its initial-training value (1.0).  FalVolt
differs only in additionally optimizing the per-layer threshold, which is
what buys its ~2x faster convergence.
"""

from __future__ import annotations

from ..snn.network import SpikingClassifier
from .base import FaultMitigation


class FaultAwarePruningWithRetraining(FaultMitigation):
    """FaPIT baseline: prune + retrain weights with a fixed threshold voltage."""

    method_name = "FaPIT"

    def __init__(self, retraining_epochs: int = 10, fixed_threshold: float = 1.0,
                 **kwargs) -> None:
        if retraining_epochs <= 0:
            raise ValueError("FaPIT requires at least one retraining epoch")
        super().__init__(retraining_epochs=retraining_epochs, **kwargs)
        if fixed_threshold <= 0:
            raise ValueError("fixed_threshold must be positive")
        self.fixed_threshold = fixed_threshold

    def prepare_model(self, model: SpikingClassifier) -> None:
        """Pin every spiking layer's threshold to the fixed value."""

        for node in model.spiking_layers():
            node.set_threshold(self.fixed_threshold)
