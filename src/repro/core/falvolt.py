"""FalVolt: fault-aware retraining with per-layer threshold voltage optimization.

This module implements the paper's primary contribution (Algorithm 1):

1. ``FindPrunedWeightsIndices`` / ``SetPrunedWeightsToZero`` -- the weights
   mapped onto faulty PEs (from the post-fabrication fault map) are zeroed,
   modelling the hardware bypass of Fig. 3b.
2. The unpruned weights *and one threshold voltage per spiking layer* are
   retrained jointly with surrogate-gradient backpropagation.  The spike
   condition is ``z = v / V_th - 1`` (Eq. 1); the surrogate (Eq. 2)
   approximates ``do/dz``; and the gradient of the loss with respect to
   ``V_th`` follows Eq. (3)-(4) through the autodiff graph.
3. The pruned weights are re-zeroed at the end of every retraining epoch
   (line 13), because gradient updates would otherwise move them away from
   the value the bypassed hardware can realise.

Setting ``retraining_epochs=0`` makes FalVolt degenerate to plain
fault-aware pruning, as noted in the paper.
"""

from __future__ import annotations

from typing import Optional

from ..snn.network import SpikingClassifier
from .base import FaultMitigation


class FalVolt(FaultMitigation):
    """Fault-aware threshold-voltage optimization in retraining (the paper's method)."""

    method_name = "FalVolt"

    def __init__(self, retraining_epochs: int = 10,
                 initial_threshold: Optional[float] = None,
                 **kwargs) -> None:
        """Create a FalVolt mitigation.

        Parameters
        ----------
        retraining_epochs:
            Maximum retraining epochs (Algorithm 1's ``trEpochs``).
        initial_threshold:
            Starting value for the learnable per-layer threshold voltages;
            ``None`` keeps each layer's current threshold.  Weights and
            thresholds share one optimizer and learning rate, the
            formulation of Algorithm 1 (one learning rate ``eta``).
        """

        super().__init__(retraining_epochs=retraining_epochs, **kwargs)
        self.initial_threshold = initial_threshold

    def prepare_model(self, model: SpikingClassifier) -> None:
        """Make the threshold voltage of every spiking layer a learnable parameter."""

        for node in model.spiking_layers():
            node.make_threshold_learnable(initial=self.initial_threshold)

