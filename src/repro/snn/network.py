"""Temporal wrapper that runs a layer stack over multiple time steps.

A :class:`SpikingClassifier` owns a :class:`~repro.snn.layers.Sequential`
stack of (conv / batch-norm / spiking-neuron / pool / dropout / fc) layers
and executes it for ``T`` time steps, accumulating output spikes.  The firing
rate of the output layer (spike count divided by ``T``) is the network's
prediction vector, as in the PLIF paper and the FalVolt experimental setup.

Static inputs of shape ``(batch, C, H, W)`` are presented identically at
every time step (direct / constant-current coding, with the first
convolutional block acting as a learned spike encoder).  Event-based inputs
of shape ``(T, batch, C, H, W)`` are consumed frame by frame.
"""

from __future__ import annotations

from typing import List, Optional

from ..autograd import Tensor
from .layers import Sequential
from .module import Module
from .neurons import PLIFNode, spiking_nodes


def iter_frames(x, time_steps: int):
    """The per-step inputs of ``x`` (a :class:`Tensor` or a numpy array).

    5D ``(T, batch, C, H, W)`` event frames and 3D ``(T, batch, features)``
    temporal vectors yield one slice per step; 4D ``(batch, C, H, W)``
    static images and 2D ``(batch, features)`` static vectors (useful for
    toy FC-only nets) yield ``x`` itself ``time_steps`` times.
    """

    if x.ndim in (5, 3):
        for t in range(x.shape[0]):
            yield x[t]
    elif x.ndim in (4, 2):
        for _ in range(time_steps):
            yield x
    else:
        raise ValueError(
            "expected a 2D/4D static input or a 3D/5D time-major input, "
            f"got shape {x.shape}")


class SpikingClassifier(Module):
    """Run a layer stack over time and return class firing rates.

    Parameters
    ----------
    layers:
        The layer stack (including spiking neuron layers).
    time_steps:
        Number of simulation time steps ``T`` used for static inputs.  Event
        inputs provide their own leading time dimension, which takes
        precedence.
    """

    def __init__(self, layers: Sequential, time_steps: int = 4) -> None:
        super().__init__()
        if time_steps <= 0:
            raise ValueError("time_steps must be positive")
        self.layers = layers
        self.time_steps = time_steps

    # ------------------------------------------------------------------
    # Introspection helpers used by the mitigation code
    # ------------------------------------------------------------------
    def spiking_layers(self) -> List[PLIFNode]:
        """All spiking neuron layers, in forward order."""

        return spiking_nodes(self.layers)

    def labelled_spiking_layers(self) -> List[PLIFNode]:
        """Spiking layers with a ``layer_label`` (the hidden layers of Fig. 6)."""

        return [node for node in self.spiking_layers() if node.layer_label]

    def threshold_summary(self) -> dict:
        """Mapping of layer label -> current threshold voltage."""

        return {node.layer_label: node.v_threshold for node in self.labelled_spiking_layers()}

    # ------------------------------------------------------------------
    # Fused inference lowering
    # ------------------------------------------------------------------
    def lower_inference(self, builder) -> None:
        builder.lower(self.layers)

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        """Return output firing rates of shape ``(batch, num_classes)``."""

        self.reset_state()
        accumulated: Optional[Tensor] = None
        steps = 0
        for frame in iter_frames(x, self.time_steps):
            out = self.layers(frame)
            accumulated = out if accumulated is None else accumulated + out
            steps += 1
        return accumulated * (1.0 / steps)
