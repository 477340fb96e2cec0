"""The spiking neuron: PLIF (parametric leaky integrate-and-fire).

The neuron follows the formulation of the paper (Section IV):

* The membrane potential ``v`` integrates the input charge through a leak
  with a learnable time constant.
* A spike ``o = Heaviside(z)`` is emitted when ``z = v / V_th - 1 > 0``
  (Eq. 1), i.e. when ``v`` exceeds the threshold voltage ``V_th``.
* The discontinuous derivative ``do/dz`` is replaced by a surrogate
  (Eq. 2, the triangular surrogate by default).
* After a spike the membrane is reset (hard reset to ``v_reset`` or soft
  reset by subtracting ``V_th``).

Threshold-voltage optimization (the core of FalVolt) is realised by making
``V_th`` a learnable per-layer parameter: the spike step :class:`Fire`
computes ``z = v / V_th - 1`` and its backward applies exactly the
``dz/dV = -v / V_th^2`` factor of the paper's Eq. (4).

Training runs each charge and spike step as one autograd ``Function``
(:class:`PLIFCharge`, :class:`Fire`); the reset stays a ``where`` node.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..autograd import Function, Tensor, where
from .module import Module, Parameter
from .surrogate import SurrogateGradient, Triangle

#: Lower bound applied to a learnable threshold voltage.  Keeps the spike
#: condition well defined if gradient descent drives the raw parameter toward
#: zero or below.
MIN_THRESHOLD = 0.05


def check_threshold(value: float, owner: str = "neuron") -> float:
    """``value`` as a float, if it is a positive, finite threshold voltage.

    The fused inference kernel fires on ``v > V_th``, which equals the
    spike condition ``v / V_th - 1 > 0`` only for such thresholds, so every
    entry point that sets one rejects any other with this one message.
    """

    value = float(value)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{owner} needs a positive, finite v_threshold, got {value}")
    return value


class PLIFCharge(Function):
    """Leaky charge step ``h = v + (x - (v - rest)) * rtau`` as one node.

    ``rtau`` is PLIF's ``sigmoid(w)``.  The forward and backward run the
    numpy ops of the ``Tensor`` composition in the same order, and the
    inputs are ordered ``(x, v, rtau)`` so the backward sweep reaches them
    in the order the composition's graph did: parameter gradients are
    bit-identical.
    """

    @staticmethod
    def forward(ctx: dict, x: np.ndarray, v: np.ndarray, rtau: np.ndarray, *,
                rest: float) -> np.ndarray:
        drive = x - (v - rest)
        ctx.update(drive=drive, rtau=rtau)
        return v + drive * rtau

    @staticmethod
    def backward(ctx: dict, grad: np.ndarray):
        needs_grad = ctx["needs_grad"]
        # C-ordered, as the composition stored it: ``rtau``'s gradient is a sum.
        grad_stored = np.ascontiguousarray(grad)
        grad_drive = grad_stored * ctx["rtau"]
        grad_v = grad + -grad_drive if needs_grad[1] else None
        grad_rtau = grad_stored * ctx["drive"] if needs_grad[2] else None
        return grad_drive, grad_v, grad_rtau


class Fire(Function):
    """Spike step ``Heaviside(h / V_th - 1)`` with a surrogate derivative.

    The backward is the surrogate derivative times ``dz/dh = 1 / V_th`` and
    ``dz/dV_th = -h / V_th^2`` (the paper's Eq. 4), evaluated with the same
    numpy ops, in the same order, as the ``Tensor`` composition
    ``surrogate(h / V_th - 1)``.
    """

    @staticmethod
    def forward(ctx: dict, h: np.ndarray, threshold: np.ndarray, *,
                surrogate: SurrogateGradient) -> np.ndarray:
        z = h / threshold - 1.0
        ctx.update(h=h, threshold=threshold, z=z, surrogate=surrogate)
        return (z > 0.0).astype(np.float64)

    @staticmethod
    def backward(ctx: dict, grad: np.ndarray):
        threshold = ctx["threshold"]
        grad_z = np.ascontiguousarray(grad * ctx["surrogate"].derivative(ctx["z"]))
        grad_threshold = None
        if ctx["needs_grad"][1]:
            grad_threshold = -grad_z * ctx["h"] / (threshold ** 2)
        return grad_z / threshold, grad_threshold


class PLIFNode(Module):
    """Parametric LIF neuron (Fang et al., ICCV 2021), the one spiking layer.

    The charge step is ``H_t = v_{t-1} + (x_t - (v_{t-1} - v_rest)) / tau``
    with the reciprocal time constant parameterised as ``1/tau =
    sigmoid(w)`` and ``w`` learnable, which keeps ``tau > 1`` for any ``w``
    and makes the network far less sensitive to initialisation -- the
    property the paper relies on for fast fault-aware retraining.

    Parameters
    ----------
    init_tau:
        Initial membrane time constant (must exceed 1).
    v_threshold:
        Initial threshold voltage ``V_th``.  It stays fixed until
        :meth:`make_threshold_learnable` turns it into a learnable scalar
        parameter (the FalVolt mechanism).
    v_reset:
        Reset potential.  ``None`` selects a *soft* reset (subtract
        ``V_th``), a float selects a *hard* reset to that value.
    surrogate:
        Surrogate gradient used in the backward pass (default: triangular,
        matching Eq. 2 of the paper).
    layer_label:
        Human-readable label (e.g. ``"Conv1"``) used when reporting
        per-layer optimized thresholds (Fig. 6).
    """

    def __init__(
        self,
        init_tau: float = 2.0,
        v_threshold: float = 1.0,
        v_reset: Optional[float] = 0.0,
        surrogate: Optional[SurrogateGradient] = None,
        layer_label: Optional[str] = None,
    ) -> None:
        super().__init__()
        v_threshold = check_threshold(v_threshold)
        if init_tau <= 1.0:
            raise ValueError("init_tau must be > 1")
        self.surrogate = surrogate if surrogate is not None else Triangle()
        self.v_reset = v_reset
        self.learnable_threshold = False
        self.layer_label = layer_label
        self.v_threshold_param = None
        self._fixed_threshold = float(v_threshold)
        self.v: Optional[Tensor] = None
        # Cached constants reused across time steps: the fixed-threshold
        # scalar tensor (invalidated by set_threshold) and the hard-reset
        # fill tensor as a (value, tensor) pair keyed by state shape.
        self._threshold_cache: Optional[Tensor] = None
        self._reset_cache = None
        # sigmoid(w) = 1 / init_tau  =>  w = -log(init_tau - 1)
        init_w = -math.log(init_tau - 1.0)
        self.w = Parameter(np.array(init_w))

    @property
    def tau(self) -> float:
        """Current membrane time constant implied by the learnable parameter.

        ``tau = 1 / sigmoid(w)`` simplifies to ``1 + exp(-w)``.
        """

        return float(1.0 + np.exp(-self.w.data))

    # ------------------------------------------------------------------
    # Threshold handling
    # ------------------------------------------------------------------
    def threshold_tensor(self) -> Tensor:
        """Return the current threshold voltage as a tensor (learnable or fixed)."""

        if self.learnable_threshold:
            return self.v_threshold_param.maximum(MIN_THRESHOLD)
        if self._threshold_cache is None:
            self._threshold_cache = Tensor(np.array(self._fixed_threshold))
        return self._threshold_cache

    @property
    def v_threshold(self) -> float:
        """Current threshold voltage as a plain float (for reporting)."""

        if self.learnable_threshold:
            return float(max(self.v_threshold_param.data, MIN_THRESHOLD))
        return self._fixed_threshold

    def set_threshold(self, value: float) -> None:
        """Set the threshold voltage (works for both fixed and learnable modes)."""

        value = check_threshold(value)
        if self.learnable_threshold:
            self.v_threshold_param.data[...] = value
        else:
            self._fixed_threshold = value
            self._threshold_cache = None

    def make_threshold_learnable(self, initial: Optional[float] = None) -> None:
        """Convert a fixed threshold into a learnable parameter (used by FalVolt)."""

        if initial is not None:
            initial = check_threshold(initial)
        if self.learnable_threshold:
            if initial is not None:
                self.v_threshold_param.data[...] = initial
            return
        value = initial if initial is not None else self._fixed_threshold
        self.learnable_threshold = True
        self.v_threshold_param = Parameter(np.array(value))

    # ------------------------------------------------------------------
    # State handling
    # ------------------------------------------------------------------
    def reset_state(self) -> None:
        """Forget the membrane potential (call between input sequences)."""

        self.v = None

    def _init_state(self, x: Tensor) -> None:
        if self.v is None or self.v.shape != x.shape:
            fill = 0.0 if self.v_reset is None else float(self.v_reset)
            self.v = Tensor(np.full(x.shape, fill))

    # ------------------------------------------------------------------
    # Neuron dynamics
    # ------------------------------------------------------------------
    def _charge(self, x: Tensor) -> Tensor:
        """Integrate input ``x`` into the membrane potential and return it."""

        rest = 0.0 if self.v_reset is None else float(self.v_reset)
        return PLIFCharge.apply(x, self.v, self.w.sigmoid(), rest=rest)

    def _fire(self, h: Tensor) -> Tensor:
        return Fire.apply(h, self.threshold_tensor(), surrogate=self.surrogate)

    def _reset(self, h: Tensor, spike: Tensor) -> Tensor:
        if self.v_reset is None:
            # Soft reset: subtract the threshold from neurons that fired.
            return h - spike * self.threshold_tensor()
        # Hard reset: spiking neurons return to v_reset.  The fill tensor is
        # constant per (state shape, reset value), so it is cached rather
        # than re-allocated at every time step; the value check covers
        # direct ``node.v_reset = ...`` mutation (e.g. the reset-mode
        # ablation).
        value = float(self.v_reset)
        cached = self._reset_cache
        if cached is None or cached[0] != value or cached[1].shape != h.shape:
            self._reset_cache = cached = (value, Tensor(np.full(h.shape, value)))
        return where(spike.data > 0.5, cached[1], h)

    def forward(self, x: Tensor) -> Tensor:
        """Advance the neuron by a single time step and return the spike output."""

        self._init_state(x)
        h = self._charge(x)
        spike = self._fire(h)
        self.v = self._reset(h, spike)
        return spike

    # ------------------------------------------------------------------
    # Fused inference lowering
    # ------------------------------------------------------------------
    def lower_inference(self, builder) -> None:
        # Identical expression to Tensor.sigmoid so the fused charge step
        # multiplies by the exact same scalar as the autograd forward.
        inv_tau = float(1.0 / (1.0 + np.exp(-self.w.data)))
        builder.add_neuron(inv_tau, self.v_threshold, self.v_reset)


def spiking_nodes(module: Module) -> list[PLIFNode]:
    """Return all spiking neuron layers inside ``module`` in traversal order."""

    return [m for m in module.modules() if isinstance(m, PLIFNode)]
