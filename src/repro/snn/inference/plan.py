"""Lowering a trained module tree into a flat fused-inference plan.

The autograd :class:`~repro.snn.module.Module` tree is convenient for
training but expensive for pure evaluation: every elementwise membrane
update allocates ``Tensor`` objects, backward closures and fresh numpy
temporaries.  The inference subsystem *lowers* a trained network into an
:class:`InferencePlan` -- a flat list of small declarative op specs -- which
the engines in :mod:`repro.snn.inference.engine` execute with fused,
buffer-reusing numpy kernels and no graph construction.

Lowering is driven by the modules themselves: every supported layer class
implements a ``lower_inference(builder)`` hook that appends its spec(s) to a
:class:`PlanBuilder` (see :mod:`repro.snn.layers` and
:mod:`repro.snn.neurons`).  Containers forward the call to their children,
so new layer types only need a hook, not engine changes.  Weight arrays are
captured *by reference*: build the plan after training/loading and rebuild
it if parameters are replaced.

Affine (Conv/FC) ops carry their forward-order ordinal in
``AffineSpec.index``; the faulty multi-map engine keys per-map divergence
and clean-prefix sharing on that ordinal (see ``engine.FusedFaultEngine``).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

__all__ = [
    "LoweringError",
    "AffineSpec",
    "BatchNormSpec",
    "PoolSpec",
    "FlattenSpec",
    "NeuronSpec",
    "InferencePlan",
    "PlanBuilder",
    "lower_plan",
]


class LoweringError(TypeError):
    """A module in the tree has no fused-inference lowering."""


# ----------------------------------------------------------------------
# Op specs (declarative; runtime kernels are built from these)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class AffineSpec:
    """A Conv2d/Linear layer: the ops faults can corrupt on the array.

    ``index`` is the affine ordinal within the plan (0-based, forward
    order); the fault engines key divergence and weight preparation on it.
    """

    kind: str                       # "conv" | "linear"
    weight: np.ndarray              # reference to the layer's parameter data
    bias: Optional[np.ndarray]
    stride: int = 1
    padding: int = 0
    index: int = -1

    @property
    def weight_matrix_shape(self) -> tuple:
        """Shape of the 2D (out_features, in_features) view of ``weight``."""

        if self.weight.ndim == 2:
            return self.weight.shape
        out_channels = self.weight.shape[0]
        return (out_channels, int(np.prod(self.weight.shape[1:])))


@dataclasses.dataclass(frozen=True)
class BatchNormSpec:
    """Batch normalisation in eval mode (running statistics, no updates)."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float


@dataclasses.dataclass(frozen=True)
class PoolSpec:
    kind: str                       # "avg"
    kernel_size: int


@dataclasses.dataclass(frozen=True)
class FlattenSpec:
    pass


@dataclasses.dataclass(frozen=True)
class NeuronSpec:
    """One PLIF layer's update constants.

    ``inv_tau`` is the scalar reciprocal time constant of the charge step
    ``H = v + (x - (v - rest)) * inv_tau``.  ``v_reset`` is ``None`` for
    soft reset (subtract the threshold), a float for hard reset to that
    value.
    """

    inv_tau: float
    v_threshold: float
    v_reset: Optional[float]


#: Specs that carry no temporal state (safe to cache for static inputs).
_STATELESS_SPECS = (AffineSpec, BatchNormSpec, PoolSpec, FlattenSpec)


# ----------------------------------------------------------------------
# Plan
# ----------------------------------------------------------------------
@dataclasses.dataclass
class InferencePlan:
    """Flat lowering of a spiking classifier.

    Attributes
    ----------
    ops:
        Op specs in forward order (dropout layers lower to nothing: they
        are identity in eval mode).
    num_affine:
        Total number of affine ops.
    time_steps:
        Simulation steps ``T`` for static inputs (time-major inputs carry
        their own step count).
    static_prefix:
        Number of leading stateless ops.  For static inputs their outputs
        are identical at every time step, so the engines compute this
        prefix once per batch.
    """

    ops: List[object]
    num_affine: int
    time_steps: int

    @property
    def static_prefix(self) -> int:
        count = 0
        for op in self.ops:
            if not isinstance(op, _STATELESS_SPECS):
                break
            count += 1
        return count

    @property
    def affine_specs(self) -> List[AffineSpec]:
        return [op for op in self.ops if isinstance(op, AffineSpec)]


class PlanBuilder:
    """Accumulates op specs while walking a module tree.

    Layer hooks call the ``add_*`` methods; :meth:`lower` drives a module's
    ``lower_inference`` hook and converts missing hooks into
    :class:`LoweringError` with the offending module named.
    """

    def __init__(self) -> None:
        self._ops: List[object] = []
        self._num_affine = 0

    # ------------------------------------------------------------------
    def _append(self, spec: object) -> None:
        self._ops.append(spec)

    def add_affine(self, kind: str, weight: np.ndarray, bias: Optional[np.ndarray],
                   stride: int = 1, padding: int = 0) -> None:
        if kind not in ("conv", "linear"):
            raise ValueError(f"unknown affine kind '{kind}'")
        spec = AffineSpec(kind=kind, weight=weight, bias=bias, stride=int(stride),
                          padding=int(padding), index=self._num_affine)
        self._append(spec)
        self._num_affine += 1

    def add_batch_norm(self, gamma: np.ndarray, beta: np.ndarray,
                       running_mean: np.ndarray, running_var: np.ndarray,
                       eps: float) -> None:
        self._append(BatchNormSpec(gamma, beta, running_mean, running_var, float(eps)))

    def add_pool(self, kernel_size: int) -> None:
        self._append(PoolSpec("avg", int(kernel_size)))

    def add_flatten(self) -> None:
        self._append(FlattenSpec())

    def add_identity(self) -> None:
        """Lower to nothing (eval-mode dropout and friends)."""

    def add_neuron(self, inv_tau: float, v_threshold: float,
                   v_reset: Optional[float]) -> None:
        self._append(NeuronSpec(
            inv_tau=float(inv_tau),
            v_threshold=float(v_threshold),
            v_reset=None if v_reset is None else float(v_reset)))

    # ------------------------------------------------------------------
    def lower(self, module) -> None:
        """Lower ``module`` (and its subtree) into this builder."""

        hook = getattr(module, "lower_inference", None)
        if hook is None:
            raise LoweringError(
                f"{type(module).__name__} has no lower_inference hook; "
                "fused inference supports Conv2d/Linear/BatchNorm2d/pooling/"
                "Dropout/Flatten/Sequential and the spiking neuron layers")
        try:
            hook(self)
        except NotImplementedError as exc:
            raise LoweringError(
                f"{type(module).__name__} does not support fused inference "
                f"lowering") from exc

    def build(self, time_steps: int) -> InferencePlan:
        if time_steps <= 0:
            raise ValueError("time_steps must be positive")
        return InferencePlan(ops=list(self._ops), num_affine=self._num_affine,
                             time_steps=int(time_steps))


def lower_plan(model) -> InferencePlan:
    """Lower a :class:`~repro.snn.network.SpikingClassifier`-like model.

    ``model`` must provide a ``lower_inference`` hook and a ``time_steps``
    attribute (the temporal wrapper's step count for static inputs).
    """

    time_steps = getattr(model, "time_steps", None)
    if time_steps is None:
        raise LoweringError(
            f"{type(model).__name__} has no time_steps attribute; lower the "
            "temporal wrapper (SpikingClassifier), not a bare layer stack")
    builder = PlanBuilder()
    builder.lower(model)
    return builder.build(time_steps)
