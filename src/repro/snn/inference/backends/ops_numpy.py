"""The fused engines' numpy kernels.

Each kernel executes one :mod:`repro.snn.inference.plan` spec on plain
numpy arrays: no ``Tensor`` wrappers, no backward closures, and state
buffers (membrane potentials, scratch arrays) preallocated per shape and
updated in place.  A whole neuron time step -- charge, fire, reset -- runs
as a handful of ``out=``-style ufunc calls over the same buffers.

Bit-identity contract: every kernel computes each output element with the
same float64 ops as its autograd counterpart, in the same order and on
arrays of the same shape and memory layout, or with an exact identity of
those ops.  IEEE-754 arithmetic is deterministic given that, so fused
outputs match the autograd forward bit for bit (the property tests in
``tests/test_inference_engine.py`` assert it).  The identities used are:

* **Spike without a divide.**  For a positive, finite ``V_th``,
  ``fl(v / V_th) - 1 > 0`` holds exactly when ``v > V_th``: ``q - 1 > 0``
  and ``q > 1`` agree for every double ``q`` (infinities and NaN
  included), and correctly rounded division is monotonic with
  ``fl(nextafter(V_th, inf) / V_th) > 1``.  :class:`NeuronKernel` fires on
  ``v > V_th``.
* **Charge from a ``+0.0`` rest.**  ``v - (+0.0) == v`` bitwise (``-0.0``
  and NaN included), so with a rest potential of exactly ``+0.0`` the
  drive ``x - (v - rest)`` is ``x - v``.  A ``-0.0`` rest keeps both ops:
  ``-0.0 - (-0.0)`` is ``+0.0``.
* **Masked soft reset.**  ``v - spike * V_th`` is ``v - (+0.0) == v``
  where the neuron stayed silent and ``v - V_th`` where it fired, so the
  reset subtracts ``V_th`` under the spike mask only.

Average pooling shares its formula with the autograd forward rather than
relying on an identity: both call
:func:`~repro.autograd.functional.window_mean`.

Affine kernels come in two flavours:

* ``software`` -- the autograd forward's geometry (4D ``cols @ W.T`` for
  convolutions), bit-identical to ``model(x)`` in eval mode.
* ``array`` -- the systolic-array simulator's geometry (flattened 2D GEMM
  via :func:`~repro.systolic.mapping.as_weight_matrix`), bit-identical to a
  fault-free :meth:`~repro.systolic.array.SystolicArray.matmul` /
  ``conv2d`` and therefore to the clean columns of a faulty pass.

:class:`NumpyBackend` groups the call points the engines use --
:meth:`~NumpyBackend.make_kernel`, the im2col gather of faulty GEMMs and
the fault-chain driver -- and :data:`KERNEL_SET` is the one instance the
engines and :class:`~repro.snn.inference.faulty_gemm.FaultyAffineRunner`
share.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ....autograd.functional import check_pool_dims, im2col, window_mean
from ....systolic import chain_kernel
from ...neurons import check_threshold
from ..plan import (
    AffineSpec,
    BatchNormSpec,
    FlattenSpec,
    NeuronSpec,
    PoolSpec,
)

__all__ = [
    "NeuronKernel",
    "BatchNormKernel",
    "PoolKernel",
    "FlattenKernel",
    "SoftwareAffineKernel",
    "ArrayAffineKernel",
    "NumpyBackend",
    "KERNEL_SET",
]


class NeuronKernel:
    """Fused charge -> fire -> reset update for one spiking layer.

    The membrane potential lives in ``self.v`` and is updated in place:
    after :meth:`run` it holds the post-reset potential, exactly like
    ``PLIFNode.forward`` leaves ``self.v``.  A step with a ``+0.0`` rest is
    six ufunc passes (seven for any other rest) where the autograd step
    makes nine; the module docstring lists the identities that keep it
    bit-identical.  They need a positive, finite threshold, so any other is
    rejected here.
    """

    def __init__(self, spec: NeuronSpec) -> None:
        self.inv_tau = spec.inv_tau
        self.threshold = check_threshold(spec.v_threshold, "fused neuron")
        self.v_reset = spec.v_reset
        self.rest = 0.0 if spec.v_reset is None else float(spec.v_reset)
        # ``v - (+0.0) == v`` bitwise; a ``-0.0`` rest keeps the subtract.
        self._rest_is_plus_zero = self.rest == 0.0 and math.copysign(1.0, self.rest) > 0
        self.v: Optional[np.ndarray] = None

    def reset(self) -> None:
        """Return the membrane to rest, keeping the buffers for reuse."""

        if self.v is not None:
            self.v.fill(self.rest)

    def _init_buffers(self, shape: tuple) -> None:
        self.v = np.full(shape, self.rest, dtype=np.float64)
        self._scratch = np.empty(shape)
        self._spike = np.empty(shape)
        self._mask = np.empty(shape, dtype=bool)

    def run(self, x: np.ndarray) -> np.ndarray:
        if self.v is None or self.v.shape != x.shape:
            self._init_buffers(x.shape)
        v = self.v
        # Charge: H_t = v + (x - (v - rest)) * inv_tau; ``v`` holds H_t
        # afterwards.
        t = self._scratch
        if self._rest_is_plus_zero:
            np.subtract(x, v, out=t)
        else:
            np.subtract(v, self.rest, out=t)
            np.subtract(x, t, out=t)
        np.multiply(t, self.inv_tau, out=t)
        np.add(v, t, out=v)
        # Fire: Heaviside(H / V_th - 1) is exactly H > V_th.  Copying the
        # bool mask into the float buffer yields the 0.0/1.0 values of the
        # autograd path's bool->float64 astype.
        mask = self._mask
        np.greater(v, self.threshold, out=mask)
        spike = self._spike
        np.copyto(spike, mask)
        # Reset: soft subtracts V_th from firing neurons, hard pins them to
        # v_reset; ``v`` holds the next membrane potential afterwards.
        if self.v_reset is None:
            np.subtract(v, self.threshold, out=v, where=mask)
        else:
            np.copyto(v, self.v_reset, where=mask)
        return spike


class BatchNormKernel:
    """Eval-mode batch normalisation from frozen running statistics.

    ``batch_ndim`` is the number of leading batch-like axes: 1 for the
    plain lane, 2 in the fork lane of the fault engine, where activations
    carry a leading fault-map axis (``(F, batch, C, H, W)``).  The extra
    axis only changes broadcasting shapes, not per-element arithmetic.
    """

    def __init__(self, spec: BatchNormSpec, batch_ndim: int = 1) -> None:
        self.spec = spec
        self.batch_ndim = batch_ndim
        self._views = None
        self._out: Optional[np.ndarray] = None

    def _build_views(self, ndim: int):
        if ndim == self.batch_ndim + 3:
            view = (1,) * self.batch_ndim + (-1, 1, 1)
        elif ndim == self.batch_ndim + 1:
            view = (1,) * self.batch_ndim + (-1,)
        else:
            raise ValueError(
                f"batch norm expects {self.batch_ndim + 1}D or "
                f"{self.batch_ndim + 3}D input, got {ndim}D")
        spec = self.spec
        mean = spec.running_mean.reshape(view).astype(np.float64)
        # Same expression as the autograd eval branch: (var + eps) ** -0.5.
        inv_std = ((spec.running_var.reshape(view).astype(np.float64)
                    + np.float64(spec.eps)) ** -0.5)
        gamma = spec.gamma.reshape(view).astype(np.float64)
        beta = spec.beta.reshape(view).astype(np.float64)
        return mean, inv_std, gamma, beta

    def run(self, x: np.ndarray) -> np.ndarray:
        if self._views is None or self._views[0].ndim != x.ndim:
            self._views = self._build_views(x.ndim)
        mean, inv_std, gamma, beta = self._views
        if self._out is None or self._out.shape != x.shape:
            self._out = np.empty(x.shape)
        out = self._out
        np.subtract(x, mean, out=out)
        np.multiply(out, inv_std, out=out)
        np.multiply(out, gamma, out=out)
        np.add(out, beta, out=out)
        return out


class PoolKernel:
    """Non-overlapping average pooling with square windows.

    Window reductions touch the same elements in the same order regardless
    of how many leading batch-like axes (``batch_ndim``) precede the
    ``(C, H, W)`` block, so per-element results match the single-batch-axis
    autograd path bit for bit: the kernel is the autograd forward's own
    :func:`~repro.autograd.functional.window_mean`.
    """

    def __init__(self, spec: PoolSpec, batch_ndim: int = 1) -> None:
        self.k = spec.kernel_size
        self.batch_ndim = batch_ndim

    def run(self, x: np.ndarray) -> np.ndarray:
        height, width = x.shape[-2:]
        check_pool_dims("avg_pool2d", height, width, self.k)
        return window_mean(x, self.k)


class FlattenKernel:
    def __init__(self, spec: FlattenSpec, batch_ndim: int = 1) -> None:
        self.batch_ndim = batch_ndim

    def run(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[:self.batch_ndim] + (-1,))


class SoftwareAffineKernel:
    """Conv/FC with the autograd forward's exact GEMM geometry.

    ``_im2col`` is the patch gather shared by every convolution
    (:func:`~repro.autograd.functional.im2col`, a pure copy), held as a
    class attribute so the gather has one named call point per kernel.
    """

    _im2col = staticmethod(im2col)

    def __init__(self, spec: AffineSpec) -> None:
        self.spec = spec
        self.weight = spec.weight
        self.bias = spec.bias

    def run(self, x: np.ndarray) -> np.ndarray:
        spec = self.spec
        if spec.kind == "linear":
            out = x @ self.weight.T
            if self.bias is not None:
                out = out + self.bias
            return out
        out_channels = self.weight.shape[0]
        kh, kw = self.weight.shape[2], self.weight.shape[3]
        cols = self._im2col(x, (kh, kw), spec.stride, spec.padding)
        out = cols @ self.weight.reshape(out_channels, -1).T
        if self.bias is not None:
            out = out + self.bias
        return out.transpose(0, 3, 1, 2)


class ArrayAffineKernel:
    """Fault-free Conv/FC with the systolic-array simulator's geometry.

    Convolutions flatten the im2col patches to a 2D ``(batch * out_h *
    out_w, k)`` GEMM operand, exactly like
    :meth:`~repro.systolic.array.SystolicArray.conv2d`, so the output of
    this kernel is bit-identical (float64) to running the layer through a
    fault-free array -- which is what the clean lane of a multi-fault-map
    pass must reproduce.
    """

    _im2col = staticmethod(im2col)

    def __init__(self, spec: AffineSpec) -> None:
        from ....systolic.mapping import as_weight_matrix

        self.spec = spec
        # .astype always copies, matching SystolicArray.matmul's weight prep
        # (same C-contiguous layout for the GEMM's B operand).  Read-only:
        # the fused fault engine's runners of this layer share it.
        self.weight_matrix = as_weight_matrix(spec.weight).astype(np.float64)
        self.weight_matrix.flags.writeable = False
        self.bias = None if spec.bias is None else np.asarray(spec.bias, dtype=np.float64)

    def run(self, x: np.ndarray) -> np.ndarray:
        spec = self.spec
        if spec.kind == "linear":
            out = x @ self.weight_matrix.T
            if self.bias is not None:
                out = out + self.bias
            return out
        kh, kw = spec.weight.shape[2], spec.weight.shape[3]
        cols = self._im2col(x, (kh, kw), spec.stride, spec.padding)
        batch, out_h, out_w, k = cols.shape
        flat = cols.reshape(batch * out_h * out_w, k)
        out = flat @ self.weight_matrix.T
        if self.bias is not None:
            out = out + self.bias
        out_channels = self.weight_matrix.shape[0]
        return out.reshape(batch, out_h, out_w, out_channels).transpose(0, 3, 1, 2)


_KERNELS = {
    BatchNormSpec: BatchNormKernel,
    PoolSpec: PoolKernel,
    FlattenSpec: FlattenKernel,
}


class NumpyBackend:
    """The fused engines' kernel set: one call point per kernel family.

    ``im2col`` is the patch gather of faulty GEMMs and ``apply_chain_plan``
    the fault-chain driver (:func:`repro.systolic.chain_kernel
    .apply_chain_plan`), each held as a class attribute so it has one named
    call point.
    """

    im2col = staticmethod(im2col)
    apply_chain_plan = staticmethod(chain_kernel.apply_chain_plan)

    def make_kernel(self, spec: object, affine_mode: str = "software",
                    batch_ndim: int = 1):
        """Instantiate the runtime kernel for one plan spec.

        ``affine_mode`` selects the GEMM geometry for :class:`AffineSpec`
        ops: ``"software"`` (autograd-identical) or ``"array"`` (fault-free
        systolic array, used for the clean lane of faulty passes).
        ``batch_ndim`` is the number of leading batch-like axes of the
        lane's activations (2 in the fork lane, which carries a fault-map
        axis).
        """

        if isinstance(spec, AffineSpec):
            if affine_mode == "software":
                return SoftwareAffineKernel(spec)
            if affine_mode == "array":
                return ArrayAffineKernel(spec)
            raise ValueError(f"unknown affine mode '{affine_mode}'")
        if isinstance(spec, NeuronSpec):
            return NeuronKernel(spec)
        try:
            factory = _KERNELS[type(spec)]
        except KeyError:
            raise TypeError(f"no runtime kernel for spec {type(spec).__name__}")
        return factory(spec, batch_ndim=batch_ndim)


#: The kernel set the engines and ``FaultyAffineRunner`` share.
KERNEL_SET = NumpyBackend()
