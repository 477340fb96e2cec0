"""Faulty affine execution for the fused fault engine.

:class:`FaultyAffineRunner` executes one prepared (conv or linear) layer
under a subset array's faults.  The dense per-map product is computed with
the exact GEMM geometry of the sequential :meth:`repro.systolic.array
.SystolicArray.matmul` oracle, and chain application runs
:func:`~repro.systolic.chain_kernel.apply_chain_plan` over the weight's
prepared :class:`~repro.systolic.chain_kernel.UniformChainPlan` blocks.
Results are bit-identical to that oracle, which is the one reference the
equivalence tests compare them against by ``tobytes()``.

Campaign evaluations are wide, not streaming: the shipped test loaders
hand the engine 80-sample (MNIST, N-MNIST) and 88-sample (DVS-Gesture)
batches, so a convolution's folded im2col operand has thousands to tens
of thousands of rows, and hundreds of chain applications run per
evaluation.  Only ``benchmarks/bench_campaign.py``'s 2-sample
``EVAL_BATCH`` streams.  Everything input-independent -- chain ordering,
per-level bit/polarity masks, scatter index arrays, fixed-point constants
-- is precomputed at ``prepare_weight`` time, so the per-call work is
exactly the segment GEMMs and fused stuck-at passes.

A layer runs in one of two modes.  At a map's *fork op* the input is the
clean lane's activations, identical for every map forking there, so the
im2col gather and the dense product are built once per time step as a
:class:`ForkEntry` (:meth:`FaultyAffineRunner.entry`) and each entering
runner corrects its own copy (:meth:`FaultyAffineRunner.run_entry`).
After the fork every map carries its own activations
(:meth:`FaultyAffineRunner.run`).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ...systolic import array as systolic_array
from ...systolic.array import BatchedSystolicArray
from ...systolic.chain_kernel import StuckAtKernel
from .backends.ops_numpy import KERNEL_SET

__all__ = ["FaultyAffineRunner", "ForkEntry"]


class ForkEntry:
    """Shared operands of one fork op for one time step.

    ``inputs`` is the float64 GEMM operand (the flattened im2col patches
    of a convolution, the activations of a linear layer) and ``dense`` its
    clean product ``inputs @ W.T`` -- ``None`` when every entering map
    multiplies its own effective (bypass- or weight-fault-masked) weights.
    ``shape`` is the convolution's ``(batch, out_h, out_w)``, else ``None``.
    All three are read-only (runners copy ``dense`` before correcting it)
    and owned by the entry, which outlives the time step that built it.
    """

    __slots__ = ("inputs", "dense", "shape")

    def __init__(self, inputs: np.ndarray, dense: Optional[np.ndarray],
                 shape: Optional[Tuple[int, int, int]]) -> None:
        self.inputs = inputs
        self.dense = dense
        self.shape = shape


class FaultyAffineRunner:
    """Execute one (conv or linear) layer under a subset array's faults.

    Parameters
    ----------
    subset:
        The :class:`BatchedSystolicArray` holding the forked maps' faults.
    prepared:
        ``subset.prepare_weight`` of this layer's weight.
    spec:
        The layer's :class:`~repro.snn.inference.plan.AffineSpec`.
    """

    def __init__(self, subset: BatchedSystolicArray, prepared, spec) -> None:
        self.prepared = prepared
        self.num_maps = subset.num_maps
        self.spec = spec
        self.weight_matrix = prepared.weight_matrix
        self.weight_t = prepared.weight_matrix.T
        self.stacked_weights = prepared.stacked_weights
        self.bias = None if spec.bias is None else np.asarray(spec.bias,
                                                              dtype=np.float64)
        self.rows = subset.rows
        self.kernel = StuckAtKernel(subset.fmt)
        self._im2col = KERNEL_SET.im2col
        self._apply_plan = KERNEL_SET.apply_chain_plan

    # ------------------------------------------------------------------
    def _apply_chains(self, x: np.ndarray, output: np.ndarray,
                      shared: bool) -> None:
        for plan in self.prepared.chain_plans:
            # Read the block cap through the module so tests can shrink it
            # to force the multi-chunk path.
            self._apply_plan(plan, x, output, shared, self.kernel, self.rows,
                             systolic_array._CHAIN_BLOCK_ELEMENTS)

    def _im2col_flat(self, x: np.ndarray):
        """``(out_h, out_w)`` and the 2D im2col patches of 4D ``x``."""

        spec = self.spec
        kh, kw = spec.weight.shape[2], spec.weight.shape[3]
        cols = self._im2col(x, (kh, kw), spec.stride, spec.padding)
        rows, out_h, out_w, k = cols.shape
        return (out_h, out_w), cols.reshape(rows * out_h * out_w, k)

    def _finish(self, x: np.ndarray, output: np.ndarray, shared: bool,
                shape: Optional[Tuple[int, int, int]]) -> np.ndarray:
        """Correct the faulty columns, add the bias, restore the layout."""

        self._apply_chains(x, output, shared)
        if self.bias is not None:
            # ``output`` is a fresh product the runner owns.
            np.add(output, self.bias, out=output)
        if shape is None:
            return output
        batch, out_h, out_w = shape
        out_channels = self.weight_matrix.shape[0]
        return (output.reshape(self.num_maps, batch, out_h, out_w, out_channels)
                .transpose(0, 1, 4, 2, 3))

    # ------------------------------------------------------------------
    def entry(self, x: np.ndarray, dense: bool) -> ForkEntry:
        """Shared fork-entry operands of the clean activations ``x``.

        ``dense`` asks for the clean product too; it is the one every
        sequential run of a map without effective weights performs, so
        computing it once and copying it per map is bit-identical.
        """

        if self.spec.kind == "conv":
            batch = x.shape[0]
            out_hw, x = self._im2col_flat(x)
            shape = (batch,) + out_hw
        else:
            # The entry outlives this time step, and ``x`` may view a clean
            # kernel's reused buffer (a flatten of neuron spikes).
            x = x.copy(order="K")
            shape = None
        return ForkEntry(x, x @ self.weight_t if dense else None, shape)

    def run_entry(self, entry: ForkEntry) -> np.ndarray:
        """The layer's per-map output at the maps' fork op.

        Returns ``(F, batch, out)`` (linear) or ``(F, batch, out_channels,
        H_out, W_out)`` (conv).
        """

        x = entry.inputs
        if self.stacked_weights is not None:
            output = np.matmul(np.broadcast_to(x, (self.num_maps,) + x.shape),
                               self.stacked_weights)
        else:
            # A private copy: the chains correct it in place.
            output = np.repeat(entry.dense[np.newaxis], self.num_maps, axis=0)
        return self._finish(x, output, True, entry.shape)

    def run(self, x: np.ndarray) -> np.ndarray:
        """The layer's per-map output for forked activations ``x``.

        ``x`` keeps its leading ``(F, batch, ...)`` fault-map axis; the
        result has the same layout as :meth:`run_entry`'s.
        """

        shape = None
        if self.spec.kind == "conv":
            batch = x.shape[1]
            out_hw, flat = self._im2col_flat(
                x.reshape((self.num_maps * batch,) + x.shape[2:]))
            shape = (batch,) + out_hw
            x = flat.reshape(self.num_maps, -1, flat.shape[1])
        output = np.matmul(x, self.weight_t if self.stacked_weights is None
                           else self.stacked_weights)
        return self._finish(x, output, False, shape)
