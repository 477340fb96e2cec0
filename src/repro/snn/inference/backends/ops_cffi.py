"""Compiled C backend (cffi): fused im2col + stuck-at + neuron kernels.

The campaign hot paths this backend compiles are exactly the ones the
ROADMAP names as the numpy frontier -- and, crucially, the *bit-safe*
ones:

* **im2col** is a pure gather/copy (plus zero padding), so a C loop
  producing the same ``(batch, out_h, out_w, C*kh*kw)`` C-contiguous
  layout yields byte-identical columns, and therefore byte-identical GEMM
  results.  The numpy version pays an ``as_strided`` -> transpose ->
  ``ascontiguousarray`` copy with terrible locality; the C version writes
  the destination sequentially.
* **The stuck-at quantise -> force -> dequantise pass** is elementwise:
  per element it performs divide, ``rint`` (round-half-to-even -- C
  ``rint()`` under the default rounding mode, the same operation numpy's
  ``np.rint`` performs), clip via comparisons (NaN-propagating, matching
  ``np.maximum``/``np.minimum``), an exact int64 cast, exact bit logic and
  the two's-complement ``xor``/``sub`` sign extension, then one multiply.
  One C pass replaces the ~10 full-buffer ufunc sweeps of
  :class:`~repro.systolic.chain_kernel.StuckAtKernel.force`.
* **The charge -> fire -> reset neuron update** is elementwise too: each
  element's update is an independent chain of IEEE-754 ops, so fusing the
  per-array ufunc sweeps into one per-element sequence (same ops, same
  order) cannot change any bit.  In the streaming regime (tiny batches,
  many time steps) this also collapses ~8 ufunc dispatches per layer-step
  into one FFI call.

What this backend deliberately does NOT touch: the GEMMs.  They stay on
numpy/BLAS -- reimplementing them in C would change the summation order
and break the float64 byte-identity contract the whole campaign stack is
pinned on.

The shared library is built lazily on first use with ``cffi`` and a C
compiler, compiled with ``-ffp-contract=off`` (no FMA contraction -- a
fused multiply-add rounds once where the oracle rounds twice) and cached
under ``$REPRO_CFFI_CACHE`` (default ``~/.cache/repro/cffi``) keyed by a
source hash, so later processes just ``dlopen`` the cached ``.so``.  A
missing compiler makes the backend report "not available" instead of
raising; requesting it explicitly then raises, selecting it via
``REPRO_BACKEND`` degrades to numpy with a logged notice.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import threading
from pathlib import Path
from typing import Optional

import numpy as np

# A missing cffi marks the backend unavailable via the registry's
# ImportError discovery protocol.
import cffi  # noqa: F401

from ....systolic.chain_kernel import StuckAtKernel
from ..plan import AffineSpec, NeuronSpec
from . import register_backend
from .ops_numpy import (
    ArrayAffineKernel,
    NeuronKernel,
    NumpyBackend,
    SoftwareAffineKernel,
)

__all__ = [
    "CffiBackend",
    "CffiNeuronKernel",
    "CffiStuckAtKernel",
]

_CDEF = """
void repro_im2col(const double *x, double *cols, long batch, long channels,
                  long height, long width, long kh, long kw, long out_h,
                  long out_w, long stride, long padding);
void repro_stuck_force(double *values, long chains, long inner,
                       const int64_t *bit_mask, const int64_t *inv_mask,
                       const unsigned char *stuck_one, int mode, double scale,
                       double min_code, double max_code, int64_t word_mask,
                       int64_t sign_mask);
void repro_neuron_step(double *v, const double *x, double *spike, long n,
                       int has_tau, double inv_tau, double rest,
                       double threshold, int soft, double v_reset);
"""

_SOURCE = r"""
#include <stdint.h>
#include <math.h>

/* Patch gather with the exact output layout of autograd.functional.im2col:
 * (batch, out_h, out_w, channels*kh*kw), C-contiguous, zero padding.  The
 * destination is written strictly sequentially. */
void repro_im2col(const double *x, double *cols, long batch, long channels,
                  long height, long width, long kh, long kw, long out_h,
                  long out_w, long stride, long padding)
{
    long idx = 0;
    for (long b = 0; b < batch; b++) {
        const double *xb = x + b * channels * height * width;
        for (long oh = 0; oh < out_h; oh++) {
            long base_r = oh * stride - padding;
            for (long ow = 0; ow < out_w; ow++) {
                long base_c = ow * stride - padding;
                for (long c = 0; c < channels; c++) {
                    const double *xc = xb + c * height * width;
                    for (long i = 0; i < kh; i++) {
                        long r = base_r + i;
                        if (r < 0 || r >= height) {
                            for (long j = 0; j < kw; j++)
                                cols[idx++] = 0.0;
                            continue;
                        }
                        const double *xr = xc + r * width;
                        for (long j = 0; j < kw; j++) {
                            long cc = base_c + j;
                            cols[idx++] = (cc >= 0 && cc < width)
                                ? xr[cc] : 0.0;
                        }
                    }
                }
            }
        }
    }
}

/* Fused quantise -> force-bit -> dequantise over a (chains, inner) block.
 * Per element this is step-for-step StuckAtKernel.force: divide, rint
 * (round half to even under the default rounding mode, = np.rint), clip
 * via NaN-propagating comparisons (= np.maximum/np.minimum), truncating
 * int64 cast (= np.copyto casting="unsafe"), masked bit force, xor/sub
 * sign extension, multiply.  mode: 0 = per-chain stuck_one flags,
 * 1 = all stuck-at-1, 2 = all stuck-at-0. */
void repro_stuck_force(double *values, long chains, long inner,
                       const int64_t *bit_mask, const int64_t *inv_mask,
                       const unsigned char *stuck_one, int mode, double scale,
                       double min_code, double max_code, int64_t word_mask,
                       int64_t sign_mask)
{
    for (long c = 0; c < chains; c++) {
        const int64_t bm = bit_mask[c];
        const int64_t im = inv_mask[c];
        const int sa1 = (mode == 1) || (mode == 0 && stuck_one[c]);
        double *v = values + c * inner;
        for (long i = 0; i < inner; i++) {
            double q = v[i] / scale;
            q = rint(q);
            q = (q > min_code || isnan(q)) ? q : min_code;
            q = (q < max_code || isnan(q)) ? q : max_code;
            int64_t w = (int64_t)q;
            w &= word_mask;
            if (sa1)
                w |= bm;
            else
                w &= im;
            w ^= sign_mask;
            w -= sign_mask;
            v[i] = (double)w * scale;
        }
    }
}

/* Fused charge -> fire -> reset for one spiking layer.  Per element the
 * statement sequence mirrors NeuronKernel.run's ufunc sequence exactly
 * (compiled with -ffp-contract=off, so no op pair fuses into an FMA). */
void repro_neuron_step(double *v, const double *x, double *spike, long n,
                       int has_tau, double inv_tau, double rest,
                       double threshold, int soft, double v_reset)
{
    for (long i = 0; i < n; i++) {
        double h = v[i];
        if (has_tau) {
            double t = h - rest;
            t = x[i] - t;
            t = t * inv_tau;
            h = h + t;
        } else {
            h = h + x[i];
        }
        double z = h / threshold;
        z = z - 1.0;
        double s = (z > 0.0) ? 1.0 : 0.0;
        spike[i] = s;
        if (soft) {
            double d = s * threshold;
            h = h - d;
        } else if (s > 0.5) {
            h = v_reset;
        }
        v[i] = h;
    }
}
"""


class _CffiState:
    """Process-wide lazy build state (one compile attempt per process)."""

    lock = threading.Lock()
    attempted = False
    ffi = None
    lib = None
    error: Optional[str] = None


def _cache_dir() -> Path:
    root = os.environ.get("REPRO_CFFI_CACHE")
    if root:
        return Path(root)
    base = os.environ.get("XDG_CACHE_HOME")
    return (Path(base) if base else Path.home() / ".cache") / "repro" / "cffi"


def _build():
    """Compile (or reuse) the cached extension module and load it."""

    digest = hashlib.sha256((_CDEF + _SOURCE).encode("utf-8")).hexdigest()[:16]
    modname = f"_repro_cffi_{digest}"
    cache = _cache_dir()
    cache.mkdir(parents=True, exist_ok=True)

    def _find_so():
        return sorted(cache.glob(modname + "*.so"))

    existing = _find_so()
    if not existing:
        lockfile = cache / (modname + ".lock")
        with open(lockfile, "w") as handle:
            try:
                import fcntl

                fcntl.flock(handle, fcntl.LOCK_EX)
            except ImportError:  # pragma: no cover - non-POSIX
                pass
            existing = _find_so()
            if not existing:
                builder = cffi.FFI()
                builder.cdef(_CDEF)
                # -ffp-contract=off: an FMA rounds once where the numpy
                # oracle rounds twice; contraction would break byte-identity.
                builder.set_source(
                    modname, _SOURCE,
                    extra_compile_args=["-O3", "-ffp-contract=off"],
                    libraries=["m"])
                builder.compile(tmpdir=str(cache))
                existing = _find_so()
    if not existing:  # pragma: no cover - compiler produced nothing
        raise RuntimeError(f"cffi build produced no extension in {cache}")
    spec = importlib.util.spec_from_file_location(modname, str(existing[0]))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ffi, module.lib


def _load() -> None:
    with _CffiState.lock:
        if _CffiState.attempted:
            return
        _CffiState.attempted = True
        try:
            _CffiState.ffi, _CffiState.lib = _build()
        except Exception as exc:  # missing compiler, read-only cache, ...
            _CffiState.error = f"{type(exc).__name__}: {exc}"


def _lib():
    """The loaded ``(ffi, lib)`` pair, building lazily; ``lib`` may be None."""

    if not _CffiState.attempted:
        _load()
    return _CffiState.ffi, _CffiState.lib


def _cffi_im2col(x: np.ndarray, kernel, stride: int, padding: int) -> np.ndarray:
    from ....autograd.functional import im2col as numpy_im2col

    ffi, lib = _lib()
    if x.dtype != np.float64 or x.ndim != 4 or lib is None:
        return numpy_im2col(x, kernel, stride, padding)
    kh, kw = kernel
    # A contiguous copy preserves values exactly, so the gathered columns
    # (and everything downstream) keep their bits.
    x = np.ascontiguousarray(x)
    batch, channels, height, width = x.shape
    out_h = (height + 2 * padding - kh) // stride + 1
    out_w = (width + 2 * padding - kw) // stride + 1
    cols = np.empty((batch, out_h, out_w, channels * kh * kw))
    lib.repro_im2col(ffi.cast("double *", x.ctypes.data),
                     ffi.cast("double *", cols.ctypes.data),
                     batch, channels, height, width, kh, kw, out_h, out_w,
                     int(stride), int(padding))
    return cols


class CffiSoftwareAffineKernel(SoftwareAffineKernel):
    """Autograd-geometry affine kernel with the C im2col gather."""

    _im2col = staticmethod(_cffi_im2col)


class CffiArrayAffineKernel(ArrayAffineKernel):
    """Array-geometry affine kernel with the C im2col gather."""

    _im2col = staticmethod(_cffi_im2col)


class CffiNeuronKernel(NeuronKernel):
    """One FFI call per time step instead of ~8 full-buffer ufunc sweeps."""

    def run(self, x: np.ndarray) -> np.ndarray:
        ffi, lib = _lib()
        if x.dtype != np.float64 or lib is None:
            return super().run(x)
        if self.v is None or self.v.shape != x.shape:
            self._init_buffers(x.shape)
        x = np.ascontiguousarray(x)
        lib.repro_neuron_step(
            ffi.cast("double *", self.v.ctypes.data),
            ffi.cast("double *", x.ctypes.data),
            ffi.cast("double *", self._spike.ctypes.data),
            self.v.size,
            0 if self.inv_tau is None else 1,
            0.0 if self.inv_tau is None else float(self.inv_tau),
            float(self.rest),
            float(self.threshold),
            1 if self.v_reset is None else 0,
            0.0 if self.v_reset is None else float(self.v_reset))
        return self._spike


class CffiStuckAtKernel(StuckAtKernel):
    """Fused C stuck-at forcing; falls back to numpy off the fast path."""

    __slots__ = ("_c_ok",)

    def __init__(self, fmt) -> None:
        super().__init__(fmt)
        # word_mask must fit an int64 argument; >= 64 total bits falls back.
        self._c_ok = int(fmt.total_bits) < 64

    def force(self, values: np.ndarray, level, chunk: slice,
              raw: np.ndarray) -> np.ndarray:
        ffi, lib = _lib()
        bit_mask = level.bit_mask[chunk]
        inv_mask = level.inv_mask[chunk]
        stuck_one = None if level.stuck_one is None else level.stuck_one[chunk]
        if (lib is None
                or not self._c_ok
                or values.dtype != np.float64
                or not values.flags.c_contiguous
                or not bit_mask.flags.c_contiguous
                or not inv_mask.flags.c_contiguous
                or (stuck_one is not None
                    and not stuck_one.flags.c_contiguous)):
            return super().force(values, level, chunk, raw)
        chains = values.shape[0]
        inner = 0 if chains == 0 else values.size // chains
        mode = 1 if level.all_sa1 else (2 if level.all_sa0 else 0)
        lib.repro_stuck_force(
            ffi.cast("double *", values.ctypes.data),
            chains, inner,
            ffi.cast("int64_t *", bit_mask.ctypes.data),
            ffi.cast("int64_t *", inv_mask.ctypes.data),
            (ffi.NULL if stuck_one is None
             else ffi.cast("unsigned char *", stuck_one.ctypes.data)),
            mode, float(self.scale), float(self.min_code),
            float(self.max_code), self.word_mask, self.sign_mask)
        return values


class CffiBackend(NumpyBackend):
    """Compiled backend: C im2col + stuck-at force + neuron update.

    GEMMs, batch norm and pooling stay on the numpy kernels; only the
    bit-safe copy/elementwise hot spots run in C.  Any spec the C path does
    not cover delegates to the numpy kernels, so selecting this backend is
    always safe.
    """

    name = "cffi"

    def available(self) -> bool:
        _load()
        return _CffiState.error is None

    def unavailable_reason(self) -> Optional[str]:
        _load()
        return _CffiState.error

    def make_kernel(self, spec: object, affine_mode: str = "software",
                    batch_ndim: int = 1):
        if isinstance(spec, AffineSpec):
            if affine_mode == "software":
                return CffiSoftwareAffineKernel(spec)
            if affine_mode == "array":
                return CffiArrayAffineKernel(spec)
            raise ValueError(f"unknown affine mode '{affine_mode}'")
        if isinstance(spec, NeuronSpec):
            return CffiNeuronKernel(spec)
        return super().make_kernel(spec, affine_mode=affine_mode,
                                   batch_ndim=batch_ndim)

    def im2col(self, x: np.ndarray, kernel, stride: int,
               padding: int) -> np.ndarray:
        return _cffi_im2col(x, kernel, stride, padding)

    def stuck_at_kernel(self, fmt) -> CffiStuckAtKernel:
        return CffiStuckAtKernel(fmt)


register_backend(CffiBackend())
