"""The ``Backend`` protocol: everything a kernel backend can swap out.

A backend owns the *execution* of a lowered
:class:`~repro.snn.inference.plan.InferencePlan` -- the plan itself is
backend-agnostic IR (which is why :class:`~repro.snn.inference.plan_cache
.PlanCache` entries and campaign cache keys never mention the backend).
The swappable surface is deliberately small:

* :meth:`make_kernel` -- per-op runtime kernels (affine GEMMs in both
  geometries, fused charge->fire->reset neuron updates, batch norm,
  pooling, flatten);
* :meth:`im2col` -- the patch-gather feeding every convolution GEMM;
* :meth:`stuck_at_kernel` / :meth:`apply_chain_plan` -- the fused
  stuck-at quantise->force->dequantise pass and the chain-application
  driver of :mod:`repro.systolic.chain_kernel`.

The base class implements every hook with the shared numpy/chain-kernel
code paths, so a backend only overrides what it accelerates.  The bit
contract of :mod:`repro.snn.inference.backends` applies: every override
must keep per-element operation order, so results are byte-identical to
the numpy oracle.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ....autograd.functional import im2col as _numpy_im2col
from ....systolic import chain_kernel as _chain_kernel


class Backend:
    """Kernel-execution backend for the fused inference engines.

    Subclasses set :attr:`name` (the registry key, also the value accepted
    by ``REPRO_BACKEND`` / ``--backend``) and override the hooks they
    accelerate.  A backend whose runtime prerequisites may be missing
    (compiler, shared library, device) reports through :meth:`available` /
    :meth:`unavailable_reason` instead of raising at import time.
    """

    #: Registry key; subclasses must override.
    name: str = "abstract"

    # -- availability --------------------------------------------------
    def available(self) -> bool:
        """Whether the backend can execute on this machine (may build lazily)."""

        return True

    def unavailable_reason(self) -> Optional[str]:
        """Human-readable reason :meth:`available` is ``False`` (else ``None``)."""

        return None

    # -- kernel construction -------------------------------------------
    def make_kernel(self, spec: object, affine_mode: str = "software",
                    batch_ndim: int = 1):
        """Instantiate the runtime kernel for one plan spec.

        Same contract as the historical ``kernels.make_kernel``:
        ``affine_mode`` selects the GEMM geometry for affine ops
        (``"software"`` = autograd-identical, ``"array"`` = fault-free
        systolic array), ``batch_ndim`` the number of leading batch-like
        axes (2 in the fault engine's fork lane).
        """

        raise NotImplementedError

    # -- shared primitives ---------------------------------------------
    def im2col(self, x: np.ndarray, kernel: Tuple[int, int], stride: int,
               padding: int) -> np.ndarray:
        """Patch gather with the exact layout of ``autograd.functional.im2col``."""

        return _numpy_im2col(x, kernel, stride, padding)

    def stuck_at_kernel(self, fmt) -> "_chain_kernel.StuckAtKernel":
        """Fused stuck-at forcing kernel for one fixed-point format."""

        return _chain_kernel.StuckAtKernel(fmt)

    def apply_chain_plan(self, plan, inputs: np.ndarray, output: np.ndarray,
                         shared: bool, kernel, rows: int,
                         block_elements: int) -> None:
        """Chain-application driver (segment GEMMs + ``kernel`` forcing).

        The default delegates to :func:`repro.systolic.chain_kernel
        .apply_chain_plan`; a backend typically customises the *forcing*
        via :meth:`stuck_at_kernel` and keeps the GEMMs on numpy/BLAS,
        whose summation order the bit-identity contract is pinned to.
        """

        _chain_kernel.apply_chain_plan(plan, inputs, output, shared, kernel,
                                       rows, block_elements)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"
