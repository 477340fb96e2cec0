"""Minimal reverse-mode autodiff engine used by the FalVolt reproduction.

Public surface:

* :class:`Tensor` -- numpy-backed tensor with gradient tracking.
* :func:`no_grad` -- context manager disabling graph construction.
* :mod:`repro.autograd.functional` -- NN primitives (linear, conv2d, average
  pooling, batch-norm, dropout, one-hot) and the :class:`Function`
  custom-gradient hook.
* :mod:`repro.autograd.gradcheck` -- finite-difference gradient validation.
"""

from .tensor import Tensor, is_grad_enabled, no_grad, where
from .functional import (
    Function,
    avg_pool2d,
    batch_norm,
    conv2d,
    dropout,
    im2col,
    col2im,
    linear,
    one_hot,
)
from .gradcheck import check_gradients, numerical_gradient

__all__ = [
    "Tensor",
    "is_grad_enabled",
    "no_grad",
    "where",
    "Function",
    "avg_pool2d",
    "batch_norm",
    "conv2d",
    "dropout",
    "im2col",
    "col2im",
    "linear",
    "one_hot",
    "check_gradients",
    "numerical_gradient",
]
