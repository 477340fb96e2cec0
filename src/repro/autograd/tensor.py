"""Reverse-mode automatic differentiation on top of numpy.

This module provides the :class:`Tensor` class used throughout the
reproduction.  It is a deliberately small engine -- just enough machinery to
train spiking neural networks with surrogate-gradient backpropagation through
time -- but it is a *real* autodiff engine: every operation records a backward
closure, gradients broadcast correctly, and a topological sort drives the
backward pass.

Design notes
------------
* Data is always stored as ``float64`` numpy arrays.  Spiking networks are
  small in this reproduction, so we favour numerical robustness over memory.
* Gradients are accumulated (``+=``) so a tensor used in several places
  receives the sum of its downstream gradients, as expected.
* Broadcasting is handled by :func:`_unbroadcast`, which sums gradient axes
  that were expanded during the forward pass.
* A graph is backpropagated once: :meth:`Tensor.backward` frees each node's
  saved context as soon as its backward has run, and a second ``backward()``
  through the same graph raises.  Tensors the caller holds keep ``.grad``.
* Custom gradients (e.g. the Heaviside spike function with a surrogate
  derivative) are built with :class:`Function` in
  :mod:`repro.autograd.functional`.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Optional, Sequence, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction.

    Inside a ``with no_grad():`` block every operation produces tensors with
    ``requires_grad=False`` and no backward closures, which makes pure
    inference markedly faster and keeps memory flat.
    """

    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradients."""

    return _GRAD_ENABLED


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    When an operand was broadcast during the forward pass, the gradient
    flowing back has the broadcast shape; the contribution to the original
    operand is the sum over the broadcast axes.
    """

    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were of size 1 in the original shape.
    axes = tuple(
        axis for axis, size in enumerate(shape) if size == 1 and grad.shape[axis] != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor that records operations for backpropagation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 100  # numpy defers binary ops to Tensor

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        # ``None`` once backward() has released the node (see backward).
        self._parents: Optional[tuple] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def item(self) -> float:
        return float(self.data.item())

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (appropriate for scalar losses).  The graph
        is freed as the pass goes: afterwards every interior node has
        ``_backward`` and ``_parents`` set to ``None``, tensors the caller
        still holds keep ``.data`` and ``.grad``, and a second
        ``backward()`` through any released node raises ``RuntimeError``.
        """

        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)
            if grad.shape != self.data.shape:
                grad = np.broadcast_to(grad, self.data.shape).astype(np.float64)

        # Topological ordering of the graph reachable from ``self``.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            if node._parents is None:
                raise RuntimeError(
                    "backward() through a graph that was already backpropagated: "
                    "its saved tensors are freed; rebuild it with a new forward pass"
                )
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        # Walk the order in reverse and release each interior node as soon
        # as its backward has run: its closure (a ``Function``'s ``ctx`` and
        # input list), its parent links and the list's own reference.  A
        # processed node is then freed with its data and ``.grad`` unless
        # the caller still holds it, so the step's peak memory stays near
        # the forward graph's size.  Leaves have no closure and stay as
        # they are.
        self._accumulate(grad)
        while order:
            node = order.pop()
            backward = node._backward
            if backward is None:
                continue
            node._backward = node._parents = None
            if node.grad is not None:
                backward(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic operators
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other_t.requires_grad:
                other_t._accumulate(grad)

        return Tensor._make(data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other_t.requires_grad:
                other_t._accumulate(-grad)

        return Tensor._make(data, (self, other_t), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other_t.data)
            if other_t.requires_grad:
                other_t._accumulate(grad * self.data)

        return Tensor._make(data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other_t.data)
            if other_t.requires_grad:
                other_t._accumulate(-grad * self.data / (other_t.data ** 2))

        return Tensor._make(data, (self, other_t), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported")
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other_t.data.ndim == 1:
                    self._accumulate(np.outer(grad, other_t.data) if self.data.ndim == 2 else grad * other_t.data)
                else:
                    self._accumulate(grad @ np.swapaxes(other_t.data, -1, -2))
            if other_t.requires_grad:
                if self.data.ndim == 1:
                    other_t._accumulate(np.outer(self.data, grad))
                else:
                    other_t._accumulate(np.swapaxes(self.data, -1, -2) @ grad)

        return Tensor._make(data, (self, other_t), backward)

    # ------------------------------------------------------------------
    # Comparisons (produce plain numpy boolean arrays, no gradient)
    # ------------------------------------------------------------------
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > _as_array(other)

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < _as_array(other)

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= _as_array(other)

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= _as_array(other)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original_shape = self.data.shape
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original_shape))

        return Tensor._make(data, (self,), backward)

    def flatten_batch(self) -> "Tensor":
        """Flatten all dimensions except the first (batch) dimension."""

        batch = self.data.shape[0]
        return self.reshape(batch, -1)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        data = np.transpose(self.data, axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.transpose(grad, inverse))

        return Tensor._make(data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        input_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % len(input_shape) for a in axes)
                g = np.expand_dims(g, axis=tuple(sorted(axes)))
            self._accumulate(np.broadcast_to(g, input_shape))

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False, eps: float = 0.0) -> "Tensor":
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        squared = centered * centered
        result = squared.mean(axis=axis, keepdims=keepdims)
        if eps:
            result = result + eps
        return result

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data * (1.0 - data))

        return Tensor._make(data, (self,), backward)

    def maximum(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = np.maximum(self.data, other_t.data)
        mask_self = (self.data >= other_t.data).astype(np.float64)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask_self)
            if other_t.requires_grad:
                other_t._accumulate(grad * (1.0 - mask_self))

        return Tensor._make(data, (self, other_t), backward)


def where(condition: ArrayLike, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable ``where``: condition is treated as a constant mask."""

    cond = _as_array(condition).astype(bool)
    a_t = a if isinstance(a, Tensor) else Tensor(a)
    b_t = b if isinstance(b, Tensor) else Tensor(b)
    data = np.where(cond, a_t.data, b_t.data)

    def backward(grad: np.ndarray) -> None:
        if a_t.requires_grad:
            a_t._accumulate(grad * cond)
        if b_t.requires_grad:
            b_t._accumulate(grad * (~cond))

    return Tensor._make(data, (a_t, b_t), backward)
