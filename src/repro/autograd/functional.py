"""Neural-network functional primitives built on :class:`repro.autograd.Tensor`.

The functions in this module implement the standard building blocks needed by
the spiking networks in this reproduction: dense and convolutional affine
transforms, pooling, batch normalisation, dropout and the custom-gradient
machinery used by the Heaviside spike function with a surrogate derivative.

Convolutions are implemented with im2col + matmul, which keeps the backward
pass simple (it reuses the matmul gradient plus a col2im scatter) and is fast
enough for the small networks used in the FalVolt experiments.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .tensor import Tensor, _unbroadcast


class Function:
    """Base class for operations with custom (non-autodiff) gradients.

    Subclasses implement :meth:`forward` returning the output array and any
    context needed by :meth:`backward`, which maps the output gradient to
    gradients of the inputs.  ``ctx["needs_grad"]`` holds one flag per input
    so a backward can skip gradients nobody will read.  This is the hook
    used for the spike Heaviside step with a surrogate derivative and for
    the fused training layers (batch norm, average pooling, neuron steps).
    """

    @staticmethod
    def forward(ctx: dict, *arrays: np.ndarray, **kwargs) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def backward(ctx: dict, grad: np.ndarray) -> Tuple[Optional[np.ndarray], ...]:
        raise NotImplementedError

    @classmethod
    def apply(cls, *inputs, **kwargs) -> Tensor:
        tensors = [x if isinstance(x, Tensor) else Tensor(x) for x in inputs]
        ctx: dict = {"needs_grad": tuple(t.requires_grad for t in tensors)}
        data = cls.forward(ctx, *[t.data for t in tensors], **kwargs)

        def backward(grad: np.ndarray) -> None:
            grads = cls.backward(ctx, grad)
            if not isinstance(grads, tuple):
                grads = (grads,)
            for tensor, g in zip(tensors, grads):
                if tensor.requires_grad and g is not None:
                    tensor._accumulate(g)

        return Tensor._make(data, tensors, backward)


# ----------------------------------------------------------------------
# Dense / affine
# ----------------------------------------------------------------------
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine transform ``x @ weight.T + bias``.

    Parameters
    ----------
    x:
        Input of shape ``(batch, in_features)``.
    weight:
        Weight of shape ``(out_features, in_features)``.
    bias:
        Optional bias of shape ``(out_features,)``.
    """

    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


# ----------------------------------------------------------------------
# im2col helpers (shared by conv2d and its tests)
# ----------------------------------------------------------------------
def _conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


#: Flat patch indexes keyed by ``(channels, height, width, kh, kw, stride,
#: padding)``; read-only, cleared when it outgrows a handful of geometries.
_PATCH_INDEX_CACHE: Dict[Tuple[int, ...], np.ndarray] = {}


def _patch_index(channels: int, height: int, width: int, kh: int, kw: int,
                 stride: int, padding: int) -> np.ndarray:
    """Flat source index of every im2col output element of one sample.

    Entry ``((i * out_w + j) * channels + c) * kh * kw + di * kw + dj``
    holds the offset of pixel ``(c, i * stride + di - padding, j * stride
    + dj - padding)`` in the flattened ``(channels, height, width)`` image,
    or ``channels * height * width`` -- one zero slot past the image --
    for taps that fall in the padding.
    """

    key = (channels, height, width, kh, kw, stride, padding)
    index = _PATCH_INDEX_CACHE.get(key)
    if index is None:
        if len(_PATCH_INDEX_CACHE) > 64:
            _PATCH_INDEX_CACHE.clear()
        out_h = _conv_output_size(height, kh, stride, padding)
        out_w = _conv_output_size(width, kw, stride, padding)
        # Broadcast to (out_h, out_w, channels, kh, kw).
        rows = (np.arange(out_h)[:, None, None, None, None] * stride
                + np.arange(kh)[:, None] - padding)
        cols = (np.arange(out_w)[:, None, None, None] * stride
                + np.arange(kw) - padding)
        chans = np.arange(channels)[:, None, None]
        inside = (rows >= 0) & (rows < height) & (cols >= 0) & (cols < width)
        index = np.where(inside, (chans * height + rows) * width + cols,
                         channels * height * width).astype(np.intp).ravel()
        index.flags.writeable = False
        _PATCH_INDEX_CACHE[key] = index
    return index


def im2col(x: np.ndarray, kernel: Tuple[int, int], stride: int, padding: int) -> np.ndarray:
    """Rearrange image patches into columns.

    Input shape ``(batch, channels, height, width)``; output shape
    ``(batch, out_h, out_w, channels * kh * kw)``, C-contiguous, in
    ``x``'s dtype.

    One ``np.take`` over a cached flat patch index (:func:`_patch_index`)
    gathers every sample's patches; padded taps read a zero slot appended
    after each sample.  The gather only copies: every output element is
    an element of ``x`` or ``+0.0``, in the layout a strided-window copy
    of a zero-padded ``x`` produces, so the GEMM operands built from it --
    and every float64 result downstream -- are byte-identical to that
    copy's.
    """

    batch, channels, height, width = x.shape
    kh, kw = kernel
    out_h = _conv_output_size(height, kh, stride, padding)
    out_w = _conv_output_size(width, kw, stride, padding)
    index = _patch_index(channels, height, width, kh, kw, stride, padding)
    size = channels * height * width
    if padding > 0:
        flat = np.empty((batch, size + 1), dtype=x.dtype)
        flat[:, size] = 0
        flat[:, :size] = x.reshape(batch, size)
    else:
        flat = x.reshape(batch, size)
    # Every index is in range, so "wrap" never wraps; it only skips the
    # bounds error path, which is measurably slower per element.
    cols = np.take(flat, index, axis=1, mode="wrap")
    return cols.reshape(batch, out_h, out_w, channels * kh * kw)


def col2im(cols: np.ndarray, input_shape: Tuple[int, int, int, int],
           kernel: Tuple[int, int], stride: int, padding: int) -> np.ndarray:
    """Inverse of :func:`im2col` (scatter-add), used for the conv backward pass."""

    batch, channels, height, width = input_shape
    kh, kw = kernel
    out_h = _conv_output_size(height, kh, stride, padding)
    out_w = _conv_output_size(width, kw, stride, padding)
    padded = np.zeros((batch, channels, height + 2 * padding, width + 2 * padding))
    cols = cols.reshape(batch, out_h, out_w, channels, kh, kw)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i:i + stride * out_h:stride, j:j + stride * out_w:stride] += (
                cols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
            )
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


class _Conv2dFunction(Function):
    """2D convolution with im2col; gradients for input, weight and bias."""

    @staticmethod
    def forward(ctx: dict, x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray] = None,
                *, stride: int = 1, padding: int = 0) -> np.ndarray:
        out_channels, in_channels, kh, kw = weight.shape
        cols = im2col(x, (kh, kw), stride, padding)
        batch, out_h, out_w, _ = cols.shape
        flat_weight = weight.reshape(out_channels, -1)
        out = cols @ flat_weight.T
        if bias is not None:
            out = out + bias
        ctx.update(
            cols=cols, weight=weight, x_shape=x.shape, stride=stride,
            padding=padding, has_bias=bias is not None,
        )
        return out.transpose(0, 3, 1, 2)

    @staticmethod
    def backward(ctx: dict, grad: np.ndarray) -> Tuple[Optional[np.ndarray], ...]:
        cols = ctx["cols"]
        weight = ctx["weight"]
        out_channels = weight.shape[0]
        kh, kw = weight.shape[2], weight.shape[3]
        grad_flat = grad.transpose(0, 2, 3, 1)  # (batch, out_h, out_w, out_channels)
        flat_weight = weight.reshape(out_channels, -1)

        grad_x = None
        if ctx["needs_grad"][0]:  # the first layer's input frames need none
            grad_cols = grad_flat @ flat_weight
            grad_x = col2im(grad_cols, ctx["x_shape"], (kh, kw), ctx["stride"], ctx["padding"])

        grad_weight = np.tensordot(grad_flat, cols, axes=([0, 1, 2], [0, 1, 2]))
        grad_weight = grad_weight.reshape(weight.shape)

        grad_bias = grad_flat.sum(axis=(0, 1, 2)) if ctx["has_bias"] else None
        return grad_x, grad_weight, grad_bias


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2D convolution over ``(batch, channels, height, width)`` input."""

    if bias is None:
        return _Conv2dFunction.apply(x, weight, stride=stride, padding=padding)
    return _Conv2dFunction.apply(x, weight, bias, stride=stride, padding=padding)


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------
def check_pool_dims(name: str, height: int, width: int, kernel_size: int) -> None:
    """Reject a spatial size that ``kernel_size`` windows do not tile."""

    if height % kernel_size or width % kernel_size:
        raise ValueError(
            f"{name} requires spatial dims divisible by {kernel_size}, got {height}x{width}"
        )


def window_mean(x: np.ndarray, kernel_size: int) -> np.ndarray:
    """Mean of each non-overlapping ``k x k`` window over the last two axes.

    The ``k * k`` taps ``x[..., i::k, j::k]`` are summed in row-major
    ``(i, j)`` order: the first two into a fresh array, the rest added in
    place.  The sum is then scaled by ``1 / k^2`` in place (``k == 1`` is a
    copy times ``1.0``).  Any number of leading axes is allowed, so the
    autograd forward and the fused engine's pooling kernel share this one
    formula and agree for every input.  The output keeps ``x``'s memory
    order, as the ``reshape -> sum`` reduction it replaced did, and equals
    that reduction byte for byte wherever the window sums are exact -- on
    spikes (0.0/1.0), which is all the shipped models pool.
    """

    k = kernel_size
    if k == 1:
        out = x.copy(order="K")
    else:
        taps = [x[..., i::k, j::k] for i in range(k) for j in range(k)]
        out = taps[0] + taps[1]
        for tap in taps[2:]:
            out += tap
    out *= 1.0 / (k * k)
    return out


class _AvgPool2dFunction(Function):
    """Non-overlapping average pooling as one node.

    The forward is :func:`window_mean`: the window's taps summed in
    row-major order, then scaled by ``1 / k^2``.  The backward spreads
    ``grad / k^2`` over each window, the gradient of that sum.
    """

    @staticmethod
    def forward(ctx: dict, x: np.ndarray, *, kernel_size: int) -> np.ndarray:
        batch, channels, height, width = x.shape
        windows = (batch, channels, height // kernel_size, kernel_size,
                   width // kernel_size, kernel_size)
        ctx.update(x_shape=x.shape, windows=windows, scale=1.0 / (kernel_size * kernel_size))
        return window_mean(x, kernel_size)

    @staticmethod
    def backward(ctx: dict, grad: np.ndarray) -> Tuple[Optional[np.ndarray], ...]:
        spread = np.expand_dims(grad * ctx["scale"], axis=(3, 5))
        return (np.broadcast_to(spread, ctx["windows"]).reshape(ctx["x_shape"]),)


def avg_pool2d(x: Tensor, kernel_size: int) -> Tensor:
    """Non-overlapping average pooling with square windows.

    Requires the spatial dimensions to be divisible by ``kernel_size`` (the
    model builders in :mod:`repro.snn.models` guarantee this).
    """

    check_pool_dims("avg_pool2d", x.shape[2], x.shape[3], kernel_size)
    return _AvgPool2dFunction.apply(x, kernel_size=kernel_size)


# ----------------------------------------------------------------------
# Normalisation and regularisation
# ----------------------------------------------------------------------
class _BatchNormFunction(Function):
    """Batch normalisation over the channel axis as one node.

    Forward and backward replay, op by op, the ``Tensor`` composition
    ``(x - mean) * (var + eps) ** -0.5 * gamma + beta``, so outputs and
    gradients are bit-identical to it (see "Training path" in
    docs/ARCHITECTURE.md for the rules this follows).
    """

    @staticmethod
    def forward(ctx: dict, x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, *,
                running_mean: np.ndarray, running_var: np.ndarray, training: bool,
                momentum: float, eps: float) -> np.ndarray:
        if x.ndim == 4:
            axes, view = (0, 2, 3), (1, -1, 1, 1)
        else:
            axes, view = (0,), (1, -1)
        if training:
            scale = 1.0 / int(np.prod([x.shape[a] for a in axes]))
            mean = x.sum(axis=axes, keepdims=True) * scale
            centered = x - mean
            var = (centered * centered).sum(axis=axes, keepdims=True) * scale
            running_mean *= (1.0 - momentum)
            running_mean += momentum * mean.reshape(-1)
            running_var *= (1.0 - momentum)
            running_var += momentum * var.reshape(-1)
            ctx["scale"] = scale
        else:
            centered = x - running_mean.reshape(view)
            var = running_var.reshape(view)
        shifted_var = var + eps
        inv_std = shifted_var ** -0.5
        gamma_view = gamma.reshape(view)
        ctx.update(training=training, centered=centered, shifted_var=shifted_var,
                   inv_std=inv_std, gamma_view=gamma_view)
        normalised = centered * inv_std
        return normalised * gamma_view + beta.reshape(view)

    @staticmethod
    def backward(ctx: dict, grad: np.ndarray) -> Tuple[Optional[np.ndarray], ...]:
        centered, inv_std = ctx["centered"], ctx["inv_std"]
        stat_shape = inv_std.shape
        grad_beta = _unbroadcast(grad, stat_shape).reshape(-1)
        grad_out = np.ascontiguousarray(grad)
        # Named, not a temporary: numpy writes ``a * temporary`` into the
        # temporary's buffer, and that memory layout changes the sum's bits.
        normalised = centered * inv_std
        grad_gamma = _unbroadcast(grad_out * normalised, stat_shape).reshape(-1)
        grad_normalised = grad_out * ctx["gamma_view"]
        grad_x = grad_normalised * inv_std
        if not ctx["training"]:
            return grad_x, grad_gamma, grad_beta

        scale, x_shape = ctx["scale"], centered.shape
        grad_inv_std = _unbroadcast(grad_normalised * centered, stat_shape)
        grad_var = grad_inv_std * -0.5 * ctx["shifted_var"] ** -1.5
        # Copied C-ordered, as the graph stored it, before the sum below.
        grad_squares = np.broadcast_to(grad_var * scale, x_shape).copy()
        # centered * centered sends one equal term per operand: t + t == 2 * t.
        grad_centered = 2.0 * (grad_squares * centered)
        mean_term = np.broadcast_to(_unbroadcast(-grad_x, stat_shape) * scale, x_shape)
        var_mean_term = np.broadcast_to(
            _unbroadcast(-grad_centered, stat_shape) * scale, x_shape)
        # x's four terms, added in the graph's topological order.
        return grad_x + mean_term + grad_centered + var_mean_term, grad_gamma, grad_beta


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Batch normalisation over the channel dimension of a 2D or 4D tensor.

    ``running_mean`` / ``running_var`` are plain numpy arrays owned by the
    calling layer and are updated in place when ``training`` is true.
    """

    if x.ndim not in (2, 4):
        raise ValueError(f"batch_norm expects 2D or 4D input, got {x.ndim}D")
    return _BatchNormFunction.apply(
        x, gamma, beta, running_mean=running_mean, running_var=running_var,
        training=training, momentum=momentum, eps=eps)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero activations with probability ``p`` during training."""

    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    mask = (rng.random(x.shape) >= p).astype(np.float64) / (1.0 - p)
    return x * Tensor(mask)


# ----------------------------------------------------------------------
# Loss helpers
# ----------------------------------------------------------------------
def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a ``(batch, num_classes)`` one-hot float array."""

    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1D array of class indices")
    if labels.min(initial=0) < 0 or (labels.size and labels.max() >= num_classes):
        raise ValueError("label out of range for one_hot")
    encoded = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded
