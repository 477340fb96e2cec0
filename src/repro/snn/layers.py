"""Non-spiking layers used inside the PLIF-SNN architectures.

These wrap the primitives from :mod:`repro.autograd.functional` in stateful
:class:`~repro.snn.module.Module` objects with named parameters, so the
mitigation code can address weights by layer name when mapping them onto the
systolic array.
"""

from __future__ import annotations

import math

import numpy as np

from ..autograd import Tensor
from ..autograd import functional as F
from ..utils.rng import get_rng
from .module import Module, Parameter


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng=None, init_gain: float = 1.0) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        if init_gain <= 0:
            raise ValueError("init_gain must be positive")
        rng = get_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        # ``init_gain`` compensates for sparse binary-spike inputs: a layer fed
        # by spikes firing at rate r sees an input variance of roughly r, so a
        # gain of ~1/sqrt(r) restores a unit-variance membrane drive.
        scale = init_gain * math.sqrt(2.0 / in_features)
        self.weight = Parameter(rng.normal(0.0, scale, size=(out_features, in_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def lower_inference(self, builder) -> None:
        builder.add_affine("linear", self.weight.data,
                           None if self.bias is None else self.bias.data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Linear({self.in_features}, {self.out_features})"


class Conv2d(Module):
    """2D convolution with square kernels."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True, rng=None) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        rng = get_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        scale = math.sqrt(2.0 / fan_in)
        self.weight = Parameter(
            rng.normal(0.0, scale, size=(out_channels, in_channels, kernel_size, kernel_size)))
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def lower_inference(self, builder) -> None:
        builder.add_affine("conv", self.weight.data,
                           None if self.bias is None else self.bias.data,
                           stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Conv2d({self.in_channels}, {self.out_channels}, "
                f"k={self.kernel_size}, s={self.stride}, p={self.padding})")


class BatchNorm2d(Module):
    """Batch normalisation over the channel dimension of a 4D tensor."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm(x, self.gamma, self.beta, self.running_mean, self.running_var,
                            training=self.training, momentum=self.momentum, eps=self.eps)

    def lower_inference(self, builder) -> None:
        builder.add_batch_norm(self.gamma.data, self.beta.data,
                               self.running_mean, self.running_var, self.eps)


class AvgPool2d(Module):
    """Non-overlapping average pooling."""

    def __init__(self, kernel_size: int = 2) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size)

    def lower_inference(self, builder) -> None:
        builder.add_pool(self.kernel_size)


class Dropout(Module):
    """Inverted dropout; active only in training mode."""

    def __init__(self, p: float = 0.5, rng=None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = get_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, training=self.training, rng=self._rng)

    def lower_inference(self, builder) -> None:
        builder.add_identity()  # inverted dropout is the identity in eval mode


class Flatten(Module):
    """Flatten all dimensions except the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten_batch()

    def lower_inference(self, builder) -> None:
        builder.add_flatten()


class Sequential(Module):
    """Ordered container executing children in registration order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: list[str] = []
        for index, module in enumerate(modules):
            name = f"layer{index}"
            setattr(self, name, module)
            self._order.append(name)

    def append(self, module: Module) -> "Sequential":
        name = f"layer{len(self._order)}"
        setattr(self, name, module)
        self._order.append(name)
        return self

    def __iter__(self):
        return (getattr(self, name) for name in self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return getattr(self, self._order[index])

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = getattr(self, name)(x)
        return x

    def lower_inference(self, builder) -> None:
        for module in self:
            builder.lower(module)
