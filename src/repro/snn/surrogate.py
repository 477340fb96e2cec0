"""Surrogate gradient functions for the non-differentiable spike step.

A spiking neuron fires ``o = Heaviside(z)`` where ``z = v / V_th - 1``
(Eq. 1 of the paper).  During backpropagation the derivative of the step is
replaced by a smooth surrogate; the paper (Eq. 2) uses the triangular
surrogate ``do/dz = gamma * max(0, 1 - |z|)``.  ATan and sigmoid surrogates
are provided for the ablation study.
"""

from __future__ import annotations

import numpy as np


class SurrogateGradient:
    """Base class: the derivative that stands in for ``dHeaviside/dz``.

    The spike step itself is :class:`repro.snn.neurons.Fire`, which calls
    :meth:`derivative` in its backward pass.
    """

    def derivative(self, z: np.ndarray) -> np.ndarray:
        """Return the surrogate derivative evaluated element-wise at ``z``."""

        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        params = ", ".join(f"{k}={v}" for k, v in sorted(vars(self).items()))
        return f"{type(self).__name__}({params})"


class Triangle(SurrogateGradient):
    """Triangular surrogate of the paper's Eq. (2): ``gamma * max(0, 1 - |z|)``."""

    def __init__(self, gamma: float = 1.0) -> None:
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        self.gamma = float(gamma)

    def derivative(self, z: np.ndarray) -> np.ndarray:
        return self.gamma * np.maximum(0.0, 1.0 - np.abs(z))


class ATan(SurrogateGradient):
    """ATan surrogate used by the PLIF paper (Fang et al., ICCV 2021)."""

    def __init__(self, alpha: float = 2.0) -> None:
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = float(alpha)

    def derivative(self, z: np.ndarray) -> np.ndarray:
        return self.alpha / (2.0 * (1.0 + (np.pi / 2.0 * self.alpha * z) ** 2))


class SigmoidSurrogate(SurrogateGradient):
    """Sigmoid-shaped surrogate: derivative of ``sigmoid(alpha * z)``."""

    def __init__(self, alpha: float = 4.0) -> None:
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = float(alpha)

    def derivative(self, z: np.ndarray) -> np.ndarray:
        s = 1.0 / (1.0 + np.exp(-self.alpha * z))
        return self.alpha * s * (1.0 - s)


_SURROGATES = {
    "triangle": Triangle,
    "atan": ATan,
    "sigmoid": SigmoidSurrogate,
}


def get_surrogate(name: str, **kwargs) -> SurrogateGradient:
    """Look up a surrogate by name (``triangle``, ``atan`` or ``sigmoid``)."""

    key = name.lower()
    if key not in _SURROGATES:
        raise KeyError(f"unknown surrogate '{name}'; options: {sorted(_SURROGATES)}")
    return _SURROGATES[key](**kwargs)
