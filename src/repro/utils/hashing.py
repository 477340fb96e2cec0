"""Stable content digests of models and datasets.

These tokens key every cross-process cache in the campaign stack: the
on-disk sweep records of :mod:`repro.faults.campaign`, the retraining
caches of :mod:`repro.experiments.mitigation` and the per-process lowered
inference-plan cache of :mod:`repro.snn.inference.plan_cache`.  They hash
content (names, shapes, dtypes and raw bytes), never object identity, so
two models with identical parameters produce identical tokens in any
process -- and a single mutated weight changes the token.  :func:`model_key`
also sees the plain attributes outside the state dict (a fixed threshold,
the reset value), so it is the key of anything computed from a model.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

import numpy as np

__all__ = ["loader_token", "model_key", "model_token", "state_token"]


def state_token(state: Dict[str, np.ndarray]) -> str:
    """Stable digest of a model state dict (name, shape, dtype and bytes)."""

    digest = hashlib.sha256()
    for name in sorted(state):
        value = np.ascontiguousarray(state[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(value.shape).encode("utf-8"))
        digest.update(str(value.dtype).encode("utf-8"))
        digest.update(value.tobytes())
    return digest.hexdigest()


def model_token(model) -> str:
    """Stable digest of a model's parameters and buffers."""

    return state_token(model.state_dict())


#: Plain module attributes that change a model's outputs without being in
#: its state dict (layer geometry, a fixed threshold, the reset value).
_SCALAR_ATTRIBUTES = ("stride", "padding", "kernel_size", "eps", "v_threshold", "v_reset", "tau")


def model_key(model, token: Optional[str] = None) -> str:
    """Digest of everything a model's outputs depend on.

    That is its :func:`model_token` (pass ``token`` when already known),
    its ``time_steps`` and, per module, the class and the
    :data:`_SCALAR_ATTRIBUTES`.  Two models that differ only in a fixed
    threshold share a token but not a key.
    """

    if token is None:
        token = model_token(model)
    scalars = tuple(
        (type(module).__name__, *(getattr(module, name, None) for name in _SCALAR_ATTRIBUTES))
        for module in model.modules()
    )
    text = repr((token, int(getattr(model, "time_steps", 0) or 0), scalars))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def loader_token(loader) -> str:
    """Stable digest of a data loader's dataset (inputs, labels, batching)."""

    dataset = loader.dataset
    digest = hashlib.sha256()
    inputs = np.ascontiguousarray(dataset.inputs)
    labels = np.ascontiguousarray(dataset.labels)
    digest.update(str(inputs.shape).encode("utf-8"))
    digest.update(inputs.tobytes())
    digest.update(labels.tobytes())
    digest.update(str(loader.batch_size).encode("utf-8"))
    return digest.hexdigest()
