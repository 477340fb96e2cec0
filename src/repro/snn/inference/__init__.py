"""Fused no-autograd inference subsystem for trained spiking classifiers.

A trained :class:`~repro.snn.network.SpikingClassifier` is *lowered* into a
flat :class:`~repro.snn.inference.plan.InferencePlan` of pure-numpy op
specs, which the engines execute with preallocated state buffers, in-place
membrane updates and a single charge->fire->reset pass per spiking layer
per time step -- no autograd graph construction.

* :class:`FusedInferenceEngine` -- fault-free evaluation, bit-identical
  to the autograd forward, with per-layer spike counts
  (:func:`measure_firing_rates`).
* :class:`FusedFaultEngine` -- multi-fault-map evaluation with clean-prefix
  sharing: each fault map forks off the shared clean lane at the first
  affine layer its faults actually corrupt.

The engines execute every op on the numpy kernels of
:mod:`repro.snn.inference.backends.ops_numpy`.

See the README's "Fused inference engine" section for the architecture and
the bit-identity guarantees.
"""

from .engine import FusedFaultEngine, FusedInferenceEngine, activity_drop, measure_firing_rates
from .plan_cache import PlanCache, default_plan_cache
from .plan import (
    AffineSpec,
    BatchNormSpec,
    FlattenSpec,
    InferencePlan,
    LoweringError,
    NeuronSpec,
    PlanBuilder,
    PoolSpec,
    lower_plan,
)

__all__ = [
    "AffineSpec",
    "BatchNormSpec",
    "FlattenSpec",
    "FusedFaultEngine",
    "FusedInferenceEngine",
    "InferencePlan",
    "LoweringError",
    "NeuronSpec",
    "PlanBuilder",
    "PlanCache",
    "PoolSpec",
    "activity_drop",
    "default_plan_cache",
    "lower_plan",
    "measure_firing_rates",
]
