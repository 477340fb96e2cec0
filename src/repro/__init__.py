"""Reproduction of "Improving Reliability of Spiking Neural Networks through
Fault Aware Threshold Voltage Optimization" (FalVolt, DATE 2023).

Subpackages
-----------
``repro.autograd``
    Reverse-mode autodiff engine on numpy.
``repro.snn``
    PLIF spiking neural network framework (surrogate-gradient BPTT).
``repro.systolic``
    Functional simulator of the weight-stationary systolic-array accelerator.
``repro.faults``
    Stuck-at fault models, fault maps, injectors and vulnerability sweeps.
``repro.core``
    The mitigation methods: FaP, FaPIT and FalVolt (the paper's contribution).
``repro.datasets``
    Synthetic stand-ins for MNIST, N-MNIST and DVS128 Gesture.
``repro.experiments``
    One driver per paper figure, plus ablations and reporting helpers.
"""

__version__ = "1.0.0"

from . import autograd, core, datasets, faults, snn, systolic, utils

__all__ = [
    "autograd",
    "core",
    "datasets",
    "faults",
    "snn",
    "systolic",
    "utils",
    "__version__",
]
