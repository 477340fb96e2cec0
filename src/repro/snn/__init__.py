"""Spiking neural network framework (PLIF neurons, surrogate-gradient BPTT).

This package is the software substrate the FalVolt paper trains on (PyTorch +
SpikingJelly in the original); here it is built from scratch on the
:mod:`repro.autograd` engine.
"""

from .module import Module, Parameter
from .surrogate import ATan, SigmoidSurrogate, SurrogateGradient, Triangle, get_surrogate
from .neurons import PLIFNode, MIN_THRESHOLD, spiking_nodes
from .layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    Sequential,
)
from .network import SpikingClassifier
from .loss import accuracy, rate_mse_loss
from .optim import Adam
from .training import Trainer, TrainingHistory, evaluate
from .models import (
    DATASET_CONFIGS,
    ModelConfig,
    build_model_for_dataset,
    build_plif_snn,
    dvs_gesture_config,
    mnist_config,
    nmnist_config,
)
from .inference import (
    FusedFaultEngine,
    FusedInferenceEngine,
    InferencePlan,
    LoweringError,
    activity_drop,
    lower_plan,
    measure_firing_rates,
)

__all__ = [
    "Module",
    "Parameter",
    "ATan",
    "SigmoidSurrogate",
    "SurrogateGradient",
    "Triangle",
    "get_surrogate",
    "PLIFNode",
    "MIN_THRESHOLD",
    "spiking_nodes",
    "AvgPool2d",
    "BatchNorm2d",
    "Conv2d",
    "Dropout",
    "Flatten",
    "Linear",
    "Sequential",
    "SpikingClassifier",
    "accuracy",
    "rate_mse_loss",
    "Adam",
    "Trainer",
    "TrainingHistory",
    "evaluate",
    "activity_drop",
    "measure_firing_rates",
    "DATASET_CONFIGS",
    "ModelConfig",
    "build_model_for_dataset",
    "build_plif_snn",
    "FusedFaultEngine",
    "FusedInferenceEngine",
    "InferencePlan",
    "LoweringError",
    "lower_plan",
    "dvs_gesture_config",
    "mnist_config",
    "nmnist_config",
]
