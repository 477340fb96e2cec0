"""PLIF-SNN architecture builders following the paper's network descriptions.

For MNIST and N-MNIST the classifier is (Section V-A): a spike-encoding
convolutional block, two repetitions of {convolution, batch normalisation,
spiking neurons, pooling}, and two repetitions of {dropout, fully connected,
spiking neurons}.  For DVS128 Gesture the convolutional block is repeated
five times.  Channel counts and input resolution are scaled down so the
networks train in seconds on a CPU with the numpy backend; the structure and
the layer labels used in Fig. 6 (Conv1..ConvN, FC1, FC2) are preserved.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Tuple

from ..utils.rng import derive_seed, get_rng
from .layers import AvgPool2d, BatchNorm2d, Conv2d, Dropout, Flatten, Linear, Sequential
from .neurons import PLIFNode
from .network import SpikingClassifier
from .surrogate import SurrogateGradient, Triangle


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    """Hyper-parameters for a PLIF-SNN classifier.

    The defaults are the scaled-down configuration used throughout the
    reproduction; ``channels`` / ``hidden_units`` / ``time_steps`` can be
    increased to approach the paper's full-size networks.
    """

    input_channels: int = 1
    input_size: int = 16
    num_classes: int = 10
    channels: int = 8
    hidden_units: int = 48
    conv_blocks: int = 2
    time_steps: int = 4
    dropout: float = 0.2
    init_threshold: float = 1.0
    # The PLIF paper initialises tau at 2.0, but that is tuned for long spike
    # trains (T >= 8).  At the scaled-down T=3..6 used here, a 0.5 leak factor
    # starves the membrane before it can reach threshold, leaving the deeper
    # layers silent at initialisation -- and the triangular surrogate (compact
    # support) then provides almost no gradient, so training stalls for the
    # first several epochs.  A gentler initial leak keeps every layer spiking
    # from the first step; tau remains learnable, so training is free to move
    # it afterwards.
    init_tau: float = 1.2
    seed: int = 0


def _plif(config: ModelConfig, surrogate: SurrogateGradient, label: Optional[str]) -> PLIFNode:
    return PLIFNode(
        init_tau=config.init_tau,
        v_threshold=config.init_threshold,
        surrogate=surrogate,
        layer_label=label,
    )


def build_plif_snn(config: ModelConfig,
                   surrogate: Optional[SurrogateGradient] = None) -> SpikingClassifier:
    """Build a PLIF-SNN classifier from a :class:`ModelConfig`.

    The layer stack is::

        [encoder conv + PLIF]
        conv_blocks x [conv + batch-norm + PLIF(ConvK) + (pool)]
        flatten
        [dropout + fc + PLIF(FC1)]
        [dropout + fc + PLIF(FC2)]

    Pooling halves the spatial size after each of the first blocks while the
    spatial size stays >= 2; later blocks keep the resolution, which is how a
    five-block DVS-Gesture network fits a 16x16 input.
    """

    surrogate = surrogate or Triangle()
    rng = get_rng(derive_seed(config.seed, "model"))
    layers = Sequential()

    # Spike-encoding block (Lee et al. 2020): learns the input spike code.
    # Batch normalisation keeps the membrane drive near unit variance so the
    # network spikes at initialisation (otherwise the triangular surrogate has
    # no support and training stalls).
    layers.append(Conv2d(config.input_channels, config.channels, kernel_size=3,
                         padding=1, rng=rng))
    layers.append(BatchNorm2d(config.channels))
    layers.append(_plif(config, surrogate, label=None))

    spatial = config.input_size
    for block in range(config.conv_blocks):
        layers.append(Conv2d(config.channels, config.channels, kernel_size=3,
                             padding=1, rng=rng))
        layers.append(BatchNorm2d(config.channels))
        layers.append(_plif(config, surrogate, label=f"Conv{block + 1}"))
        if spatial >= 4:
            layers.append(AvgPool2d(2))
            spatial //= 2

    layers.append(Flatten())
    flat_features = config.channels * spatial * spatial

    # The fully connected layers are fed by sparse spike trains and have no
    # batch normalisation (matching the paper's architecture), so their init
    # gain is raised to keep the membrane drive near the firing threshold.
    layers.append(Dropout(config.dropout, rng=rng))
    layers.append(Linear(flat_features, config.hidden_units, rng=rng, init_gain=1.5))
    layers.append(_plif(config, surrogate, label="FC1"))

    layers.append(Dropout(config.dropout, rng=rng))
    layers.append(Linear(config.hidden_units, config.num_classes, rng=rng, init_gain=1.5))
    layers.append(_plif(config, surrogate, label="FC2"))

    return SpikingClassifier(layers, time_steps=config.time_steps)


# ----------------------------------------------------------------------
# Per-dataset configurations (scaled-down counterparts of the paper's nets)
# ----------------------------------------------------------------------
def mnist_config(**overrides) -> ModelConfig:
    """Configuration for the (synthetic) MNIST classifier: 2 conv blocks."""

    defaults = dict(input_channels=1, input_size=16, num_classes=10,
                    conv_blocks=2, time_steps=4)
    defaults.update(overrides)
    return ModelConfig(**defaults)


def nmnist_config(**overrides) -> ModelConfig:
    """Configuration for the (synthetic) N-MNIST classifier: 2 conv blocks, 2-polarity input."""

    defaults = dict(input_channels=2, input_size=16, num_classes=10,
                    conv_blocks=2, time_steps=4)
    defaults.update(overrides)
    return ModelConfig(**defaults)


def dvs_gesture_config(**overrides) -> ModelConfig:
    """Configuration for the (synthetic) DVS128 Gesture classifier: 5 conv blocks, 11 classes."""

    defaults = dict(input_channels=2, input_size=16, num_classes=11,
                    conv_blocks=5, time_steps=6)
    defaults.update(overrides)
    return ModelConfig(**defaults)


DATASET_CONFIGS: Dict[str, Callable[..., ModelConfig]] = {
    "mnist": mnist_config,
    "nmnist": nmnist_config,
    "dvs_gesture": dvs_gesture_config,
}


def build_model_for_dataset(dataset: str, surrogate: Optional[SurrogateGradient] = None,
                            **overrides) -> Tuple[SpikingClassifier, ModelConfig]:
    """Build the paper's classifier for ``dataset`` (scaled down); returns (model, config)."""

    key = dataset.lower()
    if key not in DATASET_CONFIGS:
        raise KeyError(f"unknown dataset '{dataset}'; options: {sorted(DATASET_CONFIGS)}")
    config = DATASET_CONFIGS[key](**overrides)
    return build_plif_snn(config, surrogate=surrogate), config

