"""Baseline model preparation and caching.

Every figure of the paper starts from the same pre-trained ("baseline")
PLIF-SNN per dataset.  :func:`prepare_baseline` trains that model once per
:class:`~repro.experiments.config.ExperimentConfig` and caches the trained
weights in-process, so running several experiments (or several benchmarks in
one pytest session) does not repeat the training.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from ..datasets import ArrayDataset, DataLoader, load_dataset
from ..snn import Adam, SpikingClassifier, SurrogateGradient, Trainer, build_model_for_dataset
from ..utils.logging import get_logger
from ..utils.rng import derive_seed
from .config import ExperimentConfig

logger = get_logger("experiments.baseline")


@dataclasses.dataclass
class PreparedBaseline:
    """A trained baseline model plus everything needed to rerun experiments on it.

    ``model_factory()`` returns a *fresh* model loaded with the trained
    baseline weights, and ``fresh_train_loader()`` a fresh train loader, so
    each mitigation run starts from identical state and shuffle order.
    """

    config: ExperimentConfig
    state: Dict[str, np.ndarray]
    baseline_accuracy: float
    train_data: ArrayDataset
    test_loader: DataLoader

    @property
    def num_classes(self) -> int:
        return self.config.num_classes

    def model_factory(self) -> SpikingClassifier:
        model = build_model(self.config)
        model.load_state_dict(self.state)
        return model

    def fresh_train_loader(self) -> DataLoader:
        """A new train loader over the train data, seeded like the baseline's.

        A loader advances its shuffle RNG on every epoch it serves, so a
        retraining run handed a shared loader would depend on every run
        before it; each run takes a fresh loader instead.
        """

        return _train_loader(self.config, self.train_data)


_CACHE: Dict[ExperimentConfig, PreparedBaseline] = {}


def clear_baseline_cache() -> None:
    """Drop all cached baselines (used by the test-suite)."""

    _CACHE.clear()


def build_loaders(config: ExperimentConfig):
    """Create (train_loader, test_loader) for ``config``."""

    train, test = load_dataset(
        config.dataset, num_train=config.num_train, num_test=config.num_test,
        image_size=config.image_size, seed=derive_seed(config.seed, "data"),
        **config.dataset_options())
    test_loader = DataLoader(test, batch_size=min(config.num_test, 4 * config.batch_size))
    return _train_loader(config, train), test_loader


def _train_loader(config: ExperimentConfig, train) -> DataLoader:
    return DataLoader(train, batch_size=config.batch_size, shuffle=True,
                      seed=derive_seed(config.seed, "loader"))


def build_model(config: ExperimentConfig,
                surrogate: Optional[SurrogateGradient] = None) -> SpikingClassifier:
    """The untrained dataset model ``config`` describes (seeded by ``config.seed``)."""

    model, _ = build_model_for_dataset(
        config.dataset, surrogate=surrogate, channels=config.channels,
        hidden_units=config.hidden_units, time_steps=config.time_steps,
        seed=config.seed)
    return model


def train_model(config: ExperimentConfig, model: SpikingClassifier,
                train: ArrayDataset, test_loader: DataLoader, epochs: int) -> float:
    """Train ``model`` with the baseline recipe; returns its test accuracy.

    The recipe is Adam at ``config.baseline_lr`` for ``epochs`` epochs over
    a fresh train loader on ``train`` (the baseline's shuffle order, whatever
    ran before), then one test-set pass.
    """

    trainer = Trainer(model, Adam(model.parameters(), lr=config.baseline_lr),
                      num_classes=config.num_classes)
    trainer.fit(_train_loader(config, train), epochs=epochs)
    return trainer.evaluate(test_loader)


def prepare_baseline(config: ExperimentConfig, use_cache: bool = True) -> PreparedBaseline:
    """Train (or fetch from cache) the baseline model for ``config``."""

    if use_cache and config in _CACHE:
        return _CACHE[config]

    train_loader, test_loader = build_loaders(config)
    model = build_model(config)
    baseline_accuracy = train_model(config, model, train_loader.dataset, test_loader,
                                    config.baseline_epochs)
    logger.info("baseline %s accuracy %.3f after %d epochs",
                config.dataset, baseline_accuracy, config.baseline_epochs)

    prepared = PreparedBaseline(
        config=config,
        state=model.state_dict(),
        baseline_accuracy=baseline_accuracy,
        train_data=train_loader.dataset,
        test_loader=test_loader,
    )
    if use_cache:
        _CACHE[config] = prepared
    return prepared
