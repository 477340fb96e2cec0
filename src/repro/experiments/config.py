"""Experiment configuration shared by all figure-reproduction drivers.

A single :class:`ExperimentConfig` captures everything needed to prepare a
baseline model for one dataset: dataset synthesis parameters, network size,
baseline training schedule, retraining schedule and the systolic array
dimensions used for fault injection.

Two preset scales are provided:

* ``"small"`` (default) -- the laptop/CI scale used by the test-suite and
  the benchmark harness.  Networks reach their baseline accuracy in a few
  seconds per dataset.
* ``"full"`` -- a larger configuration (more samples, more channels, more
  epochs, a 64x64 array) for overnight runs that get closer to the paper's
  operating point.  The experiment code is identical; only this config
  changes.

The paper's 256x256 array is scaled down together with the networks: the
reproduction's layers are ~100x smaller than the paper's, so a 32x32 array
preserves the *ratio* of workload size to array size (and therefore the
reuse behaviour that drives fault sensitivity).  See EXPERIMENTS.md.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from typing import Dict, List, Tuple

from ..faults.campaign import _is_integer, _pairs


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """All knobs for one dataset's experiments."""

    dataset: str = "mnist"
    # Dataset synthesis
    num_train: int = 240
    num_test: int = 80
    image_size: int = 16
    dataset_kwargs: Tuple[Tuple[str, object], ...] = ()
    # Network
    channels: int = 8
    hidden_units: int = 32
    time_steps: int = 4
    # Baseline training
    batch_size: int = 20
    baseline_epochs: int = 10
    baseline_lr: float = 2e-2
    # Fault-aware retraining
    retrain_epochs: int = 6
    retrain_lr: float = 1e-2
    # Systolic array used for fault injection
    array_rows: int = 32
    array_cols: int = 32
    # Reproducibility
    seed: int = 7

    @property
    def num_classes(self) -> int:
        return 11 if self.dataset == "dvs_gesture" else 10

    def dataset_options(self) -> Dict[str, object]:
        """Extra keyword arguments forwarded to the dataset generator."""

        return dict(self.dataset_kwargs)

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        """Return a copy with the given fields replaced."""

        return dataclasses.replace(self, **overrides)


_SMALL_PRESETS: Dict[str, ExperimentConfig] = {
    "mnist": ExperimentConfig(
        dataset="mnist", num_train=240, num_test=80, time_steps=4,
        dataset_kwargs=(("max_shift", 1), ("noise_std", 0.05)),
        baseline_epochs=10, retrain_epochs=6),
    "nmnist": ExperimentConfig(
        dataset="nmnist", num_train=240, num_test=80, time_steps=4,
        baseline_epochs=10, retrain_epochs=6),
    "dvs_gesture": ExperimentConfig(
        dataset="dvs_gesture", num_train=264, num_test=88, time_steps=6,
        baseline_epochs=14, retrain_epochs=8, batch_size=22),
}

_FULL_PRESETS: Dict[str, ExperimentConfig] = {
    "mnist": ExperimentConfig(
        dataset="mnist", num_train=1000, num_test=300, channels=16, hidden_units=64,
        time_steps=6, baseline_epochs=20, retrain_epochs=15,
        dataset_kwargs=(("max_shift", 2), ("noise_std", 0.08)),
        array_rows=64, array_cols=64),
    "nmnist": ExperimentConfig(
        dataset="nmnist", num_train=1000, num_test=300, channels=16, hidden_units=64,
        time_steps=6, baseline_epochs=20, retrain_epochs=15,
        array_rows=64, array_cols=64),
    "dvs_gesture": ExperimentConfig(
        dataset="dvs_gesture", num_train=1100, num_test=330, channels=16, hidden_units=64,
        time_steps=8, baseline_epochs=30, retrain_epochs=20, batch_size=22,
        array_rows=64, array_cols=64),
}

SCALES = {"small": _SMALL_PRESETS, "full": _FULL_PRESETS}

#: Fault rates used by the paper's mitigation experiments (Figs. 6-7).
PAPER_FAULT_RATES = (0.10, 0.30, 0.60)

#: Candidate thresholds of the motivational study (Fig. 2).
PAPER_THRESHOLD_GRID = (0.45, 0.5, 0.55, 0.7)

#: Datasets evaluated in the paper.
PAPER_DATASETS = ("mnist", "nmnist", "dvs_gesture")


def check_overrides(overrides: Dict[str, object], problems: List[str]
                    ) -> Dict[str, object]:
    """``overrides`` as the :class:`ExperimentConfig` fields hold them.

    An unknown field, and a value that does not suit the type of its
    field's default, add to ``problems``.  A pairs field turns into sorted
    pairs, so the config stays hashable (the baseline cache is keyed by it).
    The dataset is :func:`default_config`'s own argument, not an override.
    """

    known = tuple(field.name for field in dataclasses.fields(ExperimentConfig)
                  if field.name != "dataset")
    unknown = [name for name in overrides if name not in known]
    if unknown:
        problems.append(f"unknown config override(s) {unknown}; "
                        f"options: {known}")
    checked = dict(overrides)
    for name, value in overrides.items():
        if name not in known:
            continue
        default = getattr(ExperimentConfig, name)
        if isinstance(default, int):
            low = 0 if name == "seed" or name.endswith("_epochs") else 1
            if not (_is_integer(value) and value >= low):
                kind = "non-negative" if low == 0 else "positive"
                problems.append(
                    f"'{name}' override must be a {kind} integer, got {value!r}")
        elif isinstance(default, float):
            if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
                    and 0 < value < math.inf):
                problems.append(f"'{name}' override must be a positive finite "
                                f"number, got {value!r}")
        else:
            checked[name] = _pairs(value, name, problems)
    return checked


def default_config(dataset: str, scale: str = "small", **overrides) -> ExperimentConfig:
    """Return the preset config for ``dataset`` at ``scale``, with overrides applied.

    Every problem with the overrides (:func:`check_overrides`) is collected
    into one ``ValueError``.
    """

    problems: List[str] = []
    overrides = check_overrides(overrides, problems)
    if problems:
        raise ValueError("invalid config overrides: " + "; ".join(problems))
    if scale not in SCALES:
        raise KeyError(f"unknown scale '{scale}'; options: {sorted(SCALES)}")
    presets = SCALES[scale]
    key = dataset.lower()
    if key not in presets:
        raise KeyError(f"unknown dataset '{dataset}'; options: {sorted(presets)}")
    config = presets[key]
    return config.with_overrides(**overrides) if overrides else config
