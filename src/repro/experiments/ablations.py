"""Ablation studies on the design choices called out in DESIGN.md.

These are not figures from the paper; they probe the knobs the reproduction
had to choose and quantify how much each one matters:

* surrogate gradient family (triangle per Eq. 2, ATan, sigmoid),
* per-layer vs a single global learnable threshold in FalVolt,
* hard vs soft membrane reset,
* fixed-point accumulator width of the systolic array.

The threshold ablation retrains through the mitigation experiments' one
cell runner (:func:`repro.experiments.mitigation.retrain_cells`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..faults import fault_map_from_rate, evaluate_with_faults
from ..snn import get_surrogate
from ..systolic import FixedPointFormat
from ..utils.rng import derive_seed
from .baseline import build_loaders, build_model, prepare_baseline, train_model
from .config import ExperimentConfig, default_config
from .mitigation import RetrainCell, retrain_cells


def ablate_surrogate_gradient(config: Optional[ExperimentConfig] = None,
                              dataset: str = "mnist",
                              surrogates: Sequence[str] = ("triangle", "atan", "sigmoid"),
                              epochs: Optional[int] = None) -> List[dict]:
    """Baseline-training accuracy for each surrogate gradient family.

    Each variant trains from the same initial weights on a fresh train
    loader, so the variants differ only in their surrogate.
    """

    config = config or default_config(dataset)
    epochs = epochs if epochs is not None else config.baseline_epochs
    train_loader, test_loader = build_loaders(config)
    return [{
        "dataset": config.dataset,
        "surrogate": name,
        "epochs": epochs,
        "accuracy": train_model(config, build_model(config, get_surrogate(name)),
                                train_loader.dataset, test_loader, epochs),
    } for name in surrogates]


def ablate_threshold_granularity(config: Optional[ExperimentConfig] = None,
                                 dataset: str = "mnist",
                                 fault_rate: float = 0.30,
                                 retraining_epochs: Optional[int] = None,
                                 **options) -> List[dict]:
    """FalVolt with per-layer thresholds vs a single shared initial threshold.

    The "global" variant still learns one threshold per layer structurally,
    but every layer starts from the same value and the comparison measures
    whether the per-layer freedom (the paper's choice) is what recovers
    accuracy, versus simply lowering all thresholds together.  Both variants
    are FalVolt retraining cells on the same fault map, starting from the
    trained thresholds and from 0.7.  ``options`` go to
    :func:`~repro.experiments.mitigation.retrain_cells`.
    """

    config = config or default_config(dataset)
    variants = (("per-layer", None), ("shared-start-0.7", 0.7))
    cells = [RetrainCell(fault_rate, "falvolt", threshold=initial) for _, initial in variants]
    results = retrain_cells(prepare_baseline(config), cells,
                            retraining_epochs=retraining_epochs, **options)
    return [{
        "dataset": config.dataset,
        "granularity": granularity,
        "fault_rate": fault_rate,
        "accuracy": result["accuracy"],
        "thresholds": result["thresholds"],
    } for (granularity, _), result in zip(variants, results)]


def ablate_reset_mode(config: Optional[ExperimentConfig] = None,
                      dataset: str = "mnist",
                      epochs: Optional[int] = None) -> List[dict]:
    """Hard reset (to 0) vs soft reset (subtract threshold) baseline accuracy.

    Each variant trains from the same initial weights on a fresh train
    loader, so the variants differ only in their reset.
    """

    config = config or default_config(dataset)
    epochs = epochs if epochs is not None else config.baseline_epochs
    train_loader, test_loader = build_loaders(config)
    records: List[dict] = []
    for mode, v_reset in (("hard", 0.0), ("soft", None)):
        model = build_model(config)
        for node in model.spiking_layers():
            node.v_reset = v_reset
        records.append({
            "dataset": config.dataset,
            "reset_mode": mode,
            "epochs": epochs,
            "accuracy": train_model(config, model, train_loader.dataset, test_loader,
                                    epochs),
        })
    return records


def ablate_accumulator_width(config: Optional[ExperimentConfig] = None,
                             dataset: str = "mnist",
                             widths: Sequence[int] = (8, 12, 16, 24),
                             num_faulty: int = 8,
                             trials: int = 2) -> List[dict]:
    """Unmitigated fault impact as a function of the accumulator word length.

    Wider accumulators put the worst-case data bit at a larger magnitude, so
    the same stuck-at-1 fault produces a larger corruption.
    """

    config = config or default_config(dataset)
    baseline = prepare_baseline(config)
    model = baseline.model_factory()
    records: List[dict] = []
    for width in widths:
        fmt = FixedPointFormat(total_bits=width, frac_bits=min(8, width - 2))
        fault_map = fault_map_from_rate(
            config.array_rows, config.array_cols,
            num_faulty / (config.array_rows * config.array_cols),
            bit_position=fmt.magnitude_msb, stuck_type="sa1", fmt=fmt,
            seed=derive_seed(config.seed, "width", width))
        (accuracy,) = evaluate_with_faults(model, baseline.test_loader,
                                           [fault_map], fmt=fmt)
        records.append({
            "dataset": config.dataset,
            "total_bits": width,
            "num_faulty_pes": num_faulty,
            "accuracy": accuracy,
            "baseline_accuracy": baseline.baseline_accuracy,
        })
    return records
