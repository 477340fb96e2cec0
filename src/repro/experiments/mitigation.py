"""Fault-mitigation experiments (paper Fig. 6 and Fig. 7).

``run_fig7_mitigation_comparison`` applies FaP, FaPIT and FalVolt to the
same fault maps at the paper's fault rates (10 %, 30 %, 60 %) and records
the recovered accuracy.  ``run_fig6_optimized_thresholds`` extracts the
per-layer threshold voltages that FalVolt converged to, which is exactly
what the paper's Fig. 6 reports.

Every (fault rate, method) cell is an independent retraining run, so both
drivers execute their grids through the campaign engine's helpers:
:func:`repro.faults.campaign.map_grid` fans cells out over the
orchestrator's crash-tolerant work-stealing pool (a cell that raises or
loses its worker is retried once on another worker), and
:func:`repro.faults.campaign.cached_record` provides on-disk caching keyed
by the baseline weights and the grid cell, so interrupted grids resume.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence

from ..core import MITIGATIONS, get_mitigation
from ..faults import cached_record, fault_map_from_rate, map_grid
from ..faults.campaign import state_token
from ..systolic import DEFAULT_ACCUMULATOR_FORMAT
from ..utils.rng import derive_seed
from .baseline import PreparedBaseline, prepare_baseline
from .config import ExperimentConfig, PAPER_FAULT_RATES, default_config


def _fault_map_for_rate(config: ExperimentConfig, rate: float):
    """Worst-case (high-order-bit stuck-at-1) fault map covering ``rate`` of the PEs."""

    return fault_map_from_rate(
        config.array_rows, config.array_cols, rate,
        bit_position=DEFAULT_ACCUMULATOR_FORMAT.magnitude_msb, stuck_type="sa1",
        seed=derive_seed(config.seed, "mitigation_map", int(rate * 1000)))


def _mitigation_kwargs(method: str, config: ExperimentConfig,
                       retraining_epochs: Optional[int]) -> dict:
    epochs = config.retrain_epochs if retraining_epochs is None else retraining_epochs
    if method == "fap":
        return {}
    return {"retraining_epochs": epochs, "learning_rate": config.retrain_lr}


def run_mitigation(method: str, baseline: PreparedBaseline, fault_map,
                   retraining_epochs: Optional[int] = None):
    """Run one mitigation method on a fresh copy of the baseline model.

    The run also gets a fresh train loader, so its result depends on the
    cell alone -- not on which cells ran before it in this process.
    """

    config = baseline.config
    mitigation = get_mitigation(method, **_mitigation_kwargs(method, config, retraining_epochs))
    model = baseline.model_factory()
    return mitigation.run(model, fault_map, baseline.fresh_train_loader(),
                          baseline.test_loader,
                          num_classes=baseline.num_classes,
                          baseline_accuracy=baseline.baseline_accuracy)


def _fig7_cell(cell, *, config: ExperimentConfig, baseline: PreparedBaseline,
               retraining_epochs: Optional[int], baseline_token: str,
               cache_dir) -> dict:
    """One (fault rate, method) cell of the Fig. 7 grid, through the cache."""

    rate, method = cell

    def compute() -> dict:
        fault_map = _fault_map_for_rate(config, rate)
        result = run_mitigation(method, baseline, fault_map,
                                retraining_epochs=retraining_epochs)
        return {
            "dataset": config.dataset,
            "fault_rate": float(rate),
            "method": result.method,
            "accuracy": result.accuracy,
            "baseline_accuracy": result.baseline_accuracy,
            "accuracy_drop": result.accuracy_drop,
            "pruned_fraction": result.pruned_fraction,
            "retraining_epochs": result.retraining_epochs,
        }

    payload = {
        "experiment": "fig7",
        "baseline": baseline_token,
        "dataset": config.dataset,
        "seed": config.seed,
        "fault_rate": float(rate),
        "method": method,
        # Everything below also determines the result: the fault map covers
        # the configured array, and a None override falls back to the
        # config's retraining schedule.
        "array": [config.array_rows, config.array_cols],
        "retraining_epochs": (config.retrain_epochs if retraining_epochs is None
                              else retraining_epochs),
        "retrain_lr": config.retrain_lr,
        # Cells retrain on a fresh train loader; records cached before that
        # depended on the cell order.
        "train_loader": "per-cell",
    }
    return cached_record(cache_dir, payload, compute)


def run_fig7_mitigation_comparison(config: Optional[ExperimentConfig] = None,
                                   dataset: str = "mnist",
                                   fault_rates: Sequence[float] = PAPER_FAULT_RATES,
                                   methods: Sequence[str] = ("fap", "fapit", "falvolt"),
                                   retraining_epochs: Optional[int] = None,
                                   workers: int = 1,
                                   cache_dir=None) -> List[dict]:
    """Accuracy of each mitigation method at each fault rate (Fig. 7).

    Each (rate, method) cell retrains independently, so the grid maps onto
    the campaign helpers: ``workers`` forks one process per cell and
    ``cache_dir`` caches finished cells keyed by the baseline weights.
    """

    config = config or default_config(dataset)
    for method in methods:
        if method not in MITIGATIONS:
            raise KeyError(f"unknown mitigation '{method}'")
    baseline = prepare_baseline(config)
    cells = [(rate, method) for rate in fault_rates for method in methods]
    evaluate = functools.partial(
        _fig7_cell, config=config, baseline=baseline,
        retraining_epochs=retraining_epochs,
        baseline_token=state_token(baseline.state), cache_dir=cache_dir)
    return map_grid(evaluate, cells, workers=workers)


def _fig6_rate(rate: float, *, config: ExperimentConfig, baseline: PreparedBaseline,
               retraining_epochs: Optional[int], baseline_token: str,
               cache_dir) -> List[dict]:
    """FalVolt threshold records for one fault rate, through the cache."""

    def compute() -> List[dict]:
        fault_map = _fault_map_for_rate(config, rate)
        result = run_mitigation("falvolt", baseline, fault_map,
                                retraining_epochs=retraining_epochs)
        return [{
            "dataset": config.dataset,
            "fault_rate": float(rate),
            "layer": layer,
            "threshold_voltage": float(threshold),
            "accuracy": result.accuracy,
        } for layer, threshold in result.thresholds.items()]

    payload = {
        "experiment": "fig6",
        "baseline": baseline_token,
        "dataset": config.dataset,
        "seed": config.seed,
        "fault_rate": float(rate),
        "array": [config.array_rows, config.array_cols],
        "retraining_epochs": (config.retrain_epochs if retraining_epochs is None
                              else retraining_epochs),
        "retrain_lr": config.retrain_lr,
        # Cells retrain on a fresh train loader; records cached before that
        # depended on the cell order.
        "train_loader": "per-cell",
    }
    return cached_record(cache_dir, payload, compute)


def run_fig6_optimized_thresholds(config: Optional[ExperimentConfig] = None,
                                  dataset: str = "mnist",
                                  fault_rates: Sequence[float] = PAPER_FAULT_RATES,
                                  retraining_epochs: Optional[int] = None,
                                  workers: int = 1,
                                  cache_dir=None) -> List[dict]:
    """Per-layer threshold voltages returned by FalVolt (Fig. 6).

    One record per (fault rate, layer) with the optimized threshold voltage.
    """

    config = config or default_config(dataset)
    baseline = prepare_baseline(config)
    evaluate = functools.partial(
        _fig6_rate, config=config, baseline=baseline,
        retraining_epochs=retraining_epochs,
        baseline_token=state_token(baseline.state), cache_dir=cache_dir)
    groups = map_grid(evaluate, list(fault_rates), workers=workers)
    return [record for group in groups for record in group]
