"""Retraining cells and the mitigation experiments (paper Fig. 6 and Fig. 7).

Every mitigation result -- Figs. 2, 6, 7 and 8 and the threshold ablation --
is one operation repeated: prune a fresh copy of the baseline for one fault
map, retrain it with one method, record the result.  A :class:`RetrainCell`
names that operation, :func:`retrain_cells` is the one place that runs it,
and the figure drivers project its records.  Each cell is one
:class:`~repro.faults.WorkUnit` on the
:class:`~repro.faults.CampaignOrchestrator`, the runtime sweeps use: cells
are cached on disk keyed by the baseline weights and the cell, fan out
over ``workers`` processes, split across machines by ``shard`` and are
retried on failure.  So interrupted grids resume and figures share cells:
Fig. 6's FalVolt cells are Fig. 7's.
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import List, Optional, Sequence

from ..core import MITIGATIONS, get_mitigation
from ..faults import (CampaignOrchestrator, PendingShardError, WorkUnit,
                      fault_map_from_rate)
from ..faults.campaign import cache_path, unit_option_problems
from ..systolic import DEFAULT_ACCUMULATOR_FORMAT
from ..utils.hashing import state_token
from ..utils.rng import derive_seed
from .baseline import PreparedBaseline, prepare_baseline
from .config import ExperimentConfig, PAPER_FAULT_RATES, default_config


@dataclasses.dataclass(frozen=True)
class RetrainCell:
    """One retraining run: a fault rate, a method and its threshold.

    ``threshold`` is FaPIT's fixed V_th or FalVolt's starting V_th (``None``
    keeps the method's default); FaP retrains nothing and takes none.
    ``map_tag`` seeds the worst-case fault map, so cells with the same rate
    and tag prune the same PEs.
    """

    rate: float
    method: str
    threshold: Optional[float] = None
    map_tag: str = "mitigation_map"

    def __post_init__(self) -> None:
        if self.method not in MITIGATIONS:
            raise KeyError(f"unknown mitigation '{self.method}'; "
                           f"options: {sorted(MITIGATIONS)}")
        if self.method == "fap" and self.threshold is not None:
            raise ValueError("fap retrains nothing, so it takes no threshold")


def _fault_map(config: ExperimentConfig, cell: RetrainCell):
    """Worst-case (high-order-bit stuck-at-1) fault map covering the cell's rate."""

    return fault_map_from_rate(
        config.array_rows, config.array_cols, cell.rate,
        bit_position=DEFAULT_ACCUMULATOR_FORMAT.magnitude_msb, stuck_type="sa1",
        seed=derive_seed(config.seed, cell.map_tag, int(cell.rate * 1000)))


def _cell_unit(ordinal: int, cell: RetrainCell, *, baseline: PreparedBaseline,
               epochs: int, baseline_token: str, cache_dir) -> WorkUnit:
    """The work unit that retrains a fresh baseline copy for one cell.

    The run gets a fresh model and a fresh train loader, so its record
    depends on the cell alone -- not on which cells ran before it.
    """

    config = baseline.config

    def compute() -> dict:
        kwargs = {}
        if cell.method != "fap":
            kwargs = {"retraining_epochs": epochs, "learning_rate": config.retrain_lr}
        if cell.threshold is not None:
            key = "fixed_threshold" if cell.method == "fapit" else "initial_threshold"
            kwargs[key] = float(cell.threshold)
        result = get_mitigation(cell.method, **kwargs).run(
            baseline.model_factory(), _fault_map(config, cell),
            baseline.fresh_train_loader(), baseline.test_loader,
            num_classes=baseline.num_classes,
            baseline_accuracy=baseline.baseline_accuracy)
        return {**result.as_dict(), "dataset": config.dataset, "rate": float(cell.rate)}

    payload = {
        "baseline": baseline_token,
        "dataset": config.dataset,
        "seed": config.seed,
        "cell": dataclasses.asdict(cell),
        # The fault map covers the configured array.
        "array": [config.array_rows, config.array_cols],
        "retraining_epochs": epochs,
        "retrain_lr": config.retrain_lr,
    }
    return WorkUnit(ordinal=ordinal, compute=compute,
                    path=cache_path(cache_dir, payload),
                    required_keys=("accuracy", "thresholds", "history"),
                    tags=(("method", cell.method), ("rate", float(cell.rate))))


def retrain_cells(baseline: PreparedBaseline, cells: Sequence[RetrainCell], *,
                  retraining_epochs: Optional[int] = None, workers: int = 1,
                  cache_dir=None, shard=None, unit_timeout: Optional[float] = None,
                  progress=None) -> List[dict]:
    """Run every cell on ``baseline``; one record per cell, in cell order.

    A record is :meth:`repro.core.MitigationResult.as_dict` (accuracies,
    final thresholds, per-epoch history, map fault rate) plus the dataset
    and the cell's nominal ``rate``.  ``retraining_epochs`` defaults to the
    config's schedule.  The rest are campaign options
    (:func:`check_retrain_options` validates them), with the meaning they
    have for a sweep: ``workers`` processes pull cells from
    the orchestrator's queue, ``cache_dir`` caches finished cells keyed by
    the baseline weights, ``shard`` runs one round-robin share of the cells
    (a grid other shards have not finished raises
    :class:`~repro.faults.PendingShardError`), ``unit_timeout`` is the
    watchdog's per-cell deadline and ``progress`` receives unit events.
    """

    options = check_retrain_options(workers=workers, cache_dir=cache_dir,
                                    shard=shard, unit_timeout=unit_timeout)
    epochs = (baseline.config.retrain_epochs if retraining_epochs is None
              else retraining_epochs)
    token = state_token(baseline.state)
    units = [_cell_unit(ordinal, cell, baseline=baseline, epochs=epochs,
                        baseline_token=token, cache_dir=cache_dir)
             for ordinal, cell in enumerate(cells)]
    result = CampaignOrchestrator(workers=workers, shard=options["shard"],
                                  unit_timeout=unit_timeout,
                                  progress=progress).run(units)
    if not result.complete:
        raise PendingShardError(result.pending, result.report)
    return result.records


#: The campaign options a retraining grid honours: :func:`retrain_cells`'s
#: keywords after ``retraining_epochs``, read off its signature.
RETRAIN_OPTIONS = tuple(inspect.signature(retrain_cells).parameters)[3:]


def check_retrain_options(**options) -> dict:
    """Validate a retraining grid's campaign options; return all of them.

    ``options`` are any of :data:`RETRAIN_OPTIONS`; the rest take
    :func:`retrain_cells`' defaults.  An unknown option and every
    :func:`~repro.faults.campaign.unit_option_problems` problem are
    collected into one ``ValueError``; ``shard`` comes back as a
    ``ShardSpec``.  Cells retrain through autograd, so no fused-engine
    setting is consulted.
    """

    parameters = inspect.signature(retrain_cells).parameters
    values = {name: options.get(name, parameters[name].default)
              for name in RETRAIN_OPTIONS}
    problems = [f"unknown option '{name}'" for name in options
                if name not in values]
    problems += unit_option_problems(values)
    if problems:
        raise ValueError("invalid campaign options: " + "; ".join(problems))
    return values


def run_fig7_mitigation_comparison(config: Optional[ExperimentConfig] = None,
                                   dataset: str = "mnist",
                                   fault_rates: Sequence[float] = PAPER_FAULT_RATES,
                                   methods: Sequence[str] = ("fap", "fapit", "falvolt"),
                                   retraining_epochs: Optional[int] = None,
                                   **options) -> List[dict]:
    """Accuracy of each mitigation method at each fault rate (Fig. 7).

    One retraining cell per (rate, method); ``options``
    (:data:`RETRAIN_OPTIONS`) go to :func:`retrain_cells`.
    """

    config = config or default_config(dataset)
    cells = [RetrainCell(rate, method) for rate in fault_rates for method in methods]
    records = retrain_cells(prepare_baseline(config), cells,
                            retraining_epochs=retraining_epochs, **options)
    columns = ("method", "accuracy", "baseline_accuracy", "accuracy_drop",
               "pruned_fraction", "retraining_epochs")
    return [{"dataset": record["dataset"], "fault_rate": record["rate"],
             **{key: record[key] for key in columns}} for record in records]


def run_fig6_optimized_thresholds(config: Optional[ExperimentConfig] = None,
                                  dataset: str = "mnist",
                                  fault_rates: Sequence[float] = PAPER_FAULT_RATES,
                                  retraining_epochs: Optional[int] = None,
                                  **options) -> List[dict]:
    """Per-layer threshold voltages returned by FalVolt (Fig. 6).

    One record per (fault rate, layer) with the optimized threshold voltage.
    The FalVolt cells are Fig. 7's, so a shared ``cache_dir`` serves them;
    ``options`` (:data:`RETRAIN_OPTIONS`) go to :func:`retrain_cells`.
    """

    config = config or default_config(dataset)
    cells = [RetrainCell(rate, "falvolt") for rate in fault_rates]
    records = retrain_cells(prepare_baseline(config), cells,
                            retraining_epochs=retraining_epochs, **options)
    return [{
        "dataset": record["dataset"],
        "fault_rate": record["rate"],
        "layer": layer,
        "threshold_voltage": float(threshold),
        "accuracy": record["accuracy"],
    } for record in records for layer, threshold in record["thresholds"].items()]
