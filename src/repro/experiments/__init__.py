"""Experiment harness: one driver per table/figure of the FalVolt paper."""

from .config import (
    ExperimentConfig,
    PAPER_DATASETS,
    PAPER_FAULT_RATES,
    PAPER_THRESHOLD_GRID,
    default_config,
)
from .baseline import PreparedBaseline, build_loaders, clear_baseline_cache, prepare_baseline
from .reporting import format_series, format_table
from .motivational import run_fig2_threshold_grid
from .mitigation import (
    RetrainCell,
    check_retrain_options,
    retrain_cells,
    run_fig6_optimized_thresholds,
    run_fig7_mitigation_comparison,
)
from .convergence import convergence_speedup, run_fig8_convergence
from .headline import run_headline_claims
from .ablations import (
    ablate_accumulator_width,
    ablate_reset_mode,
    ablate_surrogate_gradient,
    ablate_threshold_granularity,
)
from .registry import EXPERIMENTS, ExperimentSpec, get_experiment, list_experiments
from .scenarios import (
    MITIGATIONS,
    SCENARIOS,
    SWEEPS,
    Scenario,
    get_scenario,
    list_scenarios,
    register_scenario,
    run_scenario,
    scenario_from_json,
)

__all__ = [
    "ExperimentConfig",
    "PAPER_DATASETS",
    "PAPER_FAULT_RATES",
    "PAPER_THRESHOLD_GRID",
    "default_config",
    "PreparedBaseline",
    "build_loaders",
    "clear_baseline_cache",
    "prepare_baseline",
    "format_series",
    "format_table",
    "run_fig2_threshold_grid",
    "run_fig6_optimized_thresholds",
    "run_fig7_mitigation_comparison",
    "RetrainCell",
    "check_retrain_options",
    "retrain_cells",
    "convergence_speedup",
    "run_fig8_convergence",
    "run_headline_claims",
    "ablate_accumulator_width",
    "ablate_reset_mode",
    "ablate_surrogate_gradient",
    "ablate_threshold_granularity",
    "EXPERIMENTS",
    "ExperimentSpec",
    "get_experiment",
    "list_experiments",
    "MITIGATIONS",
    "SCENARIOS",
    "SWEEPS",
    "Scenario",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    "run_scenario",
    "scenario_from_json",
]
