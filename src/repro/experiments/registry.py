"""Registry mapping paper artifacts (figure ids) to experiment drivers.

Gives examples, benchmarks and documentation one authoritative list of
"everything the paper reports and how to regenerate it".
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Dict, List, Tuple

from ..faults import RUNNER_OPTIONS
from .ablations import (
    ablate_accumulator_width,
    ablate_reset_mode,
    ablate_surrogate_gradient,
    ablate_threshold_granularity,
)
from .convergence import run_fig8_convergence
from .headline import run_headline_claims
from .mitigation import (RETRAIN_OPTIONS, run_fig6_optimized_thresholds,
                         run_fig7_mitigation_comparison)
from .motivational import run_fig2_threshold_grid
from .scenarios import run_scenario


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """One reproducible artifact of the paper.

    ``runner(config, **options)`` returns the records; a Fig. 5 runner is
    :func:`~repro.experiments.scenarios.run_scenario` on the built-in
    scenario of the same id.  ``options`` names the campaign options the
    runner honours, one tuple
    per kind of work: a sweep honours :data:`repro.faults.RUNNER_OPTIONS`,
    a retraining grid :data:`~repro.experiments.mitigation.RETRAIN_OPTIONS`.
    ``repro run`` rejects a flag for any other.
    """

    experiment_id: str
    paper_artifact: str
    description: str
    runner: Callable[..., List[dict]]
    benchmark: str
    options: Tuple[str, ...] = ()


EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.experiment_id: spec for spec in [
        ExperimentSpec(
            "fig2", "Figure 2",
            "Motivational study: retraining accuracy at fixed threshold voltages "
            "(0.45/0.5/0.55/0.7) under 30% and 60% faulty PEs.",
            run_fig2_threshold_grid, "benchmarks/bench_fig2_motivational.py",
            RETRAIN_OPTIONS),
        ExperimentSpec(
            "fig5a", "Figure 5a",
            "Accuracy vs stuck-at fault bit location (sa0/sa1) in the PE accumulator.",
            functools.partial(run_scenario, "fig5a"),
            "benchmarks/bench_fig5a_bit_location.py",
            RUNNER_OPTIONS),
        ExperimentSpec(
            "fig5b", "Figure 5b",
            "Accuracy vs number of faulty PEs under worst-case high-order-bit faults.",
            functools.partial(run_scenario, "fig5b"),
            "benchmarks/bench_fig5b_faulty_pes.py",
            RUNNER_OPTIONS),
        ExperimentSpec(
            "fig5c", "Figure 5c",
            "Accuracy vs systolic array size at a fixed number of faulty PEs.",
            functools.partial(run_scenario, "fig5c"),
            "benchmarks/bench_fig5c_array_size.py",
            RUNNER_OPTIONS),
        ExperimentSpec(
            "fig6", "Figure 6",
            "Per-layer threshold voltages optimized by FalVolt at 10/30/60% fault rates.",
            run_fig6_optimized_thresholds, "benchmarks/bench_fig6_thresholds.py",
            RETRAIN_OPTIONS),
        ExperimentSpec(
            "fig7", "Figure 7",
            "Accuracy of FaP vs FaPIT vs FalVolt at 10/30/60% fault rates.",
            run_fig7_mitigation_comparison, "benchmarks/bench_fig7_mitigation.py",
            RETRAIN_OPTIONS),
        ExperimentSpec(
            "fig8", "Figure 8",
            "Accuracy vs retraining epochs for FaPIT and FalVolt at 30% faults.",
            run_fig8_convergence, "benchmarks/bench_fig8_convergence.py",
            RETRAIN_OPTIONS),
        ExperimentSpec(
            "headline", "Abstract / Section I",
            "The paper's three headline claims evaluated end to end.",
            run_headline_claims, "benchmarks/bench_headline_claims.py"),
        ExperimentSpec(
            "ablation-surrogate", "(ablation)",
            "Baseline accuracy per surrogate gradient family.",
            ablate_surrogate_gradient, "benchmarks/bench_ablations.py"),
        ExperimentSpec(
            "ablation-threshold", "(ablation)",
            "FalVolt with per-layer vs shared-start thresholds.",
            ablate_threshold_granularity, "benchmarks/bench_ablations.py",
            RETRAIN_OPTIONS),
        ExperimentSpec(
            "ablation-reset", "(ablation)",
            "Hard vs soft membrane reset.",
            ablate_reset_mode, "benchmarks/bench_ablations.py"),
        ExperimentSpec(
            "ablation-accumulator", "(ablation)",
            "Fault impact vs accumulator word length.",
            ablate_accumulator_width, "benchmarks/bench_ablations.py"),
    ]
}


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up an experiment by id (e.g. ``"fig7"``)."""

    if experiment_id not in EXPERIMENTS:
        raise KeyError(f"unknown experiment '{experiment_id}'; options: {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[experiment_id]


def list_experiments() -> List[ExperimentSpec]:
    """All registered experiments in a stable order."""

    return [EXPERIMENTS[key] for key in sorted(EXPERIMENTS)]
