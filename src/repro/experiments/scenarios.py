"""Named scenarios: the fault-injection campaigns ``repro`` launches by name.

A :class:`Scenario` names one complete campaign grid -- dataset x sweep
axis x fault model x mitigation -- as a frozen dataclass::

    python -m repro campaign --scenario nmnist-transient-bernoulli

The built-ins (:data:`SCENARIOS`) include the NMNIST and DVS-Gesture
pipelines under transient fault schedules.  A scenario is validated
eagerly with every problem collected: unknown datasets, sweeps or fault
models, grid values no sweep can run and inconsistent combinations (e.g.
bypass mitigation of transient schedules) are rejected at construction.

A scenario owns the sweep axes: :func:`run_scenario` is the one place that
maps an axis to its :mod:`repro.faults.analysis` sweep driver (the
``_SWEEP_AXES`` table).  The paper's Fig. 5 grids are the built-in
scenarios ``fig5a``, ``fig5b`` and ``fig5c``, which ``repro run
fig5a|fig5b|fig5c`` runs; the hand-launched ``repro campaign
bits|counts|sizes`` sweeps are unregistered scenarios run through it, so
every entry point builds the same grids with the same seed derivations
and shares cache keys.  Campaign options (``engine``,
``workers``, ``cache_dir``, ...) are not part of a scenario; they pass
through ``**runner_options`` to the
:class:`~repro.faults.campaign.CampaignRunner`, which validates them.
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from ..faults.analysis import (sweep_array_sizes, sweep_bit_locations,
                               sweep_faulty_pe_count)
from ..faults.campaign import (FAULT_MODELS, _is_integer, _pairs,
                               check_runner_options, transient_param_problems)
from ..faults.fault_model import StuckAtType
from ..faults.injection import BYPASS_OF_TRANSIENT
from ..systolic import DEFAULT_ACCUMULATOR_FORMAT
from ..utils.rng import derive_seed
from .config import PAPER_DATASETS, SCALES, ExperimentConfig, default_config

__all__ = [
    "MITIGATIONS",
    "SCENARIOS",
    "SWEEPS",
    "Scenario",
    "get_scenario",
    "list_scenarios",
    "run_scenario",
]


class _SweepAxis(NamedTuple):
    tag: str                # seed-derivation tag: the axis's Fig. 5 panel
    driver: Callable        # repro.faults.analysis sweep driver
    swept: Optional[str]    # Scenario field the axis sweeps through values
    grid: Callable          # (scenario, config) -> the driver's grid keywords


#: ``stuck_type`` of a bits sweep over both polarities: every sa0 record,
#: then every sa1 record (Fig. 5a).
BOTH_POLARITIES = "both"

#: Sweep axis -> its driver.  Every scenario of an axis derives its map
#: seeds from the axis's tag, so any two runs of one grid share cache keys.
_SWEEP_AXES: Dict[str, _SweepAxis] = {
    "bits": _SweepAxis("fig5a", sweep_bit_locations, "bit_position",
                       lambda scenario, config: dict(
                           rows=config.array_rows, cols=config.array_cols,
                           bit_positions=scenario.values,
                           stuck_types=(("sa0", "sa1")
                                        if scenario.stuck_type == BOTH_POLARITIES
                                        else (scenario.stuck_type,)))),
    "counts": _SweepAxis("fig5b", sweep_faulty_pe_count, "num_faulty",
                         lambda scenario, config: dict(
                             rows=config.array_rows, cols=config.array_cols,
                             counts=scenario.values,
                             stuck_type=scenario.stuck_type)),
    "sizes": _SweepAxis("fig5c", sweep_array_sizes, None,
                        lambda scenario, config: dict(
                            sizes=scenario.values,
                            stuck_type=scenario.stuck_type)),
}

#: Sweep axes a scenario can select (the Fig. 5a/5b/5c grid shapes).
SWEEPS = tuple(_SWEEP_AXES)

#: Mitigation modes a scenario can request.
MITIGATIONS = ("none", "bypass")

#: Faulty PEs a sizes sweep places on each array when ``num_faulty`` is unset.
_SIZES_NUM_FAULTY = inspect.signature(sweep_array_sizes).parameters["num_faulty"].default


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One named (dataset x sweep x fault model x mitigation) campaign.

    Required fields: ``name``, ``dataset``, ``sweep`` and ``values`` (the
    swept bit positions, faulty-PE counts or array sizes).  Everything else
    defaults to the matching sweep driver's defaults; ``num_faulty`` and
    ``bit_position`` apply to the axes that do not sweep them.  ``fault_params``
    configures the transient schedule process; for transient scenarios a
    missing ``num_steps`` resolves to the dataset config's ``time_steps``
    when the grid is built.  A ``bits`` sweep's ``stuck_type`` may be
    ``"both"`` (:data:`BOTH_POLARITIES`).  The dataset config (array,
    seed, epochs, ...) comes from :meth:`build_config`, or is handed to
    :func:`run_scenario`.
    """

    name: str
    dataset: str
    sweep: str
    values: Tuple[int, ...]
    description: str = ""
    scale: str = "small"
    trials: int = 4
    num_faulty: Optional[int] = None
    bit_position: Optional[int] = None
    stuck_type: str = "sa1"
    fault_model: str = "stuck_at"
    fault_params: Tuple[Tuple[str, object], ...] = ()
    mitigation: str = "none"

    def __post_init__(self) -> None:
        problems: List[str] = []
        if not self.name or not isinstance(self.name, str):
            problems.append("'name' must be a non-empty string")
        if self.dataset not in PAPER_DATASETS:
            problems.append(
                f"unknown dataset '{self.dataset}'; options: {PAPER_DATASETS}")
        if not isinstance(self.scale, str) or self.scale not in SCALES:
            problems.append(
                f"unknown scale '{self.scale}'; options: {tuple(sorted(SCALES))}")
        if self.sweep not in SWEEPS:
            problems.append(f"unknown sweep '{self.sweep}'; options: {SWEEPS}")
        else:
            swept = _SWEEP_AXES[self.sweep].swept
            if swept is not None and getattr(self, swept) is not None:
                problems.append(
                    f"'{swept}' is what a '{self.sweep}' sweep varies; "
                    f"give its values in 'values'")
        values = self.values
        if (isinstance(values, (list, tuple)) and values
                and all(_is_integer(v) for v in values)):
            values = tuple(int(v) for v in values)
        else:
            problems.append("'values' must be a non-empty list of integers")
            values = ()
        object.__setattr__(self, "values", values)
        if not _is_integer(self.trials):
            problems.append("'trials' must be an integer")
        elif self.trials <= 0:
            problems.append("'trials' must be positive")
        for name in ("num_faulty", "bit_position"):
            if getattr(self, name) is not None and not _is_integer(getattr(self, name)):
                problems.append(f"'{name}' must be an integer when given")
        if _is_integer(self.num_faulty) and self.num_faulty <= 0:
            problems.append("'num_faulty' must be positive when given")
        fmt = DEFAULT_ACCUMULATOR_FORMAT
        bits = values if self.sweep == "bits" else (self.bit_position,)
        problems.extend(f"bit {bit} outside the {fmt.total_bits}-bit accumulator format"
                        for bit in bits if _is_integer(bit) and not 0 <= bit < fmt.total_bits)
        if self.sweep == "counts":
            problems.extend(f"faulty-PE count {count} must be non-negative"
                            for count in values if count < 0)
        elif self.sweep == "sizes":
            faulty = (self.num_faulty if _is_integer(self.num_faulty)
                      else _SIZES_NUM_FAULTY)
            problems.extend(f"array size {size} cannot hold {faulty} faulty PEs"
                            for size in values if size <= 0 or size * size < faulty)
        if not isinstance(self.description, str):
            problems.append("'description' must be a string")
        if self.stuck_type != BOTH_POLARITIES or self.sweep != "bits":
            try:
                object.__setattr__(
                    self, "stuck_type",
                    StuckAtType.from_value(self.stuck_type).short_name)
            except ValueError as exc:
                problems.append(f"{exc} (a 'bits' sweep also takes "
                                f"'{BOTH_POLARITIES}')")
        if self.fault_model not in FAULT_MODELS:
            problems.append(
                f"unknown fault model '{self.fault_model}'; "
                f"options: {FAULT_MODELS}")
        if self.mitigation not in MITIGATIONS:
            problems.append(
                f"unknown mitigation '{self.mitigation}'; "
                f"options: {MITIGATIONS}")
        if self.fault_model == "transient" and self.mitigation == "bypass":
            problems.append(BYPASS_OF_TRANSIENT)
        normalized = _pairs(self.fault_params, "fault_params", problems)
        if self.fault_model == "transient":
            problems.extend(transient_param_problems(dict(normalized),
                                                     need_steps=False))
        elif normalized:
            problems.append(
                "'fault_params' are only meaningful for transient scenarios")
        object.__setattr__(self, "fault_params", normalized)
        if problems:
            raise ValueError(
                f"invalid scenario '{self.name}': " + "; ".join(problems))

    def build_config(self, **overrides) -> ExperimentConfig:
        """Experiment config of this scenario's dataset and scale."""

        return default_config(self.dataset, scale=self.scale, **overrides)

    def check_grid(self, config: ExperimentConfig) -> None:
        """Raise ``ValueError`` if a swept count does not fit ``config``'s array."""

        rows, cols = config.array_rows, config.array_cols
        too_many = [count for count in self.values if count > rows * cols]
        if self.sweep == "counts" and too_many:
            raise ValueError(
                f"invalid scenario '{self.name}': faulty-PE count(s) "
                f"{too_many} do not fit the {rows}x{cols} array")

    def resolved_fault_params(self, config: ExperimentConfig) -> dict:
        """fault_params with scenario-level defaults resolved against ``config``."""

        params = dict(self.fault_params)
        if self.fault_model == "transient":
            params.setdefault("num_steps", int(config.time_steps))
        return params

    def describe(self) -> str:
        bits = [self.dataset, self.sweep, self.fault_model]
        if self.mitigation != "none":
            bits.append(f"mitigation={self.mitigation}")
        return f"{self.name} ({', '.join(bits)})"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario; unknown names list what is available."""

    try:
        return SCENARIOS[name]
    except KeyError:
        available = ", ".join(sorted(SCENARIOS))
        raise ValueError(
            f"unknown scenario '{name}'; available: {available}") from None


def list_scenarios() -> List[Scenario]:
    """All registered scenarios, sorted by name."""

    return [SCENARIOS[name] for name in sorted(SCENARIOS)]


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_scenario(scenario: Union[Scenario, str],
                 config: Optional[ExperimentConfig] = None, *,
                 baseline=None, **runner_options) -> List[dict]:
    """Evaluate a scenario end-to-end and return its sweep records.

    ``config`` (default: ``scenario.build_config()``) decides the dataset,
    the array, the seed and the trained baseline; the scenario decides the
    grid.  Prepares (or reuses, via ``baseline``) the config's trained
    baseline, then runs the sweep driver of the scenario's axis with the
    scenario's grid, fault model, parameters and mitigation.  ``runner_options`` are
    the campaign options (``engine``, ``workers``, ``cache_dir``,
    ``shard``, ...), passed unchanged to
    :class:`~repro.faults.campaign.CampaignRunner`.  The options, and the
    grid against the config's array, are validated first, so a bad option
    or grid value raises ``ValueError`` before any training.
    """

    from .baseline import prepare_baseline

    check_runner_options(**runner_options)
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if config is None:
        config = scenario.build_config()
    scenario.check_grid(config)
    if baseline is None:
        baseline = prepare_baseline(config)
    axis = _SWEEP_AXES[scenario.sweep]
    grid = axis.grid(scenario, config)
    for name in ("num_faulty", "bit_position"):
        if getattr(scenario, name) is not None:
            grid[name] = int(getattr(scenario, name))
    return axis.driver(
        baseline.model_factory(), baseline.test_loader,
        trials=int(scenario.trials), dataset=config.dataset,
        seed=derive_seed(config.seed, axis.tag),
        fault_model=scenario.fault_model,
        fault_params=scenario.resolved_fault_params(config),
        bypass=scenario.mitigation == "bypass", **grid, **runner_options)


# ----------------------------------------------------------------------
# Built-in scenarios
# ----------------------------------------------------------------------
# The paper's Fig. 5 grids (``repro run fig5a|fig5b|fig5c`` runs them on
# the config its --dataset, --scale and --seed give), the permanent
# stuck-at model on a smaller grid, the two extension fault models, and the
# NMNIST / DVS-Gesture pipelines as first-class transient campaign
# workloads.  All built-ins use the small (CI) scale; ``run_scenario(name,
# config)`` runs one on another config.
_TOP_BIT = DEFAULT_ACCUMULATOR_FORMAT.magnitude_msb
SCENARIOS: Dict[str, Scenario] = {scenario.name: scenario for scenario in (
    Scenario(
        name="fig5a",
        description="Paper's Fig. 5a: stuck-at-0 and stuck-at-1 faults at the "
                    "even accumulator bits and the magnitude MSB, 8 faulty PEs.",
        dataset="mnist", sweep="bits",
        values=tuple(sorted(set(range(0, _TOP_BIT + 1, 2)) | {_TOP_BIT})),
        trials=2, num_faulty=8, stuck_type=BOTH_POLARITIES),
    Scenario(
        name="fig5b",
        description="Paper's Fig. 5b: MSB stuck-at-1 faults vs faulty-PE count.",
        dataset="mnist", sweep="counts", values=(0, 2, 4, 8, 16, 32, 48, 64),
        trials=4),
    Scenario(
        name="fig5c",
        description="Paper's Fig. 5c: 4 faulty PEs vs systolic array size.",
        dataset="mnist", sweep="sizes", values=(4, 8, 16, 32, 64), trials=3,
        num_faulty=4),
    Scenario(
        name="mnist-stuck-at-counts",
        description="Paper's Fig. 5b grid point family: permanent datapath "
                    "stuck-at faults vs faulty-PE count on MNIST.",
        dataset="mnist", sweep="counts", values=(0, 2, 4, 8), trials=4),
    Scenario(
        name="mnist-stuck-at-bypass",
        description="Mitigated hardware: permanent stuck-at faults with the "
                    "bypass multiplexer enabled.",
        dataset="mnist", sweep="counts", values=(0, 4, 8, 16), trials=4,
        mitigation="bypass"),
    Scenario(
        name="mnist-sram-counts",
        description="Weight-SRAM stuck-at faults (corrupted quantised weight "
                    "tiles) vs faulty-PE count on MNIST.",
        dataset="mnist", sweep="counts", values=(0, 2, 4, 8), trials=4,
        fault_model="sram"),
    Scenario(
        name="mnist-transient-bernoulli",
        description="Transient (SEU) faults, Bernoulli-per-step rate process, "
                    "vs faulty-PE count on MNIST.",
        dataset="mnist", sweep="counts", values=(0, 2, 4, 8), trials=4,
        fault_model="transient",
        fault_params=(("process", "bernoulli"), ("rate", 0.5))),
    Scenario(
        name="nmnist-transient-bernoulli",
        description="NMNIST pipeline under transient (SEU) faults with a "
                    "Bernoulli-per-step rate process.",
        dataset="nmnist", sweep="counts", values=(0, 2, 4, 8), trials=2,
        fault_model="transient",
        fault_params=(("process", "bernoulli"), ("rate", 0.5))),
    Scenario(
        name="dvs-gesture-transient-burst",
        description="DVS-Gesture pipeline under transient (SEU) burst faults "
                    "(contiguous live window per site).",
        dataset="dvs_gesture", sweep="counts", values=(0, 2, 4), trials=2,
        fault_model="transient",
        fault_params=(("process", "burst"), ("burst_length", 2))),
)}
