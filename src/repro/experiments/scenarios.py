"""Declarative scenario registry for fault-injection campaigns.

A :class:`Scenario` names one complete campaign configuration -- dataset x
sweep axis x fault model x mitigation -- as *data* (a frozen dataclass that
round-trips through a plain dict / JSON), so campaign workloads can be
shared, versioned and launched by name instead of by code::

    python -m repro campaign --scenario nmnist-transient-bernoulli

The registry ships the paper's datasets as first-class campaign workloads
(including the NMNIST and DVS-Gesture pipelines under transient fault
schedules) and validates configurations eagerly with explicit errors:
unknown keys, missing required fields and inconsistent combinations
(e.g. bypass mitigation of transient schedules) are rejected at
construction, not at evaluation time.

A scenario owns the sweep axes: :func:`run_scenario` is the one place that
maps an axis to its :mod:`repro.faults.analysis` sweep driver (the
``_SWEEP_AXES`` table).  The hand-launched ``repro campaign
bits|counts|sizes`` sweeps are unregistered scenarios run through it, so
they and the named scenarios build the same grids with the same seed
derivations and share cache keys.  Campaign options (``engine``,
``workers``, ``cache_dir``, ...) are not part of a scenario; they pass
through ``**runner_options`` to the
:class:`~repro.faults.campaign.CampaignRunner`, which validates them.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from ..faults.analysis import (sweep_array_sizes, sweep_bit_locations,
                               sweep_faulty_pe_count)
from ..faults.campaign import (FAULT_MODELS, _is_integer, _pairs,
                               check_runner_options, transient_param_problems)
from ..faults.fault_model import StuckAtType
from ..faults.injection import BYPASS_OF_TRANSIENT
from ..utils.rng import derive_seed
from .config import (PAPER_DATASETS, SCALES, ExperimentConfig, check_overrides,
                     default_config)

__all__ = [
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


class _SweepAxis(NamedTuple):
    tag: str                # seed-derivation tag, as in the Fig. 5 runners
    driver: Callable        # repro.faults.analysis sweep driver
    swept: Optional[str]    # Scenario field the axis sweeps through values
    grid: Callable          # (scenario, config) -> the driver's grid keywords


#: Sweep axis -> its driver.  The tags match ``repro run fig5a|b|c``, so a
#: scenario shares cache keys with a Fig. 5 run of the same grid.
_SWEEP_AXES: Dict[str, _SweepAxis] = {
    "bits": _SweepAxis("fig5a", sweep_bit_locations, "bit_position",
                       lambda scenario, config: dict(
                           rows=config.array_rows, cols=config.array_cols,
                           bit_positions=scenario.values,
                           stuck_types=(scenario.stuck_type,))),
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


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One named (dataset x sweep x fault model x mitigation) campaign.

    Required fields: ``name``, ``dataset``, ``sweep`` and ``values`` (the
    swept bit positions, faulty-PE counts or array sizes).  Everything else
    defaults to the matching sweep driver's defaults; ``num_faulty`` and
    ``bit_position`` apply to the axes that do not sweep them.  ``fault_params``
    configures the transient schedule process; for transient scenarios a
    missing ``num_steps`` resolves to the dataset config's ``time_steps``
    when the grid is built.  ``config_overrides`` are forwarded to
    :func:`repro.experiments.default_config` (e.g. smaller
    ``baseline_epochs`` for smoke runs).
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
    seed: Optional[int] = None
    config_overrides: Tuple[Tuple[str, object], ...] = ()

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
        for name in ("num_faulty", "bit_position", "seed"):
            if getattr(self, name) is not None and not _is_integer(getattr(self, name)):
                problems.append(f"'{name}' must be an integer when given")
        if _is_integer(self.num_faulty) and self.num_faulty <= 0:
            problems.append("'num_faulty' must be positive when given")
        if not isinstance(self.description, str):
            problems.append("'description' must be a string")
        try:
            object.__setattr__(
                self, "stuck_type",
                StuckAtType.from_value(self.stuck_type).short_name)
        except ValueError as exc:
            problems.append(str(exc))
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
        normalized = _pairs(self.config_overrides, "config_overrides", problems)
        object.__setattr__(self, "config_overrides", tuple(
            check_overrides(dict(normalized), problems).items()))
        if problems:
            raise ValueError(
                f"invalid scenario '{self.name}': " + "; ".join(problems))

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, payload: dict) -> "Scenario":
        """Build a scenario from a plain dict, rejecting malformed input.

        All structural problems -- a non-dict payload, unknown keys,
        missing required fields -- are collected into one ``ValueError``
        so a hand-edited JSON scenario fails with the full list at once.
        """

        if not isinstance(payload, dict):
            raise ValueError(
                f"scenario payload must be a JSON object, "
                f"got {type(payload).__name__}")
        known = tuple(field.name for field in dataclasses.fields(cls))
        required = ("name", "dataset", "sweep", "values")
        problems: List[str] = []
        unknown = sorted(key for key in payload if key not in known)
        if unknown:
            problems.append(f"unknown key(s) {unknown}; options: {known}")
        missing = [key for key in required if key not in payload]
        if missing:
            problems.append(f"missing required field(s) {missing}")
        if problems:
            name = payload.get("name", "<unnamed>")
            raise ValueError(f"invalid scenario '{name}': " + "; ".join(problems))
        return cls(**payload)

    def to_dict(self) -> dict:
        """JSON-stable representation; ``from_dict`` round-trips it."""

        payload = dataclasses.asdict(self)
        payload["values"] = list(self.values)
        payload["fault_params"] = dict(self.fault_params)
        payload["config_overrides"] = dict(self.config_overrides)
        return payload

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    # ------------------------------------------------------------------
    def build_config(self, **overrides) -> ExperimentConfig:
        """Experiment config of this scenario (scenario overrides first)."""

        merged = dict(self.config_overrides)
        if self.seed is not None:
            merged["seed"] = int(self.seed)
        merged.update(overrides)
        return default_config(self.dataset, scale=self.scale, **merged)

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
SCENARIOS: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario, *, replace: bool = False) -> Scenario:
    """Add ``scenario`` to the registry (``replace=False`` forbids clobbering)."""

    if not replace and scenario.name in SCENARIOS:
        raise ValueError(f"scenario '{scenario.name}' is already registered")
    SCENARIOS[scenario.name] = scenario
    return scenario


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


def scenario_from_json(text: str) -> Scenario:
    """Parse a JSON object into a (validated, unregistered) scenario."""

    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"scenario JSON does not parse: {exc}") from None
    return Scenario.from_dict(payload)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_scenario(scenario: Union[Scenario, str], *,
                 config_overrides: Optional[dict] = None,
                 baseline=None, **runner_options) -> List[dict]:
    """Evaluate a scenario end-to-end and return its sweep records.

    Prepares (or reuses, via ``baseline``) the dataset's trained baseline,
    then runs the sweep driver of the scenario's axis with the scenario's
    grid, fault model, parameters and mitigation.  ``runner_options`` are
    the campaign options (``engine``, ``workers``, ``cache_dir``,
    ``shard``, ...), passed unchanged to
    :class:`~repro.faults.campaign.CampaignRunner`; they are validated
    first, so a bad option raises ``ValueError`` before any training.
    """

    from .baseline import prepare_baseline

    check_runner_options(**runner_options)
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    config = scenario.build_config(**(config_overrides or {}))
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
# The paper's permanent stuck-at model on its headline grid, plus the two
# extension fault models, and the NMNIST / DVS-Gesture pipelines as
# first-class transient campaign workloads.  All built-ins use the small
# (CI) scale; pass config_overrides / a different scale via a custom
# scenario for larger runs.
register_scenario(Scenario(
    name="mnist-stuck-at-counts",
    description="Paper's Fig. 5b grid point family: permanent datapath "
                "stuck-at faults vs faulty-PE count on MNIST.",
    dataset="mnist", sweep="counts", values=(0, 2, 4, 8), trials=4))
register_scenario(Scenario(
    name="mnist-stuck-at-bypass",
    description="Mitigated hardware: permanent stuck-at faults with the "
                "bypass multiplexer enabled.",
    dataset="mnist", sweep="counts", values=(0, 4, 8, 16), trials=4,
    mitigation="bypass"))
register_scenario(Scenario(
    name="mnist-sram-counts",
    description="Weight-SRAM stuck-at faults (corrupted quantised weight "
                "tiles) vs faulty-PE count on MNIST.",
    dataset="mnist", sweep="counts", values=(0, 2, 4, 8), trials=4,
    fault_model="sram"))
register_scenario(Scenario(
    name="mnist-transient-bernoulli",
    description="Transient (SEU) faults, Bernoulli-per-step rate process, "
                "vs faulty-PE count on MNIST.",
    dataset="mnist", sweep="counts", values=(0, 2, 4, 8), trials=4,
    fault_model="transient",
    fault_params=(("process", "bernoulli"), ("rate", 0.5))))
register_scenario(Scenario(
    name="nmnist-transient-bernoulli",
    description="NMNIST pipeline under transient (SEU) faults with a "
                "Bernoulli-per-step rate process.",
    dataset="nmnist", sweep="counts", values=(0, 2, 4, 8), trials=2,
    fault_model="transient",
    fault_params=(("process", "bernoulli"), ("rate", 0.5))))
register_scenario(Scenario(
    name="dvs-gesture-transient-burst",
    description="DVS-Gesture pipeline under transient (SEU) burst faults "
                "(contiguous live window per site).",
    dataset="dvs_gesture", sweep="counts", values=(0, 2, 4), trials=2,
    fault_model="transient",
    fault_params=(("process", "burst"), ("burst_length", 2))))
