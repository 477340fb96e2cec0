"""The benchmark's workloads: what is set up, repeated and checked.

Every workload runs on the ``small`` preset of its dataset with fewer
baseline-training epochs (``BASELINE_EPOCHS``), so that three set-ups
and a measured window fit one benchmark run; the training code path is
the preset's.  The workload seed enters only as ``ExperimentConfig.seed``;
the program derives the data, the initial weights and the retraining
fault maps from it (the sweeps' fault grid is fixed, see ``GRID_SEED``).
All work is single-process and single-threaded:
``engine="fused"``, ``backend="numpy"``, ``lane_threads=1``,
``workers=1``, float64, no cache directory.

A workload object is driven by ``run.py`` in this order: ``config`` ->
(set-up: ``prepare_baseline``) -> ``start`` -> ``reference`` -> repeated
``rep`` + ``check``.  ``check`` returns how many operations (sweep points
or grid cells) a repetition attempted and how many failed their output
check.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from typing import Dict, List, Optional

import numpy as np

from repro import faults
from repro.core import get_mitigation
from repro.core.pruning import affine_layers, find_pruned_weight_indices
from repro.experiments import baseline as experiments_baseline
from repro.experiments.config import PAPER_FAULT_RATES, default_config
from repro.faults import analysis
from repro.systolic import DEFAULT_ACCUMULATOR_FORMAT
from repro.utils.rng import derive_seed

#: Baseline-training epochs (the presets use 10 for MNIST and N-MNIST, 14
#: for DVS-Gesture).
BASELINE_EPOCHS = 1

#: Seed of the sweeps' fault grid.  A sweep's cost depends on where its
#: faults fall (which layer each map forks at, how many live-fault phases
#: a schedule has), so the grid is one fixed chip population -- the one
#: the program's Fig. 5b driver draws for the default config seed -- and
#: the workload seed varies the data and the trained model instead.
GRID_SEED = 7


@dataclasses.dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    notes: List[str] = dataclasses.field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes)


def digest_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def digest_state(model) -> str:
    digest = hashlib.sha256()
    for name, array in sorted(model.state_dict().items()):
        array = np.ascontiguousarray(array)
        digest.update(f"{name}:{array.dtype}:{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


class SweepWorkload:
    """A Fig. 5b faulty-PE-count sweep (``sweep_faulty_pe_count``).

    One repetition is one whole sweep; its operations are the sweep
    points (count 0 is the fault-free row).  The untimed reference sweep
    is checked against digests pinned for the default seed, or else
    against the ``engine="sequential"`` oracle on the same grid; every
    timed repetition must reproduce the reference records exactly.
    """

    counts = (0, 2, 4, 8, 16)
    ops_per_rep = len(counts)
    min_reps = 3

    def __init__(self, dataset: str, trials: int,
                 fault_params: Optional[dict] = None) -> None:
        self.dataset = dataset
        self.trials = trials
        self.fault_params = fault_params
        self.reference_records: Optional[List[dict]] = None

    def config(self, seed: int):
        return default_config(self.dataset, seed=seed,
                              baseline_epochs=BASELINE_EPOCHS)

    def describe(self, config) -> str:
        maps = self.trials * sum(1 for count in self.counts if count)
        model = "transient burst" if self.fault_params else "stuck-at"
        return (f"{config.dataset} {model}, counts {','.join(map(str, self.counts))}"
                f" x {self.trials} trials = {maps} fault maps,"
                f" {config.num_test} test samples per repetition")

    def start(self, baseline) -> None:
        self.baseline = baseline
        self.model = baseline.model_factory()
        self.loader = baseline.test_loader

    def _sweep(self, engine: str) -> List[dict]:
        config = self.baseline.config
        options = dict(workers=1, cache_dir=None, dtype="float64")
        if engine == "fused":
            options.update(lane_threads=1, backend="numpy")
        if self.fault_params is not None:
            params = dict(self.fault_params, num_steps=config.time_steps)
            options.update(fault_model="transient", fault_params=params)
        return analysis.sweep_faulty_pe_count(
            self.model, self.loader, rows=config.array_rows,
            cols=config.array_cols, counts=self.counts, trials=self.trials,
            dataset=config.dataset, seed=derive_seed(GRID_SEED, "fig5b"),
            engine=engine, **options)

    def _compare(self, records: List[dict], expected: List[dict],
                 what: str) -> Outcome:
        outcome = Outcome(attempted=len(self.counts))
        for index, count in enumerate(self.counts):
            got = records[index] if index < len(records) else None
            want = expected[index] if index < len(expected) else None
            if got != want:
                outcome.failed += 1
                outcome.notes.append(f"count {count}: {what} mismatch")
        return outcome

    def reference(self, pinned: Optional[dict]) -> Outcome:
        self.reference_records = self._sweep("fused")
        if pinned is not None:
            if digest_json(self.reference_records) == pinned.get("records"):
                return Outcome(attempted=len(self.counts),
                               notes=["reference matches pinned digest"])
            return Outcome(attempted=len(self.counts), failed=len(self.counts),
                           notes=["reference differs from pinned digest"])
        outcome = self._compare(self.reference_records, self._sweep("sequential"),
                                "fused vs sequential")
        if not outcome.failed:
            outcome.notes.append("reference matches the sequential oracle")
        return outcome

    def rep(self, index: int) -> List[dict]:
        return self._sweep("fused")

    def check(self, records: List[dict]) -> Outcome:
        return self._compare(records, self.reference_records, "repeat")

    def outputs(self) -> Dict[str, str]:
        return {"records": digest_json(self.reference_records)}

    def summary(self) -> dict:
        return {"records": self.reference_records}


class RetrainWorkload:
    """The Fig. 7 grid: FaP, FaPIT and FalVolt at 10/30/60 % faulty PEs.

    One repetition is one grid row (one fault rate, all three methods);
    its operations are the grid cells.  Every cell starts from the same
    prepared baseline with a freshly built train loader, so a cell's
    result depends on nothing but the cell.  Each cell reports its
    accuracy and a digest of the final weights, and is checked for the
    pruning invariant (weights on faulty PEs are exactly zero), for
    finite weights, against pinned digests on the default seed, and
    against earlier runs of the same cell.
    """

    dataset = "nmnist"
    retrain_epochs = 3
    methods = ("fap", "fapit", "falvolt")
    rates = PAPER_FAULT_RATES
    ops_per_rep = len(methods)
    # The whole grid plus its first row again, so every run re-checks
    # that a repeated cell reproduces its weights byte for byte.
    min_reps = len(rates) + 1

    def __init__(self) -> None:
        self.cells: Dict[str, dict] = {}
        self.pinned: Optional[dict] = None

    def config(self, seed: int):
        return default_config(self.dataset, seed=seed,
                              baseline_epochs=BASELINE_EPOCHS,
                              retrain_epochs=self.retrain_epochs)

    def describe(self, config) -> str:
        steps = config.retrain_epochs * (config.num_train // config.batch_size)
        return (f"{config.dataset} Fig. 7 grid row = 3 methods at one fault rate,"
                f" {steps} training steps per retrained cell,"
                f" {config.num_test} test samples")

    def start(self, baseline) -> None:
        self.baseline = baseline

    def reference(self, pinned: Optional[dict]) -> Outcome:
        self.pinned = pinned
        return Outcome()

    def _cell(self, rate: float, method: str) -> dict:
        baseline = self.baseline
        config = baseline.config
        fault_map = faults.fault_map_from_rate(
            config.array_rows, config.array_cols, rate,
            bit_position=DEFAULT_ACCUMULATOR_FORMAT.magnitude_msb,
            stuck_type="sa1",
            seed=derive_seed(config.seed, "mitigation_map", int(rate * 1000)))
        train_loader, _ = experiments_baseline.build_loaders(config)
        kwargs = ({} if method == "fap" else
                  {"retraining_epochs": config.retrain_epochs,
                   "learning_rate": config.retrain_lr})
        model = baseline.model_factory()
        result = get_mitigation(method, **kwargs).run(
            model, fault_map, train_loader, baseline.test_loader,
            num_classes=baseline.num_classes,
            baseline_accuracy=baseline.baseline_accuracy)
        return {"rate": float(rate), "method": result.method, "model": model,
                "fault_map": fault_map, "accuracy": result.accuracy,
                "pruned_fraction": result.pruned_fraction,
                "thresholds": result.thresholds}

    def rep(self, index: int) -> List[dict]:
        rate = self.rates[index % len(self.rates)]
        return [self._cell(rate, method) for method in self.methods]

    def check(self, cells: List[dict]) -> Outcome:
        outcome = Outcome(attempted=len(cells))
        for cell in cells:
            key = f"{cell['rate']}/{cell['method']}"
            model = cell.pop("model")
            fault_map = cell.pop("fault_map")
            problems = []
            if not 0.0 <= cell["accuracy"] <= 1.0:
                problems.append("accuracy out of range")
            layers = dict(affine_layers(model))
            masks = find_pruned_weight_indices(model, fault_map)
            if not all(np.all(layers[name].weight.data[mask] == 0.0)
                       for name, mask in masks.items()):
                problems.append("pruned weights are not zero")
            if not all(np.all(np.isfinite(value))
                       for value in model.state_dict().values()):
                problems.append("non-finite weights")
            cell["weights"] = digest_state(model)
            cell["digest"] = digest_json({k: cell[k] for k in (
                "accuracy", "pruned_fraction", "thresholds", "weights")})
            earlier = self.cells.get(key)
            if earlier is not None and earlier["digest"] != cell["digest"]:
                problems.append("differs from an earlier run of the same cell")
            if self.pinned is not None and key in self.pinned \
                    and self.pinned[key] != cell["digest"]:
                problems.append("differs from pinned digest")
            self.cells.setdefault(key, cell)
            if problems:
                outcome.failed += 1
                outcome.notes.append(f"{key}: {'; '.join(problems)}")
        return outcome

    def outputs(self) -> Dict[str, str]:
        return {key: cell["digest"] for key, cell in sorted(self.cells.items())}

    def summary(self) -> dict:
        summary = {"cells": [self.cells[key] for key in sorted(self.cells)]}
        for method, label in (("FalVolt", "falvolt_acc"), ("FaPIT", "fapit_acc")):
            values = [cell["accuracy"] for cell in self.cells.values()
                      if cell["method"] == method]
            if len(values) == len(self.rates):
                summary[label] = float(np.mean(values))
        return summary


#: Workload name -> factory of a fresh workload object.
WORKLOADS = {
    "sweep-stuckat": functools.partial(SweepWorkload, "mnist", trials=8),
    "retrain-fig7": RetrainWorkload,
    "sweep-dvs-transient": functools.partial(
        SweepWorkload, "dvs_gesture", trials=4,
        fault_params={"process": "burst", "burst_length": 2}),
}
