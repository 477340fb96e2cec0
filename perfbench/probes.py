"""Which public calls of the program are timed, and the per-layer metrics.

Each probe names a layer after the module that owns it and wraps the
public function or method through which every workload enters that
layer.  :func:`per_layer_metrics` turns the recorded spans into the
figures ``BENCHMARK.json`` lists under ``per_layer``:

* ``*_s`` / ``*_ms`` and counts describe one invocation -- one set-up
  plus one repetition of the workload's operation -- so they are
  non-zero on every workload (every set-up trains a baseline, every
  repetition generates fault maps);
* ``*_pct`` is a layer's self time (its time minus that of its timed
  children) as a share of the traced repetitions' wall time, i.e. of
  ``run_s``.  A layer a workload never enters reads 0 there.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from repro.autograd.tensor import Tensor
from repro.core import base as core_base
from repro.core.pruning import PruningMaskCallback
from repro.experiments import baseline as experiments_baseline
from repro import faults
from repro.faults import fault_map as faults_fault_map
from repro.faults.campaign import CampaignPoint
from repro.snn.inference.backends.ops_numpy import (
    ArrayAffineKernel,
    NumpyBackend,
    SoftwareAffineKernel,
)
from repro.snn.inference.engine import FusedFaultEngine, FusedInferenceEngine
from repro.snn.inference.plan_cache import PlanCache
from repro.snn.optim import Adam
from repro.snn.training import Trainer
from repro.systolic.array import BatchedSystolicArray

#: Layers reported as self-time shares of ``run_s`` (span name -> metric).
SHARE_LAYERS = {
    "datasets.load": "datasets.load_pct",
    "snn.training.step": "snn.training.step_pct",
    "autograd.backward": "autograd.backward_pct",
    "snn.optim.step": "snn.optim.step_pct",
    "snn.training.evaluate": "snn.training.evaluate_pct",
    "core.prune": "core.prune_pct",
    "faults.mapgen": "faults.mapgen_pct",
    "snn.inference.engine_build": "snn.inference.engine_build_pct",
    "snn.inference.engine_run": "snn.inference.engine_run_pct",
    "snn.inference.backends.im2col": "snn.inference.backends.im2col_pct",
    "systolic.chain_kernel.apply": "systolic.chain_kernel.apply_pct",
    "systolic.prepare_weight": "systolic.prepare_weight_pct",
}

#: Layers reported as seconds per invocation (entered by every workload).
SECOND_LAYERS = {
    "datasets.load": "datasets.load_s",
    "experiments.baseline": "experiments.baseline_s",
    "autograd.backward": "autograd.backward_s",
    "snn.optim.step": "snn.optim.step_s",
    "snn.training.evaluate": "snn.training.evaluate_s",
    "faults.mapgen": "faults.mapgen_s",
}

#: Layers reported as calls per invocation.
CALL_LAYERS = {
    "snn.training.step": "snn.training.steps",
    "snn.training.evaluate": "snn.training.evaluate_calls",
    "core.prune": "core.prune_calls",
    "snn.inference.engine_run": "snn.inference.batches",
    "snn.inference.plan_lookup": "snn.inference.plan_lookups",
    "snn.inference.backends.im2col": "snn.inference.backends.im2col_calls",
    "systolic.chain_kernel.apply": "systolic.chain_kernel.apply_calls",
    "systolic.prepare_weight": "systolic.prepare_weight_calls",
}

#: Counters derived from call results, reported per invocation.
COUNTERS = ("faults.phases", "snn.inference.plan_misses")


def _count_phases(tracer, args, result) -> None:
    _step_phase, phase_maps = result
    tracer.count("faults.phases", len(phase_maps))


def _count_forks(tracer, args, result) -> None:
    engine = args[0]
    tracer.count("maps", engine.num_maps)
    tracer.count("forked", len(engine.fork_order))


class _PlanMisses:
    """Counts plan-cache misses by watching each cache's miss counter."""

    def __init__(self) -> None:
        self.seen: Dict[int, int] = {}

    def __call__(self, tracer, args, result) -> None:
        cache = args[0]
        before = self.seen.get(id(cache), 0)
        self.seen[id(cache)] = cache.misses
        tracer.count("snn.inference.plan_misses", cache.misses - before)


def install(tracer) -> None:
    """Wrap every probed public call (restored when the tracer uninstalls)."""

    from repro.snn.inference import default_plan_cache

    misses = _PlanMisses()
    cache = default_plan_cache()
    misses.seen[id(cache)] = cache.misses

    tracer.wrap(experiments_baseline, "load_dataset", "datasets.load")
    tracer.wrap(experiments_baseline, "prepare_baseline", "experiments.baseline")
    tracer.wrap(Trainer, "train_step", "snn.training.step")
    tracer.wrap(Trainer, "evaluate", "snn.training.evaluate")
    tracer.wrap(Tensor, "backward", "autograd.backward")
    tracer.wrap(Adam, "step", "snn.optim.step")
    # FaultMitigation.run calls the pruning helpers through core.base; the
    # epoch callback re-zeroes through core.pruning.
    tracer.wrap(core_base, "find_pruned_weight_indices", "core.prune")
    tracer.wrap(core_base, "set_pruned_weights_to_zero", "core.prune")
    tracer.wrap(PruningMaskCallback, "__call__", "core.prune")
    tracer.wrap(CampaignPoint, "build_fault_maps", "faults.mapgen")
    tracer.wrap(CampaignPoint, "build_schedules", "faults.mapgen")
    tracer.wrap(faults, "fault_map_from_rate", "faults.mapgen")
    tracer.wrap(faults_fault_map, "schedule_phases", "faults.schedule_phases",
                on_result=_count_phases)
    tracer.wrap(FusedFaultEngine, "__init__", "snn.inference.engine_build",
                on_result=_count_forks)
    tracer.wrap(FusedInferenceEngine, "__init__", "snn.inference.engine_build")
    tracer.wrap(FusedFaultEngine, "run", "snn.inference.engine_run")
    tracer.wrap(FusedInferenceEngine, "run", "snn.inference.engine_run")
    tracer.wrap(PlanCache, "get_plan", "snn.inference.plan_lookup",
                on_result=misses)
    tracer.wrap(NumpyBackend, "im2col", "snn.inference.backends.im2col")
    tracer.wrap(SoftwareAffineKernel, "_im2col", "snn.inference.backends.im2col")
    tracer.wrap(ArrayAffineKernel, "_im2col", "snn.inference.backends.im2col")
    tracer.wrap(NumpyBackend, "apply_chain_plan", "systolic.chain_kernel.apply")
    tracer.wrap(BatchedSystolicArray, "prepare_weight", "systolic.prepare_weight")


def _percentile(values: List[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer_metrics(tracer, rep_times: List[float],
                      untraced_times: List[float]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced run, as ``name -> (value, unit)``.

    ``rep_times`` are the traced repetitions' wall times, ``untraced_times``
    those of the interleaved untraced repetitions (tracing overhead).
    """

    setup = tracer.layer_table("setup")
    reps = tracer.layer_table("rep")
    n_reps = len(rep_times)
    rep_wall = sum(rep_times)

    def per_invocation(name: str, field: str) -> float:
        return (setup.get(name, {}).get(field, 0)
                + reps.get(name, {}).get(field, 0) / n_reps)

    metrics: Dict[str, Tuple[float, str]] = {}
    for layer, metric in SECOND_LAYERS.items():
        metrics[metric] = (per_invocation(layer, "total_s"), "s")
    steps = (setup.get("snn.training.step", {}).get("durations", [])
             + reps.get("snn.training.step", {}).get("durations", []))
    steps_ms = [1e3 * d for d in steps]
    metrics["snn.training.step_p50_ms"] = (_percentile(steps_ms, 50), "ms")
    metrics["snn.training.step_p95_ms"] = (_percentile(steps_ms, 95), "ms")
    for layer, metric in CALL_LAYERS.items():
        metrics[metric] = (per_invocation(layer, "calls"), "count")
    setup_counts = tracer.counters.get("setup", {})
    rep_counts = tracer.counters.get("rep", {})
    for counter in COUNTERS:
        metrics[counter] = (setup_counts.get(counter, 0)
                            + rep_counts.get(counter, 0) / n_reps, "count")
    maps = rep_counts.get("maps", 0)
    metrics["snn.inference.forked_frac"] = (
        rep_counts.get("forked", 0) / maps if maps else 0.0, "frac")
    for layer, metric in SHARE_LAYERS.items():
        metrics[metric] = (100.0 * reps.get(layer, {}).get("self_s", 0.0)
                           / rep_wall, "%")
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(rep_times) / statistics.median(untraced_times)
                 - 1.0), "%")
    return metrics


def layer_rows(tracer) -> List[dict]:
    """The full per-layer table (every span name, both scopes) for reports."""

    rows = []
    for scope in ("setup", "rep"):
        for name, row in sorted(tracer.layer_table(scope).items()):
            rows.append({"scope": scope, "layer": name, "calls": row["calls"],
                         "total_s": row["total_s"], "self_s": row["self_s"]})
    return rows
