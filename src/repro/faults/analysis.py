"""Fault-vulnerability sweep drivers (paper, Section V-C).

Three sweeps are provided, one per panel of the paper's Fig. 5:

* :func:`sweep_bit_locations` -- vary the stuck-at bit position and polarity
  (Fig. 5a).
* :func:`sweep_faulty_pe_count` -- vary the number of faulty PEs on a fixed
  array (Fig. 5b), averaging several distinct fault maps per point.
* :func:`sweep_array_sizes` -- vary the array size at a fixed number of
  faulty PEs (Fig. 5c).

Each sweep returns a list of plain-dict records so the experiment harness
and the benchmarks can print them as tables or series without further
processing.

All three sweeps are thin wrappers over the
:class:`~repro.faults.campaign.CampaignRunner`: the grid is expressed as
:class:`~repro.faults.campaign.CampaignPoint` objects (with the same
deterministic seed derivation the sweeps have always used) and executed by
the selected engine.  The default ``"fused"`` engine simulates all of a
point's fault maps in one no-autograd pass with clean-prefix sharing and
produces records bit-identical to the ``"sequential"`` reference
(``dtype="float32"`` relaxes that to a tolerance for speed).  ``workers``,
``shard``, ``trial_chunk`` and ``progress`` route the sweep through the
sharded orchestrator
(:mod:`repro.faults.orchestrator`) for parallel, resumable and
multi-machine execution with unchanged records.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from ..systolic.fixed_point import DEFAULT_ACCUMULATOR_FORMAT, FixedPointFormat
from ..utils.rng import derive_seed
from .campaign import CampaignPoint, CampaignRunner
from .fault_model import StuckAtType


def baseline_accuracy(model, loader) -> float:
    """Fault-free accuracy of the model (uses the software forward path)."""

    from ..autograd import Tensor, no_grad

    was_training = model.training
    model.eval()
    correct = 0
    total = 0
    try:
        with no_grad():
            for inputs, labels in loader:
                rates = model(Tensor(inputs))
                correct += int(np.sum(np.argmax(rates.data, axis=1) == labels))
                total += labels.shape[0]
    finally:
        model.train(was_training)
    return correct / total if total else 0.0


def _make_runner(model, loader, fmt: FixedPointFormat, engine: str,
                 workers: int, cache_dir, dtype: str, shard, trial_chunk,
                 progress, lane_threads=None, plan_cache=True,
                 unit_timeout=None, bypass=False,
                 backend=None) -> CampaignRunner:
    return CampaignRunner(model, loader, fmt=fmt, engine=engine,
                          workers=workers, cache_dir=cache_dir, dtype=dtype,
                          bypass=bypass,
                          shard=shard, trial_chunk=trial_chunk,
                          unit_timeout=unit_timeout,
                          progress=progress, lane_threads=lane_threads,
                          plan_cache=plan_cache, backend=backend)


def _normalize_fault_model(fault_model: str, fault_params) -> tuple:
    """Shared sweep-driver normalisation of the fault-model selection."""

    return (str(fault_model), () if fault_params is None else fault_params)


# ----------------------------------------------------------------------
# Grid builders
# ----------------------------------------------------------------------
# The point grids are exposed separately from the sweep drivers so other
# consumers (the scenario registry, tests) can inspect or reuse the exact
# grid -- same deterministic seed derivations -- without evaluating it.

def bit_sweep_points(*, rows: int, cols: int, bit_positions: Sequence[int],
                     stuck_types: Sequence[Union[StuckAtType, int, str]] = ("sa0", "sa1"),
                     num_faulty: int = 8, trials: int = 2, dataset: str = "",
                     seed: int = 0, fault_model: str = "stuck_at",
                     fault_params=None) -> List[CampaignPoint]:
    """Grid of :func:`sweep_bit_locations` (one point per polarity x bit)."""

    fault_model, fault_params = _normalize_fault_model(fault_model, fault_params)
    points: List[CampaignPoint] = []
    for stuck in stuck_types:
        stuck = StuckAtType.from_value(stuck)
        for bit in bit_positions:
            map_seeds = tuple(
                derive_seed(seed, "bit_sweep", stuck.value, bit, trial)
                for trial in range(trials))
            points.append(CampaignPoint(
                rows=rows, cols=cols, num_faulty=num_faulty, map_seeds=map_seeds,
                bit_position=int(bit), stuck_type=stuck.short_name,
                label="bit_sweep", dataset=dataset,
                fault_model=fault_model, fault_params=fault_params))
    return points


def pe_count_points(*, rows: int, cols: int, counts: Sequence[int],
                    bit_position: int, trials: int = 8,
                    stuck_type: Union[StuckAtType, int, str] = "sa1",
                    dataset: str = "", seed: int = 0,
                    fault_model: str = "stuck_at",
                    fault_params=None) -> List[CampaignPoint]:
    """Grid of :func:`sweep_faulty_pe_count` (count 0 is the baseline row)."""

    fault_model, fault_params = _normalize_fault_model(fault_model, fault_params)
    return [
        CampaignPoint.for_trials(
            rows, cols, count, trials,
            bit_position=bit_position, stuck_type=stuck_type,
            seed=derive_seed(seed, "pe_count", count),
            label="pe_count", dataset=dataset,
            fault_model=fault_model, fault_params=fault_params)
        for count in counts if count != 0
    ]


def array_size_points(*, sizes: Sequence[int], bit_position: int,
                      num_faulty: int = 4, trials: int = 4,
                      stuck_type: Union[StuckAtType, int, str] = "sa1",
                      dataset: str = "", seed: int = 0,
                      fault_model: str = "stuck_at",
                      fault_params=None) -> List[CampaignPoint]:
    """Grid of :func:`sweep_array_sizes` (one point per array size)."""

    for size in sizes:
        if num_faulty > size * size:
            raise ValueError(f"cannot place {num_faulty} faults in a {size}x{size} array")
    fault_model, fault_params = _normalize_fault_model(fault_model, fault_params)
    return [
        CampaignPoint.for_trials(
            size, size, num_faulty, trials,
            bit_position=bit_position, stuck_type=stuck_type,
            seed=derive_seed(seed, "array_size", size),
            label="array_size", dataset=dataset,
            fault_model=fault_model, fault_params=fault_params)
        for size in sizes
    ]


def sweep_bit_locations(model, loader, *,
                        rows: int, cols: int,
                        bit_positions: Sequence[int],
                        stuck_types: Sequence[Union[StuckAtType, int, str]] = ("sa0", "sa1"),
                        num_faulty: int = 8,
                        trials: int = 2,
                        fmt: FixedPointFormat = DEFAULT_ACCUMULATOR_FORMAT,
                        dataset: str = "",
                        seed: int = 0,
                        engine: str = "fused",
                        workers: int = 1,
                        cache_dir=None,
                        dtype: str = "float64",
                        shard=None,
                        trial_chunk=None,
                        progress=None,
                        lane_threads=None,
                        plan_cache=True,
                        unit_timeout=None,
                        fault_model: str = "stuck_at",
                        fault_params=None,
                        bypass: bool = False,
                        backend=None) -> List[dict]:
    """Accuracy versus fault bit location and polarity (Fig. 5a).

    For each (bit position, stuck-at polarity) pair, ``trials`` random fault
    maps with ``num_faulty`` faulty PEs are generated and the mean accuracy
    under unmitigated fault injection is recorded.  ``fault_model`` /
    ``fault_params`` select the paper's permanent datapath stuck-at model
    (default), weight-SRAM faults or transient schedules; ``bypass=True``
    evaluates the mitigated hardware instead.
    """

    runner = _make_runner(model, loader, fmt, engine, workers, cache_dir,
                          dtype, shard, trial_chunk, progress, lane_threads,
                          plan_cache, unit_timeout, bypass, backend)
    points = bit_sweep_points(
        rows=rows, cols=cols, bit_positions=bit_positions,
        stuck_types=stuck_types, num_faulty=num_faulty, trials=trials,
        dataset=dataset, seed=seed,
        fault_model=fault_model, fault_params=fault_params)
    results = runner.run(points)
    return [{
        "dataset": dataset,
        "stuck_type": result["stuck_type"],
        "bit_position": int(result["bit_position"]),
        "num_faulty_pes": int(result["num_faulty"]),
        "trials": int(result["trials"]),
        "accuracy": result["accuracy"],
        "accuracy_std": result["accuracy_std"],
    } for result in results]


def sweep_faulty_pe_count(model, loader, *,
                          rows: int, cols: int,
                          counts: Sequence[int],
                          trials: int = 8,
                          bit_position: Optional[int] = None,
                          stuck_type: Union[StuckAtType, int, str] = "sa1",
                          fmt: FixedPointFormat = DEFAULT_ACCUMULATOR_FORMAT,
                          dataset: str = "",
                          seed: int = 0,
                          engine: str = "fused",
                          workers: int = 1,
                          cache_dir=None,
                          dtype: str = "float64",
                          shard=None,
                          trial_chunk=None,
                          progress=None,
                          lane_threads=None,
                          plan_cache=True,
                          unit_timeout=None,
                          fault_model: str = "stuck_at",
                          fault_params=None,
                          bypass: bool = False,
                          backend=None) -> List[dict]:
    """Accuracy versus number of faulty PEs (Fig. 5b).

    Faults are injected in the higher-order accumulator bits (worst case), and
    each count is averaged over ``trials`` distinct fault maps, following the
    paper's methodology (8 iterations per experiment).  ``fault_model`` /
    ``fault_params`` / ``bypass`` select the fault semantics and mitigation
    as in :func:`sweep_bit_locations`.
    """

    if bit_position is None:
        bit_position = fmt.magnitude_msb
    runner = _make_runner(model, loader, fmt, engine, workers, cache_dir,
                          dtype, shard, trial_chunk, progress, lane_threads,
                          plan_cache, unit_timeout, bypass, backend)
    points = pe_count_points(
        rows=rows, cols=cols, counts=counts, bit_position=bit_position,
        trials=trials, stuck_type=stuck_type, dataset=dataset, seed=seed,
        fault_model=fault_model, fault_params=fault_params)
    results = iter(runner.run(points))
    records: List[dict] = []
    for count in counts:
        if count == 0:
            records.append({
                "dataset": dataset,
                "num_faulty_pes": 0,
                "fault_rate": 0.0,
                "trials": int(trials),
                "accuracy": float(runner.baseline_accuracy()),
                "accuracy_std": 0.0,
            })
            continue
        result = next(results)
        records.append({
            "dataset": dataset,
            "num_faulty_pes": int(count),
            "fault_rate": count / (rows * cols),
            "trials": int(trials),
            "accuracy": result["accuracy"],
            "accuracy_std": result["accuracy_std"],
        })
    return records


def sweep_array_sizes(model, loader, *,
                      sizes: Sequence[int],
                      num_faulty: int = 4,
                      trials: int = 4,
                      bit_position: Optional[int] = None,
                      stuck_type: Union[StuckAtType, int, str] = "sa1",
                      fmt: FixedPointFormat = DEFAULT_ACCUMULATOR_FORMAT,
                      dataset: str = "",
                      seed: int = 0,
                      engine: str = "fused",
                      workers: int = 1,
                      cache_dir=None,
                      dtype: str = "float64",
                      shard=None,
                      trial_chunk=None,
                      progress=None,
                      lane_threads=None,
                      plan_cache=True,
                      unit_timeout=None,
                      fault_model: str = "stuck_at",
                      fault_params=None,
                      bypass: bool = False,
                      backend=None) -> List[dict]:
    """Accuracy versus systolic array size at a fixed number of faulty PEs (Fig. 5c).

    Smaller arrays are reused more heavily (more weights per PE), so the same
    number of faults corrupts a larger fraction of the computation.
    ``fault_model`` / ``fault_params`` / ``bypass`` select the fault
    semantics and mitigation as in :func:`sweep_bit_locations`.
    """

    if bit_position is None:
        bit_position = fmt.magnitude_msb
    runner = _make_runner(model, loader, fmt, engine, workers, cache_dir,
                          dtype, shard, trial_chunk, progress, lane_threads,
                          plan_cache, unit_timeout, bypass, backend)
    points = array_size_points(
        sizes=sizes, bit_position=bit_position, num_faulty=num_faulty,
        trials=trials, stuck_type=stuck_type, dataset=dataset, seed=seed,
        fault_model=fault_model, fault_params=fault_params)
    results = runner.run(points)
    return [{
        "dataset": dataset,
        "array_size": int(size),
        "total_pes": int(size * size),
        "num_faulty_pes": int(num_faulty),
        "trials": int(trials),
        "accuracy": result["accuracy"],
        "accuracy_std": result["accuracy_std"],
    } for size, result in zip(sizes, results)]
