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

A driver takes only its grid: the swept values, the fault model and the
deterministic seed derivation the sweeps have always used, expressed as
:class:`~repro.faults.campaign.CampaignPoint` objects.  Everything else --
``engine``, ``workers``, ``cache_dir``, ``shard``, ``trial_chunk``,
``unit_timeout``, ``progress`` and ``bypass`` -- is a
campaign option passed
straight through ``**runner_options`` to
:class:`~repro.faults.campaign.CampaignRunner`, which defines and
validates them.  Records are therefore the same whichever entry point
(these drivers, the Fig. 5 runners, a scenario or the CLI) launched the
sweep.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from ..systolic.fixed_point import DEFAULT_ACCUMULATOR_FORMAT, FixedPointFormat
from ..utils.rng import derive_seed
from .campaign import CampaignPoint, CampaignRunner
from .fault_model import StuckAtType


def sweep_bit_locations(model, loader, *,
                        rows: int, cols: int,
                        bit_positions: Sequence[int],
                        stuck_types: Sequence[Union[StuckAtType, int, str]] = ("sa0", "sa1"),
                        num_faulty: int = 8,
                        trials: int = 2,
                        fmt: FixedPointFormat = DEFAULT_ACCUMULATOR_FORMAT,
                        dataset: str = "",
                        seed: int = 0,
                        fault_model: str = "stuck_at",
                        fault_params=None,
                        **runner_options) -> List[dict]:
    """Accuracy versus fault bit location and polarity (Fig. 5a).

    For each (bit position, stuck-at polarity) pair, ``trials`` random fault
    maps with ``num_faulty`` faulty PEs are generated and the mean accuracy
    under unmitigated fault injection is recorded.  ``fault_model`` /
    ``fault_params`` select the paper's permanent datapath stuck-at model
    (default), weight-SRAM faults or transient schedules; the campaign
    option ``bypass=True`` evaluates the mitigated hardware instead.
    """

    runner = CampaignRunner(model, loader, fmt=fmt, **runner_options)
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
                fault_model=fault_model, fault_params=fault_params or ()))
    return [{
        "dataset": dataset,
        "stuck_type": result["stuck_type"],
        "bit_position": int(result["bit_position"]),
        "num_faulty_pes": int(result["num_faulty"]),
        "trials": int(result["trials"]),
        "accuracy": result["accuracy"],
        "accuracy_std": result["accuracy_std"],
    } for result in runner.run(points)]


def sweep_faulty_pe_count(model, loader, *,
                          rows: int, cols: int,
                          counts: Sequence[int],
                          trials: int = 8,
                          bit_position: Optional[int] = None,
                          stuck_type: Union[StuckAtType, int, str] = "sa1",
                          fmt: FixedPointFormat = DEFAULT_ACCUMULATOR_FORMAT,
                          dataset: str = "",
                          seed: int = 0,
                          fault_model: str = "stuck_at",
                          fault_params=None,
                          **runner_options) -> List[dict]:
    """Accuracy versus number of faulty PEs (Fig. 5b).

    Faults are injected in the higher-order accumulator bits (worst case), and
    each count is averaged over ``trials`` distinct fault maps, following the
    paper's methodology (8 iterations per experiment).  Count 0 is the
    fault-free baseline row.  ``fault_model`` / ``fault_params`` and the
    campaign options work as in :func:`sweep_bit_locations`.
    """

    if bit_position is None:
        bit_position = fmt.magnitude_msb
    runner = CampaignRunner(model, loader, fmt=fmt, **runner_options)
    points = [
        CampaignPoint.for_trials(
            rows, cols, count, trials,
            bit_position=bit_position, stuck_type=stuck_type,
            seed=derive_seed(seed, "pe_count", count),
            label="pe_count", dataset=dataset,
            fault_model=fault_model, fault_params=fault_params or ())
        for count in counts if count != 0
    ]
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
                      fault_model: str = "stuck_at",
                      fault_params=None,
                      **runner_options) -> List[dict]:
    """Accuracy versus systolic array size at a fixed number of faulty PEs (Fig. 5c).

    Smaller arrays are reused more heavily (more weights per PE), so the same
    number of faults corrupts a larger fraction of the computation.
    ``fault_model`` / ``fault_params`` and the campaign options work as in
    :func:`sweep_bit_locations`.
    """

    if bit_position is None:
        bit_position = fmt.magnitude_msb
    runner = CampaignRunner(model, loader, fmt=fmt, **runner_options)
    points = [
        CampaignPoint.for_trials(
            size, size, num_faulty, trials,
            bit_position=bit_position, stuck_type=stuck_type,
            seed=derive_seed(seed, "array_size", size),
            label="array_size", dataset=dataset,
            fault_model=fault_model, fault_params=fault_params or ())
        for size in sizes
    ]
    return [{
        "dataset": dataset,
        "array_size": int(size),
        "total_pes": int(size * size),
        "num_faulty_pes": int(num_faulty),
        "trials": int(trials),
        "accuracy": result["accuracy"],
        "accuracy_std": result["accuracy_std"],
    } for size, result in zip(sizes, runner.run(points))]
