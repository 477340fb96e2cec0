"""Fault maps: which PEs of the array are faulty and with what fault.

A :class:`FaultMap` is the software counterpart of the per-chip fault map a
manufacturer obtains from post-fabrication testing (paper, Section IV).  It
maps PE grid coordinates to :class:`~repro.faults.fault_model.StuckAtFault`
instances and provides the random generators used by the vulnerability and
mitigation experiments (fault maps by PE count, by fault rate, by bit
position).

A :class:`FaultSchedule` is the transient counterpart: it maps PE
coordinates to :class:`~repro.faults.fault_model.TransientFault` instances
over a fixed number of SNN time steps and resolves, per step, which faults
are live (:meth:`FaultSchedule.live_map`).  Schedules are generated by
seeded rate processes -- Bernoulli-per-step, burst and clustered
(particle-strike) sampling -- whose randomness flows through
:func:`repro.utils.rng.get_rng`, so a (seed, parameters) pair pins the
schedule bit-for-bit across processes and machines.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union


from ..systolic.fixed_point import FixedPointFormat, DEFAULT_ACCUMULATOR_FORMAT
from ..utils.rng import get_rng
from .fault_model import StuckAtFault, StuckAtType, TransientFault

Coordinate = Tuple[int, int]


@dataclasses.dataclass
class FaultMap:
    """Mapping of faulty PE coordinates to stuck-at faults for one fabricated chip.

    ``fmt`` optionally pins the accumulator format the map targets; when set,
    every fault's ``bit_position`` is validated against ``fmt.total_bits`` at
    construction and on :meth:`add`, instead of failing deep inside the
    simulator on first application.
    """

    rows: int
    cols: int
    faults: Dict[Coordinate, StuckAtFault] = dataclasses.field(default_factory=dict)
    fmt: Optional[FixedPointFormat] = None

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("array dimensions must be positive")
        for coord, fault in self.faults.items():
            self._validate(coord)
            self._validate_fault(fault)

    # ------------------------------------------------------------------
    # Dict-like interface
    # ------------------------------------------------------------------
    def _validate(self, coord: Coordinate) -> None:
        row, col = coord
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"coordinate {coord} outside {self.rows}x{self.cols} array")

    def _validate_fault(self, fault: StuckAtFault) -> None:
        if self.fmt is not None and fault.bit_position >= self.fmt.total_bits:
            raise ValueError(
                f"bit {fault.bit_position} outside the "
                f"{self.fmt.total_bits}-bit accumulator format")

    def add(self, row: int, col: int, fault: StuckAtFault) -> None:
        self._validate((row, col))
        self._validate_fault(fault)
        self.faults[(row, col)] = fault

    def items(self) -> Iterator[Tuple[Coordinate, StuckAtFault]]:
        return iter(self.faults.items())

    def coordinates(self) -> List[Coordinate]:
        return list(self.faults.keys())

    def __len__(self) -> int:
        return len(self.faults)

    def __contains__(self, coord: Coordinate) -> bool:
        return tuple(coord) in self.faults

    def __iter__(self) -> Iterator[Coordinate]:
        return iter(self.faults)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def num_pes(self) -> int:
        return self.rows * self.cols

    @property
    def fault_rate(self) -> float:
        """Fraction of PEs that are faulty, in [0, 1]."""

        return len(self.faults) / self.num_pes

    def describe(self) -> str:
        return (f"FaultMap({self.rows}x{self.cols}, {len(self.faults)} faulty PEs, "
                f"rate={100.0 * self.fault_rate:.3f}%)")


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def _sample_coordinates(rows: int, cols: int, count: int, rng) -> List[Coordinate]:
    if count > rows * cols:
        raise ValueError(f"cannot place {count} faults in a {rows}x{cols} array")
    flat = rng.choice(rows * cols, size=count, replace=False)
    return [(int(index // cols), int(index % cols)) for index in flat]


def _sample_sites(rows: int, cols: int, num_faulty: int,
                  bit_position: Optional[int], stuck_type,
                  fmt: FixedPointFormat, high_order_bits: int, rng
                  ) -> List[Tuple[Coordinate, int, StuckAtType]]:
    """The (coordinate, bit, polarity) sampling of every generator.

    Coordinates are drawn first, then one bit per site from the clamped
    high-order window (see :func:`random_fault_map`).
    """

    if num_faulty < 0:
        raise ValueError("num_faulty must be non-negative")
    if high_order_bits < 1:
        raise ValueError("high_order_bits must be at least 1")
    stuck = StuckAtType.from_value(stuck_type)
    low = max(0, fmt.magnitude_msb - high_order_bits + 1)
    sites = []
    for coord in _sample_coordinates(rows, cols, num_faulty, rng):
        if bit_position is None:
            bit = int(rng.integers(low, fmt.magnitude_msb + 1))
        else:
            bit = bit_position
        sites.append((coord, bit, stuck))
    return sites


def random_fault_map(rows: int, cols: int, num_faulty: int,
                     bit_position: Optional[int] = None,
                     stuck_type: Union[StuckAtType, int, str] = 1,
                     fmt: FixedPointFormat = DEFAULT_ACCUMULATOR_FORMAT,
                     high_order_bits: int = 4,
                     seed=None,
                     fault_cls=StuckAtFault) -> FaultMap:
    """Random fault map with ``num_faulty`` faulty PEs.

    When ``bit_position`` is ``None`` the afflicted bit is drawn uniformly
    from the ``high_order_bits`` most significant *data* bits below the sign
    bit (the paper's worst-case analysis injects faults in the higher-order
    bits of the accumulator output).  The sampling window is clamped at bit
    0: asking for more high-order bits than the format has data bits draws
    from all of them rather than from a negative bit range.

    ``fault_cls`` selects the fault class placed at each sampled PE
    (default: the datapath :class:`StuckAtFault`; pass
    :class:`~repro.faults.fault_model.WeightSRAMFault` for weight-storage
    faults).  The RNG draw sequence is independent of the class, so the
    same seed places the same (coordinate, bit) sites for every class.
    """

    sites = _sample_sites(rows, cols, num_faulty, bit_position, stuck_type, fmt,
                          high_order_bits, get_rng(seed))
    fault_map = FaultMap(rows, cols, fmt=fmt)
    for (row, col), bit, stuck in sites:
        fault_map.add(row, col, fault_cls(bit_position=bit, stuck_type=stuck))
    return fault_map


def random_weight_fault_map(rows: int, cols: int, num_faulty: int,
                            bit_position: Optional[int] = None,
                            stuck_type: Union[StuckAtType, int, str] = 1,
                            fmt: FixedPointFormat = DEFAULT_ACCUMULATOR_FORMAT,
                            high_order_bits: int = 4,
                            seed=None) -> FaultMap:
    """Random map of weight-SRAM faults (same sampling as :func:`random_fault_map`)."""

    from .fault_model import WeightSRAMFault

    return random_fault_map(rows, cols, num_faulty, bit_position=bit_position,
                            stuck_type=stuck_type, fmt=fmt,
                            high_order_bits=high_order_bits, seed=seed,
                            fault_cls=WeightSRAMFault)


def fault_map_from_rate(rows: int, cols: int, fault_rate: float,
                        bit_position: Optional[int] = None,
                        stuck_type: Union[StuckAtType, int, str] = 1,
                        fmt: FixedPointFormat = DEFAULT_ACCUMULATOR_FORMAT,
                        seed=None) -> FaultMap:
    """Random fault map covering ``fault_rate`` (fraction in [0, 1]) of the PEs.

    Used by the mitigation experiments, which quote fault rates of 10 %,
    30 % and 60 % of the 256x256 array.
    """

    if not 0.0 <= fault_rate <= 1.0:
        raise ValueError("fault_rate must be in [0, 1]")
    num_faulty = int(round(fault_rate * rows * cols))
    return random_fault_map(rows, cols, num_faulty, bit_position=bit_position,
                            stuck_type=stuck_type, fmt=fmt, seed=seed)


# ----------------------------------------------------------------------
# Transient fault schedules
# ----------------------------------------------------------------------
@dataclasses.dataclass
class FaultSchedule:
    """Per-time-step transient faults of one chip over ``num_steps`` SNN steps.

    The schedule is the transient counterpart of :class:`FaultMap`: it maps
    PE coordinates to :class:`~repro.faults.fault_model.TransientFault`
    instances and resolves, for each time step, which faults are live.
    ``fmt`` optionally pins the accumulator format (bit positions are then
    validated at construction, like :class:`FaultMap`).
    """

    rows: int
    cols: int
    num_steps: int
    faults: Dict[Coordinate, TransientFault] = dataclasses.field(default_factory=dict)
    fmt: Optional[FixedPointFormat] = None

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("array dimensions must be positive")
        if self.num_steps <= 0:
            raise ValueError("num_steps must be positive")
        for coord, fault in self.faults.items():
            self._validate(coord)
            self._validate_fault(fault)

    # ------------------------------------------------------------------
    def _validate(self, coord: Coordinate) -> None:
        row, col = coord
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"coordinate {coord} outside {self.rows}x{self.cols} array")

    def _validate_fault(self, fault: TransientFault) -> None:
        if any(step >= self.num_steps for step in fault.active_steps):
            raise ValueError(
                f"active step outside the {self.num_steps}-step schedule: "
                f"{sorted(fault.active_steps)}")
        if self.fmt is not None and fault.bit_position >= self.fmt.total_bits:
            raise ValueError(
                f"bit {fault.bit_position} outside the "
                f"{self.fmt.total_bits}-bit accumulator format")

    def add(self, row: int, col: int, fault: TransientFault) -> None:
        self._validate((row, col))
        self._validate_fault(fault)
        self.faults[(row, col)] = fault

    def items(self) -> Iterator[Tuple[Coordinate, TransientFault]]:
        return iter(self.faults.items())

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[Coordinate]:
        return iter(self.faults)

    # ------------------------------------------------------------------
    def live_map(self, step: int) -> FaultMap:
        """The permanent :class:`FaultMap` live at time step ``step``.

        This is the oracle definition of the transient model: at step
        ``t`` the array behaves exactly like a chip whose permanent fault
        map is ``live_map(t)``.
        """

        if not 0 <= int(step) < self.num_steps:
            raise ValueError(f"step {step} outside the {self.num_steps}-step schedule")
        live = {coord: fault.as_stuck_at()
                for coord, fault in self.faults.items() if fault.is_active(step)}
        return FaultMap(self.rows, self.cols, live, fmt=self.fmt)

    def union_map(self) -> FaultMap:
        """Every fault treated as permanent (the live set's upper bound)."""

        return FaultMap(self.rows, self.cols,
                        {coord: fault.as_stuck_at() for coord, fault in self.faults.items()},
                        fmt=self.fmt)

    def signature(self, step: int) -> frozenset:
        """Hashable identity of the live fault set at ``step`` (phase key)."""

        return frozenset(
            (coord, fault.bit_position, fault.stuck_value)
            for coord, fault in self.faults.items() if fault.is_active(step))

    def describe(self) -> str:
        live_counts = [sum(1 for f in self.faults.values() if f.is_active(t))
                       for t in range(self.num_steps)]
        return (f"FaultSchedule({self.rows}x{self.cols}, {len(self.faults)} sites, "
                f"live per step {live_counts})")


def schedule_phases(schedules: Sequence[FaultSchedule]
                    ) -> Tuple[List[int], List[List[FaultMap]]]:
    """Joint phase decomposition of several schedules over shared steps.

    A *phase* is one distinct joint live configuration: two time steps
    belong to the same phase exactly when every schedule's live fault set
    is identical at both.  Returns ``(step_phase, phase_maps)`` where
    ``step_phase[t]`` is the phase index of step ``t`` and
    ``phase_maps[p][f]`` is schedule ``f``'s live :class:`FaultMap` in
    phase ``p``.  Engines prepare per-phase state once and dispatch on
    ``step_phase`` per step, so the cost scales with the number of
    distinct configurations (at most ``num_steps``), not with time.

    All schedules must share grid dimensions and step count.
    """

    schedules = list(schedules)
    if not schedules:
        raise ValueError("schedule_phases needs at least one schedule")
    first = schedules[0]
    for schedule in schedules[1:]:
        if (schedule.rows, schedule.cols) != (first.rows, first.cols):
            raise ValueError("all schedules must share the same grid dimensions")
        if schedule.num_steps != first.num_steps:
            raise ValueError("all schedules must share the same number of steps")
    step_phase: List[int] = []
    phase_of_signature: Dict[Tuple, int] = {}
    phase_maps: List[List[FaultMap]] = []
    for step in range(first.num_steps):
        joint = tuple(schedule.signature(step) for schedule in schedules)
        phase = phase_of_signature.get(joint)
        if phase is None:
            phase = len(phase_maps)
            phase_of_signature[joint] = phase
            phase_maps.append([schedule.live_map(step) for schedule in schedules])
        step_phase.append(phase)
    return step_phase, phase_maps


def bernoulli_schedule(rows: int, cols: int, num_faulty: int, num_steps: int,
                       rate: float,
                       bit_position: Optional[int] = None,
                       stuck_type: Union[StuckAtType, int, str] = 1,
                       fmt: FixedPointFormat = DEFAULT_ACCUMULATOR_FORMAT,
                       high_order_bits: int = 4,
                       seed=None) -> FaultSchedule:
    """Transient schedule where each site fires independently per step.

    Each of the ``num_faulty`` sampled sites is live at every time step
    with probability ``rate`` (an independent Bernoulli draw per step).
    Sites that never fire are kept in the schedule (with an empty
    activation set), so the site count is exactly ``num_faulty``.
    """

    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    rng = get_rng(seed)
    schedule = FaultSchedule(rows, cols, num_steps, fmt=fmt)
    for (row, col), bit, stuck in _sample_sites(rows, cols, num_faulty,
                                                bit_position, stuck_type, fmt,
                                                high_order_bits, rng):
        active = frozenset(
            step for step in range(num_steps) if float(rng.random()) < rate)
        schedule.add(row, col, TransientFault(bit_position=bit, stuck_type=stuck,
                                              active_steps=active))
    return schedule


def burst_schedule(rows: int, cols: int, num_faulty: int, num_steps: int,
                   burst_length: int,
                   bit_position: Optional[int] = None,
                   stuck_type: Union[StuckAtType, int, str] = 1,
                   fmt: FixedPointFormat = DEFAULT_ACCUMULATOR_FORMAT,
                   high_order_bits: int = 4,
                   seed=None) -> FaultSchedule:
    """Transient schedule where each site fires in one contiguous burst.

    Each site is live on a contiguous window of
    ``min(burst_length, num_steps)`` steps whose start is drawn uniformly
    from the valid range, modelling a latched upset that persists for a
    few time steps before the cell recovers.
    """

    if burst_length < 1:
        raise ValueError("burst_length must be at least 1")
    rng = get_rng(seed)
    length = min(int(burst_length), int(num_steps))
    schedule = FaultSchedule(rows, cols, num_steps, fmt=fmt)
    for (row, col), bit, stuck in _sample_sites(rows, cols, num_faulty,
                                                bit_position, stuck_type, fmt,
                                                high_order_bits, rng):
        start = int(rng.integers(0, num_steps - length + 1))
        schedule.add(row, col, TransientFault(
            bit_position=bit, stuck_type=stuck,
            active_steps=frozenset(range(start, start + length))))
    return schedule


def _cluster_offsets(cluster_size: int) -> List[Coordinate]:
    """Deterministic near-to-far neighbourhood walk around a strike centre.

    Offsets are ordered by Chebyshev ring, then row-major inside a ring,
    so a cluster of size ``k`` always occupies the same shape relative to
    its centre (clipped at the grid edges).
    """

    offsets: List[Coordinate] = []
    radius = 0
    while len(offsets) < cluster_size:
        ring = [(dr, dc)
                for dr in range(-radius, radius + 1)
                for dc in range(-radius, radius + 1)
                if max(abs(dr), abs(dc)) == radius]
        offsets.extend(ring)
        radius += 1
    return offsets


def clustered_schedule(rows: int, cols: int, num_clusters: int, num_steps: int,
                       cluster_size: int = 4,
                       bit_position: Optional[int] = None,
                       stuck_type: Union[StuckAtType, int, str] = 1,
                       fmt: FixedPointFormat = DEFAULT_ACCUMULATOR_FORMAT,
                       high_order_bits: int = 4,
                       seed=None) -> FaultSchedule:
    """Transient schedule of particle-strike clusters.

    Each of the ``num_clusters`` strikes picks a centre PE and a single
    strike step, then upsets up to ``cluster_size`` PEs in the centre's
    Chebyshev neighbourhood (clipped at the grid edges; PEs already hit by
    an earlier cluster are skipped, so clusters never overwrite each
    other).  All PEs of a cluster share the strike step and polarity;
    each samples its own afflicted bit, like the per-site sampling of the
    other generators.
    """

    if num_clusters < 0:
        raise ValueError("num_clusters must be non-negative")
    if cluster_size < 1:
        raise ValueError("cluster_size must be at least 1")
    rng = get_rng(seed)
    stuck = StuckAtType.from_value(stuck_type)
    low = max(0, fmt.magnitude_msb - high_order_bits + 1)
    if high_order_bits < 1:
        raise ValueError("high_order_bits must be at least 1")
    schedule = FaultSchedule(rows, cols, num_steps, fmt=fmt)
    offsets = _cluster_offsets(cluster_size)
    for (centre_row, centre_col) in _sample_coordinates(rows, cols, num_clusters, rng):
        strike_step = int(rng.integers(0, num_steps))
        placed = 0
        for d_row, d_col in offsets:
            if placed >= cluster_size:
                break
            row, col = centre_row + d_row, centre_col + d_col
            if not (0 <= row < rows and 0 <= col < cols):
                continue
            if (row, col) in schedule.faults:
                continue
            if bit_position is None:
                bit = int(rng.integers(low, fmt.magnitude_msb + 1))
            else:
                bit = bit_position
            schedule.add(row, col, TransientFault(
                bit_position=bit, stuck_type=stuck,
                active_steps=frozenset((strike_step,))))
            placed += 1
    return schedule


#: Named rate processes understood by the campaign / scenario layers.
SCHEDULE_PROCESSES = ("bernoulli", "burst", "clustered")


def schedule_from_process(process: str, rows: int, cols: int, num_faulty: int,
                          num_steps: int, *,
                          rate: float = 0.5,
                          burst_length: int = 2,
                          cluster_size: int = 4,
                          bit_position: Optional[int] = None,
                          stuck_type: Union[StuckAtType, int, str] = 1,
                          fmt: FixedPointFormat = DEFAULT_ACCUMULATOR_FORMAT,
                          high_order_bits: int = 4,
                          seed=None) -> FaultSchedule:
    """Dispatch to one of the named rate-process generators.

    ``num_faulty`` counts sites for ``bernoulli``/``burst`` and strike
    clusters for ``clustered``.  Unknown process names raise with the
    available options.
    """

    if process == "bernoulli":
        return bernoulli_schedule(rows, cols, num_faulty, num_steps, rate,
                                  bit_position=bit_position, stuck_type=stuck_type,
                                  fmt=fmt, high_order_bits=high_order_bits, seed=seed)
    if process == "burst":
        return burst_schedule(rows, cols, num_faulty, num_steps, burst_length,
                              bit_position=bit_position, stuck_type=stuck_type,
                              fmt=fmt, high_order_bits=high_order_bits, seed=seed)
    if process == "clustered":
        return clustered_schedule(rows, cols, num_faulty, num_steps,
                                  cluster_size=cluster_size,
                                  bit_position=bit_position, stuck_type=stuck_type,
                                  fmt=fmt, high_order_bits=high_order_bits, seed=seed)
    raise ValueError(
        f"unknown schedule process '{process}'; options: {SCHEDULE_PROCESSES}")
