"""Fault models for the systolicSNN accelerator.

The paper studies *stuck-at faults* in the accumulator output of PEs: a
manufacturing defect forces one output bit permanently to 0 (stuck-at-0) or
1 (stuck-at-1).  The fault is applied to the two's-complement fixed-point
code of the accumulator value in every execution cycle.

Two further classes extend the paper's permanent datapath model:

* :class:`WeightSRAMFault` -- a stuck-at bit in a PE's *weight storage*
  instead of its accumulator datapath: the quantised weight tile held by
  the PE is corrupted once, ahead of the GEMM, and the (otherwise clean)
  accumulation then runs over the corrupted weights.
* :class:`TransientFault` -- a per-time-step (SEU-style) upset: the same
  stuck-at bit forcing, but live only on an explicit set of SNN time
  steps.  Schedules of transient faults live in
  :class:`repro.faults.fault_map.FaultSchedule`.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import FrozenSet, Union

import numpy as np

from ..systolic.fixed_point import FixedPointFormat


class StuckAtType(enum.Enum):
    """Polarity of a stuck-at fault."""

    STUCK_AT_0 = 0
    STUCK_AT_1 = 1

    @classmethod
    def from_value(cls, value: Union["StuckAtType", int, str]) -> "StuckAtType":
        """Coerce 0/1, "sa0"/"sa1" or an existing enum member into a :class:`StuckAtType`."""

        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            key = value.strip().lower()
            if key in ("sa0", "stuck_at_0", "0"):
                return cls.STUCK_AT_0
            if key in ("sa1", "stuck_at_1", "1"):
                return cls.STUCK_AT_1
            raise ValueError(f"unknown stuck-at type '{value}'")
        if value in (0, 1):
            return cls(value)
        raise ValueError(f"unknown stuck-at type {value!r}")

    @property
    def short_name(self) -> str:
        return "sa0" if self is StuckAtType.STUCK_AT_0 else "sa1"


@dataclasses.dataclass(frozen=True)
class StuckAtFault:
    """A stuck-at fault on one bit of a PE accumulator output.

    Parameters
    ----------
    bit_position:
        Index of the afflicted bit, 0 = least significant bit.  The most
        significant (sign) bit of a ``b``-bit format is ``b - 1``.
    stuck_type:
        :class:`StuckAtType` polarity (or anything accepted by
        :meth:`StuckAtType.from_value`).
    """

    bit_position: int
    stuck_type: StuckAtType = StuckAtType.STUCK_AT_1

    #: Hard ceiling on representable bit positions: the vectorised chain
    #: kernel builds its forcing masks as ``int64`` words, so a fault beyond
    #: bit 63 could never be applied by any accumulator format we simulate.
    MAX_BIT_POSITION = 63

    #: Whether the fault corrupts the PE's stored weights (ahead of the
    #: GEMM) instead of its accumulator datapath.  The simulators dispatch
    #: on this flag, so subclasses do not need isinstance checks.
    corrupts_weights = False

    def __post_init__(self) -> None:
        if self.bit_position < 0:
            raise ValueError("bit_position must be non-negative")
        if self.bit_position > self.MAX_BIT_POSITION:
            raise ValueError(
                f"bit_position {self.bit_position} exceeds the "
                f"{self.MAX_BIT_POSITION + 1}-bit simulation word")
        object.__setattr__(self, "stuck_type", StuckAtType.from_value(self.stuck_type))

    @property
    def stuck_value(self) -> int:
        return self.stuck_type.value

    def apply(self, values: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
        """Apply this fault to real-valued accumulator contents.

        The values are quantised to ``fmt``, the afflicted bit is forced, and
        the corrupted codes are converted back to real values.
        """

        if self.bit_position >= fmt.total_bits:
            raise ValueError(
                f"bit {self.bit_position} outside the {fmt.total_bits}-bit accumulator")
        return fmt.apply_stuck_at(np.asarray(values, dtype=np.float64),
                                  self.bit_position, self.stuck_value)

    def describe(self) -> str:
        """Short human-readable description, e.g. ``"sa1@bit14"``."""

        return f"{self.stuck_type.short_name}@bit{self.bit_position}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


@dataclasses.dataclass(frozen=True)
class WeightSRAMFault(StuckAtFault):
    """A stuck-at bit in the weight SRAM of one PE.

    Unlike the datapath :class:`StuckAtFault`, which corrupts the partial
    sum flowing through the PE on *every* accumulation cycle, a weight-SRAM
    fault corrupts the quantised weight values stored in the PE exactly
    once, before the GEMM runs: every weight element mapped to the faulty
    PE has ``bit_position`` of its fixed-point code forced to the stuck
    value, and the (otherwise clean) column accumulation then uses the
    corrupted weights.  Bypassing the PE masks the fault (its weight
    contribution is skipped entirely), exactly as for datapath faults.
    """

    corrupts_weights = True

    def describe(self) -> str:
        return f"sram-{super().describe()}"


@dataclasses.dataclass(frozen=True)
class TransientFault:
    """A transient (SEU-style) stuck-at upset on one PE accumulator bit.

    The corruption applied while the fault is live is exactly the
    permanent :class:`StuckAtFault` bit forcing; ``active_steps`` pins the
    SNN time steps (0-based) on which the fault fires.  Outside those
    steps the PE behaves cleanly.

    Validation reuses the :class:`StuckAtFault` rules (non-negative bit
    position, ``> 63`` rejected at construction).
    """

    bit_position: int
    stuck_type: StuckAtType = StuckAtType.STUCK_AT_1
    active_steps: FrozenSet[int] = frozenset()

    def __post_init__(self) -> None:
        # Delegate bit/polarity validation to the permanent fault class so
        # the two models can never drift apart.
        probe = StuckAtFault(self.bit_position, self.stuck_type)
        object.__setattr__(self, "stuck_type", probe.stuck_type)
        steps = frozenset(int(step) for step in self.active_steps)
        if any(step < 0 for step in steps):
            raise ValueError("active_steps must be non-negative time steps")
        object.__setattr__(self, "active_steps", steps)

    @property
    def stuck_value(self) -> int:
        return self.stuck_type.value

    def is_active(self, step: int) -> bool:
        """Whether the fault is live at SNN time step ``step``."""

        return int(step) in self.active_steps

    def as_stuck_at(self) -> StuckAtFault:
        """The permanent fault applied on the steps this fault is live."""

        return StuckAtFault(self.bit_position, self.stuck_type)

    def describe(self) -> str:
        steps = ",".join(str(s) for s in sorted(self.active_steps))
        return (f"{self.stuck_type.short_name}@bit{self.bit_position}"
                f"@t[{steps}]")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()
