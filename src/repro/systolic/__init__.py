"""Systolic-array SNN accelerator (systolicSNN) simulator.

Functional, bit-accurate-at-the-accumulator model of the weight-stationary
PE grid the paper evaluates, plus fixed-point arithmetic and weight-to-PE
mapping.
"""

from .fixed_point import DEFAULT_ACCUMULATOR_FORMAT, FixedPointFormat
from .mapping import (
    as_weight_matrix,
    faulty_mask_for_layer_weight,
    faulty_weight_mask,
    pe_coordinates,
    tile_counts,
)
from .array import BatchedSystolicArray, FaultSite, SystolicArray
from . import chain_kernel
from .chain_kernel import StuckAtKernel

__all__ = [
    "DEFAULT_ACCUMULATOR_FORMAT",
    "FixedPointFormat",
    "as_weight_matrix",
    "faulty_mask_for_layer_weight",
    "faulty_weight_mask",
    "pe_coordinates",
    "tile_counts",
    "BatchedSystolicArray",
    "FaultSite",
    "StuckAtKernel",
    "SystolicArray",
    "chain_kernel",
]
