"""Equivalence tests: multi-fault-map simulation vs the sequential oracle.

The fused engine relies on a :class:`FaultyAffineRunner` over a
``BatchedSystolicArray`` producing per-map results that are
**bit-identical** (``tobytes()`` equality, which tells ``-0.0`` from
``+0.0``; ``np.array_equal`` would not) to independent
``SystolicArray.matmul`` / ``conv2d`` calls.  These tests pin that property
for fault-free maps, sa0/sa1 faults, bypassed PEs, linear and
convolutional layers, shared (fork-entry) and per-map activations, and a
randomized sweep of shapes and fault structures seeded via ``utils.rng``.
"""

import numpy as np
import pytest

from repro.faults import StuckAtFault, random_fault_map
from repro.systolic import (
    BatchedSystolicArray,
    DEFAULT_ACCUMULATOR_FORMAT,
    FixedPointFormat,
    SystolicArray,
)
from repro.snn.inference.faulty_gemm import FaultyAffineRunner
from repro.snn.inference.plan import AffineSpec
from repro.utils.rng import get_rng
from tests.conftest import assert_same_bytes, run_faulty_affine

FMT = DEFAULT_ACCUMULATOR_FORMAT


def random_arrays(rng, rows, cols, num_maps, max_faults=7, allow_bypass=True):
    """Arrays with random faults, polarities, bits and bypass states."""

    arrays = []
    for _ in range(num_maps):
        count = int(rng.integers(0, min(max_faults, rows * cols) + 1))
        fault_map = random_fault_map(
            rows, cols, count, bit_position=None,
            stuck_type=int(rng.integers(0, 2)), seed=int(rng.integers(0, 2**31)))
        array = SystolicArray(rows, cols)
        array.load_fault_map(fault_map)
        if allow_bypass:
            roll = rng.random()
            if roll < 0.3:
                array.bypass_faulty_pes()
            elif roll < 0.5 and count:
                array.set_bypass(fault_map.coordinates()[: max(1, count // 2)])
        arrays.append(array)
    return arrays


class TestMatmulBatchedEquivalence:
    def test_fault_free_maps_match_sequential(self):
        rng = get_rng(0)
        arrays = [SystolicArray(8, 8) for _ in range(4)]
        weight = rng.normal(size=(10, 20))
        inputs = rng.normal(size=(4, 5, 20))
        result = run_faulty_affine(arrays, weight, inputs)
        for f, array in enumerate(arrays):
            assert_same_bytes(result[f], array.matmul(weight, inputs[f]))

    @pytest.mark.parametrize("stuck", ["sa0", "sa1"])
    def test_single_polarity_faults_bit_identical(self, stuck):
        rng = get_rng(1)
        arrays = []
        for seed in range(5):
            fault_map = random_fault_map(8, 8, 5, bit_position=FMT.magnitude_msb,
                                         stuck_type=stuck, seed=seed)
            array = SystolicArray(8, 8)
            array.load_fault_map(fault_map)
            arrays.append(array)
        weight = rng.normal(size=(12, 30))
        inputs = (rng.random((5, 6, 30)) > 0.5).astype(float)
        result = run_faulty_affine(arrays, weight, inputs)
        for f, array in enumerate(arrays):
            assert_same_bytes(result[f], array.matmul(weight, inputs[f]))

    def test_bypassed_maps_bit_identical(self):
        rng = get_rng(2)
        arrays = []
        for seed in range(4):
            fault_map = random_fault_map(6, 6, 4, bit_position=FMT.magnitude_msb,
                                         stuck_type="sa1", seed=seed)
            array = SystolicArray(6, 6)
            array.load_fault_map(fault_map)
            if seed % 2 == 0:
                array.bypass_faulty_pes()
            arrays.append(array)
        weight = rng.normal(size=(9, 14))
        inputs = rng.normal(size=(4, 3, 14))
        bias = rng.normal(size=9)
        result = run_faulty_affine(arrays, weight, inputs, bias=bias)
        for f, array in enumerate(arrays):
            assert_same_bytes(result[f], array.matmul(weight, inputs[f], bias=bias))

    def test_shared_2d_inputs_bit_identical(self):
        rng = get_rng(3)
        arrays = random_arrays(rng, 5, 7, 6)
        weight = rng.normal(size=(11, 23))
        inputs = rng.normal(size=(4, 23))
        result = run_faulty_affine(arrays, weight, inputs, shared=True)
        for f, array in enumerate(arrays):
            assert_same_bytes(result[f], array.matmul(weight, inputs))

    def test_randomized_shapes_and_fault_structures(self):
        rng = get_rng(42)
        for _ in range(25):
            rows = int(rng.integers(2, 10))
            cols = int(rng.integers(2, 10))
            out_f = int(rng.integers(1, 40))
            in_f = int(rng.integers(1, 40))
            batch = int(rng.integers(1, 7))
            num_maps = int(rng.integers(1, 7))
            weight = rng.normal(size=(out_f, in_f)) * 2
            inputs = rng.random((num_maps, batch, in_f)) * 3 - 1
            bias = rng.normal(size=out_f) if rng.random() < 0.5 else None
            arrays = random_arrays(rng, rows, cols, num_maps)
            batched = run_faulty_affine(arrays, weight, inputs, bias=bias)
            for f, array in enumerate(arrays):
                assert_same_bytes(batched[f], array.matmul(weight, inputs[f], bias=bias))

    def test_multiple_faults_in_one_column(self):
        rng = get_rng(4)
        array = SystolicArray(6, 4)
        array.inject_fault(0, 1, StuckAtFault(3, "sa1"))
        array.inject_fault(2, 1, StuckAtFault(FMT.magnitude_msb, "sa0"))
        array.inject_fault(5, 1, StuckAtFault(7, "sa1"))
        clean = SystolicArray(6, 4)
        weight = rng.normal(size=(8, 13))
        inputs = rng.normal(size=(2, 3, 13))
        batched = run_faulty_affine([array, clean], weight, inputs)
        assert_same_bytes(batched[0], array.matmul(weight, inputs[0]))
        assert_same_bytes(batched[1], clean.matmul(weight, inputs[1]))

    def test_prepared_weight_reuse_is_identical(self):
        rng = get_rng(6)
        arrays = random_arrays(rng, 5, 5, 4)
        batched = BatchedSystolicArray(arrays)
        weight = rng.normal(size=(7, 12))
        runner = FaultyAffineRunner(batched, batched.prepare_weight(weight),
                                    AffineSpec("linear", weight, None))
        first = rng.normal(size=(4, 3, 12))
        second = rng.normal(size=(4, 3, 12))
        runner.run(first)
        assert_same_bytes(runner.run(second), run_faulty_affine(arrays, weight, second))


class TestConv2dBatchedEquivalence:
    def test_conv_bit_identical_per_map(self):
        rng = get_rng(7)
        arrays = random_arrays(rng, 8, 8, 4)
        weight = rng.normal(size=(4, 2, 3, 3))
        x = rng.normal(size=(4, 3, 2, 8, 8))
        bias = rng.normal(size=4)
        batched = run_faulty_affine(arrays, weight, x, bias=bias, kind="conv",
                           stride=1, padding=1)
        for f, array in enumerate(arrays):
            expected = array.conv2d(weight, x[f], bias=bias, stride=1, padding=1)
            assert_same_bytes(batched[f], expected)

    def test_conv_shared_inputs_bit_identical(self):
        rng = get_rng(8)
        arrays = random_arrays(rng, 6, 6, 5)
        weight = rng.normal(size=(3, 1, 3, 3))
        x = rng.normal(size=(2, 1, 6, 6))
        batched = run_faulty_affine(arrays, weight, x, shared=True, kind="conv", padding=1)
        for f, array in enumerate(arrays):
            expected = array.conv2d(weight, x, padding=1)
            assert_same_bytes(batched[f], expected)

    def test_conv_weight_through_matmul(self):
        rng = get_rng(9)
        arrays = random_arrays(rng, 8, 8, 3)
        weight = rng.normal(size=(4, 2, 3, 3))   # 4D accepted by matmul too
        inputs = rng.normal(size=(3, 5, 18))
        batched = run_faulty_affine(arrays, weight, inputs)
        for f, array in enumerate(arrays):
            assert_same_bytes(batched[f], array.matmul(weight, inputs[f]))


class TestBatchedArrayValidation:
    def test_empty_array_list_rejected(self):
        with pytest.raises(ValueError):
            BatchedSystolicArray([])

    def test_mismatched_dimensions_rejected(self):
        with pytest.raises(ValueError):
            BatchedSystolicArray([SystolicArray(4, 4), SystolicArray(4, 5)])

    def test_mismatched_formats_rejected(self):
        with pytest.raises(ValueError):
            BatchedSystolicArray([
                SystolicArray(4, 4),
                SystolicArray(4, 4, fmt=FixedPointFormat(12, 6)),
            ])

    def test_feature_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_faulty_affine([SystolicArray(4, 4)], np.zeros((3, 5)), np.zeros((1, 2, 4)))

    def test_num_maps(self):
        assert BatchedSystolicArray([SystolicArray(2, 2)] * 3).num_maps == 3
