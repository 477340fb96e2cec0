"""Tests for the systolic array simulator: mapping, faulty matmul/conv."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import StuckAtFault, random_fault_map
from repro.systolic import (
    DEFAULT_ACCUMULATOR_FORMAT,
    FixedPointFormat,
    SystolicArray,
    as_weight_matrix,
    faulty_weight_mask,
    faulty_mask_for_layer_weight,
    pe_coordinates,
    tile_counts,
)

FMT = DEFAULT_ACCUMULATOR_FORMAT


class TestMapping:
    def test_as_weight_matrix_linear(self):
        w = np.zeros((5, 7))
        assert as_weight_matrix(w).shape == (5, 7)

    def test_as_weight_matrix_conv(self):
        w = np.zeros((8, 3, 3, 3))
        assert as_weight_matrix(w).shape == (8, 27)

    def test_as_weight_matrix_invalid_rank(self):
        with pytest.raises(ValueError):
            as_weight_matrix(np.zeros((2, 2, 2)))

    def test_pe_coordinates_modulo(self):
        rows, cols = pe_coordinates((6, 10), rows=4, cols=4)
        assert rows.shape == (6, 10)
        assert rows[0, 5] == 1   # input index 5 -> row 5 % 4
        assert cols[5, 0] == 1   # output index 5 -> col 5 % 4

    def test_faulty_weight_mask_hits_expected_entries(self):
        mask = faulty_weight_mask([(1, 2)], weight_shape=(8, 8), rows=4, cols=4)
        expected = np.zeros((8, 8), dtype=bool)
        for o in (2, 6):
            for i in (1, 5):
                expected[o, i] = True
        assert np.array_equal(mask, expected)

    def test_faulty_weight_mask_empty(self):
        mask = faulty_weight_mask([], (4, 4), 2, 2)
        assert not mask.any()

    def test_faulty_weight_mask_out_of_range(self):
        with pytest.raises(ValueError):
            faulty_weight_mask([(5, 0)], (4, 4), 2, 2)

    def test_mask_for_conv_weight_shape(self):
        w = np.zeros((6, 2, 3, 3))
        mask = faulty_mask_for_layer_weight(w, [(0, 0)], rows=8, cols=8)
        assert mask.shape == w.shape

    def test_tile_counts(self):
        assert tile_counts((10, 33), rows=16, cols=8) == (3, 2)
        assert tile_counts((8, 16), rows=16, cols=8) == (1, 1)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
           st.integers(min_value=2, max_value=8), st.integers(min_value=2, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_every_weight_maps_to_exactly_one_pe(self, out_f, in_f, rows, cols):
        row_map, col_map = pe_coordinates((out_f, in_f), rows, cols)
        assert np.all((row_map >= 0) & (row_map < rows))
        assert np.all((col_map >= 0) & (col_map < cols))

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=2, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_all_faulty_pes_prune_everything(self, rows, cols):
        coords = [(r, c) for r in range(rows) for c in range(cols)]
        mask = faulty_weight_mask(coords, (rows * 2, cols * 2), rows, cols)
        assert mask.all()


class TestSystolicArrayMatmul:
    def test_fault_free_matches_numpy(self):
        rng = np.random.default_rng(0)
        array = SystolicArray(8, 8)
        w = rng.normal(size=(10, 20))
        x = rng.normal(size=(5, 20))
        b = rng.normal(size=10)
        assert np.allclose(array.matmul(w, x, bias=b), x @ w.T + b)

    def test_conv_weight_accepted(self):
        rng = np.random.default_rng(1)
        array = SystolicArray(8, 8)
        w = rng.normal(size=(4, 2, 3, 3))
        x = rng.normal(size=(3, 18))
        assert np.allclose(array.matmul(w, x), x @ w.reshape(4, -1).T)

    def test_input_feature_mismatch(self):
        array = SystolicArray(4, 4)
        with pytest.raises(ValueError):
            array.matmul(np.zeros((3, 5)), np.zeros((2, 4)))

    def test_input_must_be_2d(self):
        array = SystolicArray(4, 4)
        with pytest.raises(ValueError):
            array.matmul(np.zeros((3, 4)), np.zeros(4))

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            SystolicArray(0, 4)

    def test_inject_fault_out_of_range(self):
        array = SystolicArray(4, 4)
        with pytest.raises(ValueError):
            array.inject_fault(4, 0, StuckAtFault(0, "sa1"))

    def test_msb_sa1_fault_corrupts_affected_columns(self):
        rng = np.random.default_rng(2)
        array = SystolicArray(4, 4)
        w = rng.normal(size=(4, 4)) * 0.1
        x = rng.normal(size=(3, 4)) * 0.1
        clean = x @ w.T
        array.inject_fault(0, 1, StuckAtFault(FMT.magnitude_msb, "sa1"))
        faulty = array.matmul(w, x)
        # Only column 1 is corrupted, and the corruption is large (the forced
        # high-order bit adds half the full-scale range to positive sums).
        assert np.allclose(np.delete(faulty, 1, axis=1), np.delete(clean, 1, axis=1))
        assert np.max(np.abs(faulty[:, 1] - clean[:, 1])) > 10.0

    def test_lsb_fault_small_perturbation(self):
        rng = np.random.default_rng(3)
        array = SystolicArray(4, 4)
        w = rng.normal(size=(8, 8))
        x = rng.normal(size=(5, 8))
        clean = x @ w.T
        array.inject_fault(2, 0, StuckAtFault(0, "sa0"))
        faulty = array.matmul(w, x)
        assert np.max(np.abs(faulty - clean)) < 1.0

    def test_fault_in_unused_column_is_harmless(self):
        rng = np.random.default_rng(4)
        array = SystolicArray(8, 8)
        w = rng.normal(size=(3, 8))   # only columns 0..2 used
        x = rng.normal(size=(4, 8))
        array.inject_fault(0, 6, StuckAtFault(FMT.magnitude_msb, "sa1"))
        assert np.allclose(array.matmul(w, x), x @ w.T)

    def test_bypass_equivalent_to_pruned_weights(self):
        rng = np.random.default_rng(5)
        array = SystolicArray(4, 4)
        w = rng.normal(size=(8, 8))
        x = rng.normal(size=(6, 8))
        fault_map = random_fault_map(4, 4, 3, bit_position=FMT.magnitude_msb, seed=1)
        array.load_fault_map(fault_map)
        array.bypass_faulty_pes()
        result = array.matmul(w, x)
        mask = faulty_weight_mask(fault_map.coordinates(), w.shape, 4, 4)
        pruned = np.where(mask, 0.0, w)
        assert np.allclose(result, x @ pruned.T)

    def test_clear_faults_restores_exact_result(self):
        rng = np.random.default_rng(6)
        array = SystolicArray(4, 4)
        array.inject_fault(1, 1, StuckAtFault(FMT.magnitude_msb, "sa1"))
        array.clear_faults()
        w = rng.normal(size=(6, 6))
        x = rng.normal(size=(2, 6))
        assert np.allclose(array.matmul(w, x), x @ w.T)

    def test_multiple_faults_in_same_column_applied_in_row_order(self):
        array = SystolicArray(4, 1, fmt=FixedPointFormat(16, 8))
        # Single column; two sa0 faults clearing everything do not explode.
        array.inject_fault(0, 0, StuckAtFault(0, "sa0"))
        array.inject_fault(2, 0, StuckAtFault(1, "sa0"))
        w = np.full((1, 4), 0.25)
        x = np.ones((1, 4))
        out = array.matmul(w, x)
        assert np.isfinite(out).all()

    def test_reuse_amplifies_fault_on_small_array(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(16, 32)) * 0.2
        x = (rng.random((8, 32)) > 0.5).astype(float)
        clean = x @ w.T
        fault = StuckAtFault(FMT.magnitude_msb, "sa1")

        def corruption(size):
            array = SystolicArray(size, size)
            array.inject_fault(0, 0, fault)
            return np.abs(array.matmul(w, x) - clean).mean()

        assert corruption(4) > corruption(16)

    def test_fault_sites_and_repr(self):
        array = SystolicArray(4, 4)
        array.inject_fault(1, 2, StuckAtFault(3, "sa0"))
        assert repr(array).startswith("SystolicArray(4x4, faults=1, ")
        array.bypass_faulty_pes()
        assert array.bypassed_coordinates == {(1, 2)}


class TestSystolicConv:
    def test_fault_free_conv_matches_software(self):
        from repro.autograd import Tensor, conv2d

        rng = np.random.default_rng(8)
        array = SystolicArray(16, 16)
        w = rng.normal(size=(4, 2, 3, 3))
        x = rng.normal(size=(2, 2, 8, 8))
        b = rng.normal(size=4)
        hw = array.conv2d(w, x, bias=b, stride=1, padding=1)
        sw = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=1).data
        assert np.allclose(hw, sw)

    def test_faulty_conv_differs(self):
        rng = np.random.default_rng(9)
        array = SystolicArray(8, 8)
        w = rng.normal(size=(4, 2, 3, 3))
        x = rng.normal(size=(1, 2, 8, 8))
        clean = array.conv2d(w, x)
        array.inject_fault(0, 0, StuckAtFault(FMT.magnitude_msb, "sa1"))
        faulty = array.conv2d(w, x)
        assert not np.allclose(clean, faulty)
