"""Tests for stuck-at fault models and fault-map generation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import (
    CampaignPoint,
    FaultMap,
    StuckAtFault,
    StuckAtType,
    fault_map_from_rate,
    random_fault_map,
)
from repro.systolic import DEFAULT_ACCUMULATOR_FORMAT

FMT = DEFAULT_ACCUMULATOR_FORMAT


class TestStuckAtType:
    @pytest.mark.parametrize("value,expected", [
        ("sa0", StuckAtType.STUCK_AT_0), ("SA1", StuckAtType.STUCK_AT_1),
        (0, StuckAtType.STUCK_AT_0), (1, StuckAtType.STUCK_AT_1),
        (StuckAtType.STUCK_AT_1, StuckAtType.STUCK_AT_1),
        ("stuck_at_0", StuckAtType.STUCK_AT_0),
    ])
    def test_from_value(self, value, expected):
        assert StuckAtType.from_value(value) is expected

    def test_from_value_invalid(self):
        with pytest.raises(ValueError):
            StuckAtType.from_value("sa2")
        with pytest.raises(ValueError):
            StuckAtType.from_value(3)

    def test_short_name(self):
        assert StuckAtType.STUCK_AT_0.short_name == "sa0"
        assert StuckAtType.STUCK_AT_1.short_name == "sa1"


class TestStuckAtFault:
    def test_describe(self):
        fault = StuckAtFault(bit_position=14, stuck_type="sa1")
        assert fault.describe() == "sa1@bit14"
        assert fault.stuck_value == 1

    def test_invalid_bit(self):
        with pytest.raises(ValueError):
            StuckAtFault(bit_position=-1)

    def test_apply_outside_format_raises(self):
        fault = StuckAtFault(bit_position=20, stuck_type="sa1")
        with pytest.raises(ValueError):
            fault.apply(np.array([1.0]), FMT)

    def test_sa1_high_bit_adds_large_value(self):
        fault = StuckAtFault(bit_position=FMT.magnitude_msb, stuck_type="sa1")
        corrupted = fault.apply(np.array([0.0, 0.5]), FMT)
        assert np.all(corrupted >= 60.0)

    def test_sa0_high_bit_mostly_harmless_for_small_values(self):
        fault = StuckAtFault(bit_position=FMT.magnitude_msb, stuck_type="sa0")
        values = np.array([0.0, 0.5, -0.5, 3.0])
        corrupted = fault.apply(values, FMT)
        assert np.allclose(corrupted[:2], FMT.quantize(values[:2]))

    def test_sa1_more_perturbing_than_sa0_for_positive_values(self):
        # The paper observes stuck-at-1 faults are more perturbing than
        # stuck-at-0.  In two's complement this holds whenever the
        # accumulator values are predominantly positive (their high data
        # bits are 0, so sa1 flips them and sa0 does not).
        rng = np.random.default_rng(0)
        values = np.abs(rng.normal(0.0, 1.0, size=1000))
        bit = FMT.magnitude_msb
        sa1_err = np.abs(StuckAtFault(bit, "sa1").apply(values, FMT) - values).mean()
        sa0_err = np.abs(StuckAtFault(bit, "sa0").apply(values, FMT) - values).mean()
        assert sa1_err > 10 * sa0_err

    def test_high_bit_faults_symmetric_for_zero_mean_values(self):
        # For zero-mean accumulator contents both polarities corrupt roughly
        # half the values by the same magnitude (documented deviation from
        # the paper's Fig. 5a, see EXPERIMENTS.md).
        rng = np.random.default_rng(1)
        values = rng.normal(0.0, 1.0, size=2000)
        bit = FMT.magnitude_msb
        sa1_err = np.abs(StuckAtFault(bit, "sa1").apply(values, FMT) - values).mean()
        sa0_err = np.abs(StuckAtFault(bit, "sa0").apply(values, FMT) - values).mean()
        assert sa1_err == pytest.approx(sa0_err, rel=0.3)


class TestFaultMap:
    def test_add_and_query(self):
        fm = FaultMap(4, 4)
        fm.add(1, 2, StuckAtFault(3, "sa1"))
        assert (1, 2) in fm
        assert len(fm) == 1
        assert fm.fault_rate == pytest.approx(1 / 16)
        assert list(fm.coordinates()) == [(1, 2)]

    def test_out_of_range_coordinate(self):
        fm = FaultMap(4, 4)
        with pytest.raises(ValueError):
            fm.add(4, 0, StuckAtFault(0))

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            FaultMap(0, 4)

    def test_bit_position_beyond_simulation_word_rejected(self):
        """The int64 chain kernel can never force bit 64+: fail at construction."""

        assert StuckAtFault(63).bit_position == 63
        with pytest.raises(ValueError, match="bit_position"):
            StuckAtFault(64)

    def test_format_pinned_map_rejects_out_of_range_bits(self):
        ok = StuckAtFault(FMT.total_bits - 1)
        with pytest.raises(ValueError, match="accumulator format"):
            FaultMap(4, 4, {(0, 0): StuckAtFault(FMT.total_bits)}, fmt=FMT)
        fm = FaultMap(4, 4, fmt=FMT)
        fm.add(0, 0, ok)                      # in-range bit accepted
        with pytest.raises(ValueError, match="accumulator format"):
            fm.add(1, 1, StuckAtFault(FMT.total_bits))
        # Without a pinned format the construction-time check is off.
        unpinned = FaultMap(4, 4, {(0, 0): StuckAtFault(FMT.total_bits)})
        assert len(unpinned) == 1

    def test_describe_mentions_rate(self):
        fm = random_fault_map(8, 8, 16, seed=0)
        assert "25.000%" in fm.describe()


class TestGenerators:
    def test_random_fault_map_count(self):
        fm = random_fault_map(16, 16, 12, seed=0)
        assert len(fm) == 12
        assert fm.rows == 16 and fm.cols == 16

    def test_random_fault_map_unique_coordinates(self):
        fm = random_fault_map(8, 8, 30, seed=1)
        assert len(set(fm.coordinates())) == 30

    def test_random_fault_map_too_many(self):
        with pytest.raises(ValueError):
            random_fault_map(2, 2, 5, seed=0)

    def test_random_fault_map_negative(self):
        with pytest.raises(ValueError):
            random_fault_map(2, 2, -1, seed=0)

    def test_bit_positions_in_high_order_data_bits(self):
        fm = random_fault_map(16, 16, 40, seed=2, high_order_bits=4)
        bits = {fault.bit_position for fault in fm.faults.values()}
        assert all(FMT.magnitude_msb - 3 <= b <= FMT.magnitude_msb for b in bits)

    def test_oversized_sampling_window_clamps_at_bit_zero(self):
        """high_order_bits > magnitude_msb + 1 must not go negative."""

        fm = random_fault_map(16, 16, 60, seed=3,
                              high_order_bits=FMT.magnitude_msb + 50)
        bits = {fault.bit_position for fault in fm.faults.values()}
        assert all(0 <= b <= FMT.magnitude_msb for b in bits)
        # The clamped window spans every data bit, so low bits are reachable.
        assert min(bits) < FMT.magnitude_msb - 3

    def test_window_exactly_all_data_bits_boundary(self):
        fm = random_fault_map(16, 16, 60, seed=4,
                              high_order_bits=FMT.magnitude_msb + 1)
        bits = {fault.bit_position for fault in fm.faults.values()}
        assert all(0 <= b <= FMT.magnitude_msb for b in bits)

    def test_non_positive_high_order_bits_rejected(self):
        with pytest.raises(ValueError, match="high_order_bits"):
            random_fault_map(4, 4, 1, seed=0, high_order_bits=0)

    def test_generated_maps_carry_their_format(self):
        fm = random_fault_map(8, 8, 4, seed=5)
        assert fm.fmt is FMT

    def test_fixed_bit_position(self):
        fm = random_fault_map(8, 8, 5, bit_position=3, stuck_type="sa0", seed=0)
        assert all(f.bit_position == 3 and f.stuck_type is StuckAtType.STUCK_AT_0
                   for f in fm.faults.values())

    def test_determinism_with_seed(self):
        a = random_fault_map(16, 16, 10, seed=42)
        b = random_fault_map(16, 16, 10, seed=42)
        assert a.coordinates() == b.coordinates()

    def test_different_seeds_differ(self):
        a = random_fault_map(16, 16, 10, seed=1)
        b = random_fault_map(16, 16, 10, seed=2)
        assert a.coordinates() != b.coordinates()

    def test_fault_map_from_rate(self):
        fm = fault_map_from_rate(10, 10, 0.30, seed=0)
        assert len(fm) == 30
        assert fm.fault_rate == pytest.approx(0.30)

    def test_fault_map_from_rate_invalid(self):
        with pytest.raises(ValueError):
            fault_map_from_rate(10, 10, 1.5, seed=0)

    def test_trials_are_distinct_and_deterministic(self):
        maps_a = CampaignPoint.for_trials(16, 16, 8, trials=4, seed=5).build_fault_maps()
        maps_b = CampaignPoint.for_trials(16, 16, 8, trials=4, seed=5).build_fault_maps()
        assert len(maps_a) == 4
        assert [m.coordinates() for m in maps_a] == [m.coordinates() for m in maps_b]
        assert maps_a[0].coordinates() != maps_a[1].coordinates()

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            CampaignPoint.for_trials(4, 4, 2, trials=0)

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=16))
    @settings(max_examples=30, deadline=None)
    def test_fault_rate_matches_count(self, size, count):
        if count > size * size:
            return
        fm = random_fault_map(size, size, count, seed=0)
        assert len(fm) == count
        assert fm.fault_rate == pytest.approx(count / (size * size))
