"""Tests for the energy / area model of the systolicSNN accelerator."""

import pytest

from repro.systolic import (
    BYPASS_AREA_OVERHEAD,
    EnergyModel,
    LayerWorkload,
    compare_snn_vs_ann,
)


WORKLOADS = [
    LayerWorkload("conv1", out_features=8, in_features=72, vectors=512),
    LayerWorkload("fc1", out_features=32, in_features=128, vectors=16),
]


class TestEnergyModel:
    def test_invalid_widths(self):
        with pytest.raises(ValueError):
            EnergyModel(accumulator_bits=0)

    def test_snn_pe_cheaper_than_ann_pe(self):
        model = EnergyModel()
        assert model.snn_accumulate_pj < model.ann_mac_pj
        assert model.pe_energy_ratio > 5.0

    def test_wider_accumulator_costs_more(self):
        narrow = EnergyModel(accumulator_bits=8)
        wide = EnergyModel(accumulator_bits=32)
        assert wide.snn_accumulate_pj > narrow.snn_accumulate_pj

    def test_layer_energy_scales_with_spike_rate(self):
        model = EnergyModel()
        dense = model.layer_energy_pj(WORKLOADS[0], spike_rate=1.0)
        sparse = model.layer_energy_pj(WORKLOADS[0], spike_rate=0.1)
        assert sparse < dense

    def test_layer_energy_invalid_args(self):
        model = EnergyModel()
        with pytest.raises(ValueError):
            model.layer_energy_pj(WORKLOADS[0], spike_rate=1.5)
        with pytest.raises(ValueError):
            model.layer_energy_pj(WORKLOADS[0], style="tpu")

    def test_ann_ignores_spike_rate(self):
        model = EnergyModel()
        assert model.layer_energy_pj(WORKLOADS[0], 0.1, style="ann") == pytest.approx(
            model.layer_energy_pj(WORKLOADS[0], 1.0, style="ann"))

    def test_network_energy_sums_layers(self):
        model = EnergyModel()
        total = model.network_energy_pj(WORKLOADS)
        parts = sum(model.layer_energy_pj(w) for w in WORKLOADS)
        assert total == pytest.approx(parts)

    def test_network_energy_rate_length_mismatch(self):
        model = EnergyModel()
        with pytest.raises(ValueError):
            model.network_energy_pj(WORKLOADS, spike_rates=[0.5])


class TestAreaModel:
    def test_snn_array_smaller_than_ann(self):
        model = EnergyModel()
        assert model.array_area(32, 32, style="snn") < model.array_area(32, 32, style="ann")

    def test_bypass_overhead_matches_paper(self):
        model = EnergyModel()
        overhead = model.bypass_area_overhead(256, 256)
        assert overhead == pytest.approx(BYPASS_AREA_OVERHEAD)
        assert overhead == pytest.approx(0.08)

    def test_invalid_style_and_dims(self):
        model = EnergyModel()
        with pytest.raises(ValueError):
            model.array_area(0, 4)
        with pytest.raises(ValueError):
            model.array_area(4, 4, style="gpu")

    def test_invalid_style_rejected_before_area_selection(self):
        """Style validation must precede the per-PE area pick, for every flag."""

        model = EnergyModel()
        for with_bypass in (False, True):
            with pytest.raises(ValueError, match="style"):
                model.array_area(4, 4, style="tpu", with_bypass=with_bypass)
        # Valid styles still pick the matching per-PE area.
        assert model.array_area(2, 2, style="ann") > model.array_area(2, 2,
                                                                      style="snn")


class TestComparison:
    def test_compare_summary_keys_and_ordering(self):
        summary = compare_snn_vs_ann(WORKLOADS, rows=16, cols=16, spike_rates=[0.2, 0.1])
        assert summary["snn_energy_pj"] < summary["ann_energy_pj"]
        assert summary["energy_ratio_ann_over_snn"] > 1.0
        assert summary["total_cycles"] > 0
        assert 0.0 <= summary["average_utilization"] <= 1.0
        assert summary["bypass_area_overhead"] == pytest.approx(0.08)
