"""Tests for attaching faulty arrays to trained models and the vulnerability sweeps."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.datasets import DataLoader
from repro.faults import (
    FaultInjector,
    build_faulty_array,
    evaluate_with_faults,
    random_fault_map,
    schedule_from_process,
    sweep_array_sizes,
    sweep_bit_locations,
    sweep_faulty_pe_count,
)
from repro.faults.injection import ENGINES
from repro.snn import evaluate
from repro.snn.layers import Conv2d, Linear
from repro.systolic import DEFAULT_ACCUMULATOR_FORMAT, SystolicArray
from tests.conftest import predicted_classes

FMT = DEFAULT_ACCUMULATOR_FORMAT


@pytest.fixture()
def test_loader(tiny_mnist_data):
    _, test = tiny_mnist_data
    return DataLoader(test, batch_size=50)


class TestFaultInjector:
    def test_forwards_restored_after_context(self, trained_tiny_model):
        layers = [m for m in trained_tiny_model.modules() if isinstance(m, (Conv2d, Linear))]
        array = SystolicArray(8, 8)
        with FaultInjector(trained_tiny_model, array):
            assert all("forward" in layer.__dict__ for layer in layers)
        assert all("forward" not in layer.__dict__ for layer in layers)

    def test_fault_free_array_preserves_predictions(self, trained_tiny_model, test_loader):
        inputs, _ = next(iter(test_loader))
        clean = predicted_classes(trained_tiny_model, inputs)
        array = SystolicArray(16, 16)
        with FaultInjector(trained_tiny_model, array):
            faulty = predicted_classes(trained_tiny_model, inputs)
        assert np.array_equal(clean, faulty)

    @pytest.mark.parametrize("outer", ["array", "schedule"])
    def test_nested_injectors_keep_outer_faults(self, trained_tiny_model,
                                                test_loader, outer):
        inputs, _ = next(iter(test_loader))
        if outer == "array":
            faults = build_faulty_array(random_fault_map(
                16, 16, 24, bit_position=FMT.magnitude_msb, stuck_type="sa1",
                seed=3))
        else:
            faults = schedule_from_process("bernoulli", 16, 16, 24, 3, rate=0.7,
                                           bit_position=FMT.magnitude_msb,
                                           fmt=FMT, seed=3)
        trained_tiny_model.eval()
        clean = trained_tiny_model(Tensor(inputs)).data
        with FaultInjector(trained_tiny_model, faults, fmt=FMT):
            faulty = trained_tiny_model(Tensor(inputs)).data
            assert faulty.tobytes() != clean.tobytes()
            with FaultInjector(trained_tiny_model, SystolicArray(16, 16)):
                assert trained_tiny_model(Tensor(inputs)).data.tobytes() \
                    == clean.tobytes()
            # The outer faults are back once the inner injector exits.
            assert trained_tiny_model(Tensor(inputs)).data.tobytes() \
                == faulty.tobytes()
        assert "forward" not in trained_tiny_model.__dict__
        assert trained_tiny_model(Tensor(inputs)).data.tobytes() == clean.tobytes()

    def test_build_faulty_array_bypass_flag(self):
        fm = random_fault_map(8, 8, 4, seed=0)
        plain = build_faulty_array(fm)
        bypassed = build_faulty_array(fm, bypass=True)
        assert len(plain.bypassed_coordinates) == 0
        assert bypassed.bypassed_coordinates == set(fm.coordinates())


class TestEvaluateWithFaults:
    def test_requires_map_or_array(self, trained_tiny_model, test_loader):
        with pytest.raises(ValueError, match="at least one"):
            evaluate_with_faults(trained_tiny_model, test_loader, [])

    def test_rejects_mixed_maps_and_schedules(self, trained_tiny_model,
                                              test_loader):
        fm = random_fault_map(16, 16, 2, seed=1)
        schedule = schedule_from_process("bernoulli", 16, 16, 2, 3, fmt=FMT,
                                         seed=1)
        for faults in ([fm, schedule], [schedule, fm]):
            with pytest.raises(ValueError, match="all FaultMaps or all"):
                evaluate_with_faults(trained_tiny_model, test_loader, faults)

    def test_rejects_bypass_with_schedules(self, trained_tiny_model,
                                           test_loader):
        schedule = schedule_from_process("bernoulli", 16, 16, 2, 3, fmt=FMT,
                                         seed=1)
        with pytest.raises(ValueError, match="bypass.*transient"):
            evaluate_with_faults(trained_tiny_model, test_loader, [schedule],
                                 bypass=True)

    def test_matches_baseline_without_faults(self, trained_tiny_model, test_loader,
                                             trained_tiny_model_state):
        fm = random_fault_map(16, 16, 0, seed=0)
        (acc,) = evaluate_with_faults(trained_tiny_model, test_loader, [fm])
        assert acc == pytest.approx(trained_tiny_model_state["test_accuracy"], abs=0.05)

    def test_msb_faults_degrade_accuracy(self, trained_tiny_model, test_loader):
        clean = evaluate(trained_tiny_model, test_loader)
        fm = random_fault_map(16, 16, 24, bit_position=FMT.magnitude_msb,
                              stuck_type="sa1", seed=3)
        (faulty,) = evaluate_with_faults(trained_tiny_model, test_loader, [fm])
        assert faulty < clean - 0.2

    def test_bypass_recovers_most_accuracy(self, trained_tiny_model, test_loader):
        fm = random_fault_map(16, 16, 8, bit_position=FMT.magnitude_msb,
                              stuck_type="sa1", seed=3)
        (corrupted,) = evaluate_with_faults(trained_tiny_model, test_loader, [fm])
        (bypassed,) = evaluate_with_faults(trained_tiny_model, test_loader, [fm],
                                           bypass=True)
        assert bypassed >= corrupted

    def test_model_mode_restored(self, trained_tiny_model, test_loader):
        fm = random_fault_map(16, 16, 2, seed=1)
        for engine in ENGINES:
            trained_tiny_model.train()
            evaluate_with_faults(trained_tiny_model, test_loader, [fm],
                                 engine=engine)
            assert trained_tiny_model.training, engine


class TestVulnerabilitySweeps:
    def test_bit_location_sweep_records(self, trained_tiny_model, test_loader):
        records = sweep_bit_locations(trained_tiny_model, test_loader, rows=16, cols=16,
                                      bit_positions=(0, FMT.magnitude_msb),
                                      stuck_types=("sa1",), num_faulty=6, trials=1,
                                      dataset="mnist", seed=0)
        assert len(records) == 2
        by_bit = {r["bit_position"]: r["accuracy"] for r in records}
        # LSB faults are benign, high-order-bit faults are destructive.
        assert by_bit[0] > by_bit[FMT.magnitude_msb]
        assert all(r["dataset"] == "mnist" for r in records)

    def test_pe_count_sweep_monotone_trend(self, trained_tiny_model, test_loader):
        records = sweep_faulty_pe_count(trained_tiny_model, test_loader, rows=16, cols=16,
                                        counts=(0, 4, 32), trials=2, seed=0)
        accuracies = [r["accuracy"] for r in records]
        assert accuracies[0] >= accuracies[1] >= accuracies[2] - 0.05
        assert records[0]["num_faulty_pes"] == 0
        assert records[-1]["fault_rate"] == pytest.approx(32 / 256)

    def test_array_size_sweep_small_arrays_worse(self, trained_tiny_model, test_loader):
        records = sweep_array_sizes(trained_tiny_model, test_loader, sizes=(4, 32),
                                    num_faulty=2, trials=2, seed=0)
        small = next(r for r in records if r["array_size"] == 4)
        large = next(r for r in records if r["array_size"] == 32)
        assert small["accuracy"] <= large["accuracy"] + 0.05
        assert large["total_pes"] == 1024

    def test_array_size_sweep_rejects_impossible(self, trained_tiny_model, test_loader):
        with pytest.raises(ValueError):
            sweep_array_sizes(trained_tiny_model, test_loader, sizes=(2,), num_faulty=10)
