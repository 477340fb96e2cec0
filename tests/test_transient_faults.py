"""Differential suite for the transient / weight-SRAM fault models.

Pins the fused engine byte-identical (``tobytes``) to the
sequential per-schedule oracle under transient fault schedules, covers the
boundary cases of the step-resolved semantics (fault live only at the
first or last step, all steps == permanent stuck-at, empty schedule ==
clean), property-tests the rate-process generators with Hypothesis, and
freezes the campaign cache-key schema: the three fault models key
distinctly while pre-existing stuck-at keys are pinned by golden digests.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import DataLoader
from repro.faults import (
    CampaignPoint,
    CampaignRunner,
    FaultMap,
    FaultSchedule,
    SCHEDULE_PROCESSES,
    StuckAtFault,
    TransientFault,
    WeightSRAMFault,
    bernoulli_schedule,
    burst_schedule,
    clustered_schedule,
    evaluate_with_faults,
    random_weight_fault_map,
    schedule_from_process,
    schedule_phases,
)
from repro.faults.injection import ENGINES
from repro.snn import evaluate
from repro.systolic import DEFAULT_ACCUMULATOR_FORMAT, SystolicArray
from repro.systolic.array import apply_weight_faults
from repro.utils.rng import derive_seed

FMT = DEFAULT_ACCUMULATOR_FORMAT
ROWS = COLS = 16
#: The tiny test model runs 3 SNN time steps (see ``build_tiny_mnist_model``).
STEPS = 3


@pytest.fixture()
def test_loader(tiny_mnist_data):
    _, test = tiny_mnist_data
    return DataLoader(test, batch_size=50)


def _accuracy_bytes(accuracies) -> bytes:
    return np.asarray(accuracies, dtype=np.float64).tobytes()


def _schedules(process: str, trials: int = 2, num_faulty: int = 6):
    return [
        schedule_from_process(process, ROWS, COLS, num_faulty, STEPS,
                              fmt=FMT, seed=derive_seed(9, "tf", process, t))
        for t in range(trials)
    ]


def _single_site_schedule(active_steps, num_sites: int = 12) -> FaultSchedule:
    """MSB sa1 faults on a deterministic diagonal, live on ``active_steps``."""

    schedule = FaultSchedule(ROWS, COLS, STEPS, fmt=FMT)
    fault = TransientFault(FMT.magnitude_msb, "sa1", active_steps)
    for k in range(num_sites):
        schedule.add(k % ROWS, (3 * k) % COLS, fault)
    return schedule


class TestEngineByteIdentity:
    """The fused engine is bit-equal to the sequential oracle."""

    @pytest.mark.parametrize("process", SCHEDULE_PROCESSES)
    def test_engines_byte_identical_per_process(self, trained_tiny_model,
                                                test_loader, process):
        schedules = _schedules(process)
        reference = evaluate_with_faults(
            trained_tiny_model, test_loader, schedules, engine="sequential")
        accuracies = evaluate_with_faults(
            trained_tiny_model, test_loader, schedules, engine="fused")
        assert _accuracy_bytes(accuracies) == _accuracy_bytes(reference)

    def test_unknown_engine_rejected(self, trained_tiny_model, test_loader):
        retired = "autograd"  # the oracle's former name on fault maps
        with pytest.raises(ValueError, match="sequential"):
            evaluate_with_faults(
                trained_tiny_model, test_loader, _schedules("bernoulli"),
                engine=retired)
        assert ENGINES == ("fused", "sequential")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_runner_rejects_bypass_of_transient_point(self, trained_tiny_model,
                                                      test_loader, engine):
        point = CampaignPoint.for_trials(
            ROWS, COLS, 4, trials=2, seed=5, fault_model="transient",
            fault_params={"process": "bernoulli", "num_steps": STEPS})
        runner = CampaignRunner(trained_tiny_model, test_loader, engine=engine,
                                bypass=True)
        with pytest.raises(ValueError, match="bypass.*transient"):
            runner.run([point])

    @pytest.mark.parametrize("options", [{}, {"trial_chunk": 1}, {"workers": 2}],
                             ids=["serial", "trial_chunk", "workers"])
    def test_bypass_of_transient_point_rejected_before_any_unit(
            self, trained_tiny_model, test_loader, options):
        # Rejected while the sweep is planned: not retried as a failing unit.
        point = CampaignPoint.for_trials(
            ROWS, COLS, 4, trials=2, seed=5, fault_model="transient",
            fault_params={"process": "bernoulli", "num_steps": STEPS})
        events = []
        runner = CampaignRunner(trained_tiny_model, test_loader, bypass=True,
                                progress=events.append, **options)
        with pytest.raises(ValueError, match="bypass.*transient"):
            runner.run([point])
        assert events == []


class TestStepSemantics:
    """Boundary behaviour of the per-step live-fault resolution."""

    def test_empty_schedule_is_bitwise_clean(self, trained_tiny_model,
                                             test_loader):
        clean = evaluate(trained_tiny_model, test_loader)
        empty = FaultSchedule(ROWS, COLS, STEPS, fmt=FMT)
        for engine in ENGINES:
            accuracies = evaluate_with_faults(
                trained_tiny_model, test_loader, [empty], engine=engine)
            assert accuracies == [clean], engine

    @pytest.mark.parametrize("active_steps", [(0,), (STEPS - 1,)],
                             ids=["first-step-only", "last-step-only"])
    def test_boundary_step_faults(self, trained_tiny_model, test_loader,
                                  active_steps):
        schedule = _single_site_schedule(active_steps)
        clean = evaluate(trained_tiny_model, test_loader)
        reference = evaluate_with_faults(
            trained_tiny_model, test_loader, [schedule], engine="sequential")
        # The fault must actually fire on its single live step...
        assert reference[0] != clean
        # ...and the fused engine must agree bit-for-bit.
        accuracies = evaluate_with_faults(
            trained_tiny_model, test_loader, [schedule], engine="fused")
        assert _accuracy_bytes(accuracies) == _accuracy_bytes(reference)

    def test_always_active_equals_permanent_stuck_at(self, trained_tiny_model,
                                                     test_loader):
        schedule = _single_site_schedule(tuple(range(STEPS)))
        permanent = schedule.union_map()
        stuck_accuracy = evaluate_with_faults(
            trained_tiny_model, test_loader, [permanent])
        for engine in ENGINES:
            accuracies = evaluate_with_faults(
                trained_tiny_model, test_loader, [schedule], engine=engine)
            assert accuracies == stuck_accuracy, engine

    def test_model_overrunning_schedule_raises(self, trained_tiny_model,
                                               test_loader):
        short = FaultSchedule(ROWS, COLS, STEPS - 1, fmt=FMT)
        short.add(0, 0, TransientFault(FMT.magnitude_msb, "sa1", (0,)))
        for engine in ENGINES:
            with pytest.raises(ValueError, match="step"):
                evaluate_with_faults(
                    trained_tiny_model, test_loader, [short], engine=engine)


class TestWeightSRAMFaults:
    """The second new fault class: corrupted quantised weight tiles."""

    def test_matmul_equals_precorrupted_weights(self, rng):
        fault = WeightSRAMFault(bit_position=FMT.magnitude_msb, stuck_type="sa1")
        fault_map = FaultMap(8, 8, {(2, 5): fault, (6, 1): fault}, fmt=FMT)
        faulty = SystolicArray(8, 8, fmt=FMT)
        faulty.load_fault_map(fault_map)
        clean = SystolicArray(8, 8, fmt=FMT)
        activations = rng.normal(size=(4, 8)) * 0.5
        weights = rng.normal(size=(8, 8)) * 0.5
        corrupted = apply_weight_faults(weights, faulty.weight_fault_sites(),
                                        8, 8, FMT)
        assert not np.array_equal(corrupted, weights)
        assert np.array_equal(faulty.matmul(weights, activations),
                              clean.matmul(corrupted, activations))

    def test_sram_engines_byte_identical(self, trained_tiny_model, test_loader):
        maps = [random_weight_fault_map(ROWS, COLS, 6,
                                        bit_position=FMT.magnitude_msb,
                                        stuck_type="sa1", fmt=FMT, seed=s)
                for s in (21, 22)]
        sequential = [evaluate_with_faults(trained_tiny_model, test_loader,
                                           [fault_map])[0]
                      for fault_map in maps]
        for engine in ENGINES:
            accuracies = evaluate_with_faults(
                trained_tiny_model, test_loader, maps, engine=engine)
            assert _accuracy_bytes(accuracies) == _accuracy_bytes(sequential), engine

    def test_sram_differs_from_datapath_stuck_at(self, trained_tiny_model,
                                                 test_loader):
        # Same sites, same bit, same polarity -- different physical fault
        # class must produce a different (deterministic) accuracy here.
        coords = [(1, 2), (4, 9), (7, 13), (11, 3), (13, 8), (15, 15)]
        bit = FMT.magnitude_msb
        datapath = FaultMap(ROWS, COLS, {c: StuckAtFault(bit, "sa1") for c in coords},
                            fmt=FMT)
        sram = FaultMap(ROWS, COLS, {c: WeightSRAMFault(bit, "sa1") for c in coords},
                        fmt=FMT)
        acc_datapath = evaluate_with_faults(trained_tiny_model, test_loader,
                                            [datapath])
        acc_sram = evaluate_with_faults(trained_tiny_model, test_loader, [sram])
        assert acc_datapath != acc_sram


class TestScheduleProperties:
    """Hypothesis property tests for the rate-process generators."""

    @given(process=st.sampled_from(SCHEDULE_PROCESSES),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           num_faulty=st.integers(min_value=0, max_value=8),
           num_steps=st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_generation_is_deterministic_in_seed(self, process, seed,
                                                 num_faulty, num_steps):
        first = schedule_from_process(process, 8, 8, num_faulty, num_steps,
                                      seed=seed)
        second = schedule_from_process(process, 8, 8, num_faulty, num_steps,
                                       seed=seed)
        assert first.faults == second.faults
        assert first.describe() == second.describe()

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           num_steps=st.integers(min_value=1, max_value=8),
           burst_length=st.integers(min_value=1, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_burst_windows_are_contiguous_and_bounded(self, seed, num_steps,
                                                      burst_length):
        schedule = burst_schedule(8, 8, 5, num_steps, burst_length, seed=seed)
        assert len(schedule) == 5
        for _, fault in schedule.items():
            steps = sorted(fault.active_steps)
            assert len(steps) == min(burst_length, num_steps)
            assert steps[0] >= 0 and steps[-1] < num_steps
            assert steps == list(range(steps[0], steps[0] + len(steps)))

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           rate=st.floats(min_value=0.0, max_value=1.0),
           num_steps=st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_bernoulli_sites_and_steps_in_range(self, seed, rate, num_steps):
        schedule = bernoulli_schedule(8, 8, 6, num_steps, rate, seed=seed)
        assert len(schedule) == 6
        for (row, col), fault in schedule.items():
            assert 0 <= row < 8 and 0 <= col < 8
            assert all(0 <= step < num_steps for step in fault.active_steps)
        if rate == 0.0:
            assert all(not fault.active_steps for _, fault in schedule.items())
        if rate == 1.0:
            assert all(len(fault.active_steps) == num_steps
                       for _, fault in schedule.items())

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           num_clusters=st.integers(min_value=0, max_value=4),
           cluster_size=st.integers(min_value=1, max_value=6),
           num_steps=st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_cluster_sizes_and_single_strike_step(self, seed, num_clusters,
                                                  cluster_size, num_steps):
        schedule = clustered_schedule(8, 8, num_clusters, num_steps,
                                      cluster_size=cluster_size, seed=seed)
        assert len(schedule) <= num_clusters * cluster_size
        for _, fault in schedule.items():
            assert len(fault.active_steps) == 1
            (step,) = fault.active_steps
            assert 0 <= step < num_steps

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           high_order_bits=st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_sampled_bits_stay_in_high_order_window(self, seed, high_order_bits):
        schedule = bernoulli_schedule(8, 8, 6, 4, 0.5, seed=seed,
                                      high_order_bits=high_order_bits)
        low = max(0, FMT.magnitude_msb - high_order_bits + 1)
        for _, fault in schedule.items():
            assert low <= fault.bit_position <= FMT.magnitude_msb

    def test_bit_validation_reuses_stuck_at_rules(self):
        with pytest.raises(ValueError):
            TransientFault(StuckAtFault.MAX_BIT_POSITION + 1, "sa1", (0,))
        with pytest.raises(ValueError):
            TransientFault(-1, "sa1", (0,))
        schedule = FaultSchedule(4, 4, 2, fmt=FMT)
        with pytest.raises(ValueError, match="accumulator format"):
            schedule.add(0, 0, TransientFault(FMT.total_bits, "sa1", (0,)))
        with pytest.raises(ValueError, match="active step"):
            schedule.add(0, 0, TransientFault(0, "sa1", (2,)))
        with pytest.raises(ValueError, match="outside"):
            schedule.add(4, 0, TransientFault(0, "sa1", (0,)))

    def test_phase_decomposition_shares_identical_steps(self):
        schedule = FaultSchedule(4, 4, 4, fmt=FMT)
        schedule.add(1, 1, TransientFault(3, "sa1", (0, 2)))
        step_phase, phase_maps = schedule_phases([schedule])
        assert step_phase == [0, 1, 0, 1]
        assert len(phase_maps) == 2
        assert len(phase_maps[0][0]) == 1 and len(phase_maps[1][0]) == 0


class TestCacheKeyRegression:
    """The three fault models key distinctly; stuck-at keys are historic."""

    #: Golden digests of the synthetic payloads below.  The stuck-at digest
    #: was computed with the pre-transient-model code and MUST NOT change:
    #: it pins that existing on-disk campaign caches stay valid.  The other
    #: two pin the extended key schema for the new fault classes.
    GOLDEN = {
        "stuck_at": "3f33e232a1e70fb80fb8fbb415782e7f67160825d4936a8d3290945f303ff5bb",
        "sram": "a5a843f69fa2bdc44c55a776f1b497dba219fc0965e092f1d921cfc012e91f6d",
        "transient": "a32c3ad05e6b202002b18a1058d1b76ff651b1952698acc90a004777bf647714",
    }

    @staticmethod
    def _points():
        from repro.faults.campaign import CampaignPoint

        common = dict(rows=16, cols=16, num_faulty=4, map_seeds=(101, 202),
                      bit_position=14, stuck_type="sa1", label="pe_count",
                      dataset="mnist")
        return {
            "stuck_at": CampaignPoint(**common),
            "sram": CampaignPoint(fault_model="sram", **common),
            "transient": CampaignPoint(
                fault_model="transient",
                fault_params={"process": "bernoulli", "num_steps": 3,
                              "rate": 0.5},
                **common),
        }

    @staticmethod
    def _digest(point):
        from repro.faults.campaign import _CACHE_VERSION, _digest_payload

        return _digest_payload({
            "version": _CACHE_VERSION,
            "model": "model-token-fixture",
            "data": "data-token-fixture",
            "fmt": [32, 8],
            "bypass": False,
            "point": point.as_payload(),
        })

    def test_fault_models_key_distinctly(self):
        digests = {name: self._digest(point)
                   for name, point in self._points().items()}
        assert len(set(digests.values())) == 3

    def test_golden_digests(self):
        for name, point in self._points().items():
            assert self._digest(point) == self.GOLDEN[name], name

    def test_stuck_at_payload_has_no_fault_model_key(self):
        # The historic key schema: stuck-at payloads must not even mention
        # the fault-model fields, or every existing cache entry would miss.
        payload = self._points()["stuck_at"].as_payload()
        assert "fault_model" not in payload
        assert "fault_params" not in payload

    def test_transient_payload_includes_params(self):
        payload = self._points()["transient"].as_payload()
        assert payload["fault_model"] == "transient"
        assert payload["fault_params"] == {"process": "bernoulli",
                                           "num_steps": 3, "rate": 0.5}
