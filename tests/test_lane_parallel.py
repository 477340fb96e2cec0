"""Fork lanes of the fused engine: layout, bit-identity, threads, pools.

The fused engine cuts the fork order into lanes sized for the evaluation
batch -- one map per lane at campaign batch sizes, several same-fork maps
at tiny ones -- and ``lane_threads`` only groups those lanes onto threads;
per-slice results of the stacked GEMMs are independent, so every layout
and ``lane_threads`` setting must produce ``tobytes()``-identical firing
rates and therefore identical accuracy records.  The knob must also compose with the fork-based worker
pool: an unset value inside a multi-worker runner stays at one thread per
worker.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.autograd import Tensor, no_grad
from repro.datasets import DataLoader
from repro.faults import (
    CampaignPoint,
    CampaignRunner,
    FaultInjector,
    StuckAtFault,
    build_faulty_array,
    evaluate_with_faults,
    random_fault_map,
    schedule_from_process,
)
from repro.snn.inference import FusedFaultEngine, resolve_lane_threads
from repro.snn.inference.engine import LANE_SAMPLES
from repro.snn.inference.faulty_gemm import FaultyAffineRunner
from repro.systolic import DEFAULT_ACCUMULATOR_FORMAT
from repro.utils.rng import derive_seed

FMT = DEFAULT_ACCUMULATOR_FORMAT


@pytest.fixture()
def test_loader(tiny_mnist_data):
    _, test = tiny_mnist_data
    return DataLoader(test, batch_size=50)


def _arrays(num_maps, counts=None, seed=0):
    counts = counts if counts is not None else [3] * num_maps
    return [
        build_faulty_array(
            random_fault_map(8, 8, counts[index], bit_position=None,
                             stuck_type=index % 2, seed=seed + index))
        for index in range(num_maps)
    ]


def _rates(model, arrays, frame, lane_threads):
    with FusedFaultEngine(model, arrays,
                          lane_threads=lane_threads) as engine:
        return engine.run(frame)


# ----------------------------------------------------------------------
# Bit identity across lane counts
# ----------------------------------------------------------------------
class TestLaneBitIdentity:
    def test_rates_byte_identical_at_1_2_4_threads(self, trained_tiny_model,
                                                   test_loader):
        frame, _ = next(iter(test_loader))
        arrays = _arrays(5, counts=[0, 1, 3, 5, 2])
        serial = _rates(trained_tiny_model, arrays, frame, 1)
        assert serial.dtype == np.float64
        for threads in (2, 4):
            parallel = _rates(trained_tiny_model, arrays, frame, threads)
            assert parallel.tobytes() == serial.tobytes()

    def test_more_lanes_than_forked_maps(self, trained_tiny_model, test_loader):
        """Lane count clamps to the forked-map count; extras change nothing."""

        frame, _ = next(iter(test_loader))
        arrays = _arrays(2, counts=[2, 4])
        serial = _rates(trained_tiny_model, arrays, frame, 1)
        wide = _rates(trained_tiny_model, arrays, frame, 16)
        assert wide.tobytes() == serial.tobytes()

    def test_accuracies_identical_across_lane_threads(self, trained_tiny_model,
                                                      test_loader):
        maps = [random_fault_map(8, 8, count, seed=7 + count)
                for count in (0, 2, 5)]
        serial = evaluate_with_faults(trained_tiny_model, test_loader, maps,
                                      lane_threads=1)
        for threads in (2, 4):
            parallel = evaluate_with_faults(
                trained_tiny_model, test_loader, maps, lane_threads=threads)
            assert parallel == serial

    @given(counts=st.lists(st.integers(0, 6), min_size=1, max_size=6),
           seed=st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_lane_partition_property(self, trained_tiny_model, tiny_mnist_data,
                                     counts, seed):
        """Any fault-map population splits into lanes without changing bits."""

        _, test = tiny_mnist_data
        frame = DataLoader(test, batch_size=10)
        inputs, _ = next(iter(frame))
        arrays = _arrays(len(counts), counts=counts, seed=seed)
        serial = _rates(trained_tiny_model, arrays, inputs, 1)
        parallel = _rates(trained_tiny_model, arrays, inputs, 3)
        assert parallel.tobytes() == serial.tobytes()


# ----------------------------------------------------------------------
# Lane layout: one map per lane at campaign batches
# ----------------------------------------------------------------------
def _map_forking_at(column, rows):
    """A 16x16 map whose MSB stuck-at-1 faults sit in ``column``."""

    fault_map = random_fault_map(16, 16, 0, seed=0)
    for row in rows:
        fault_map.add(row, column, StuckAtFault(FMT.magnitude_msb, "sa1"))
    return fault_map


def _runners(layout):
    """Every distinct affine runner of a layout's fork lanes."""

    unique = {}
    for lane in layout.lanes:
        for row in lane.runners:
            for runner in row:
                if runner is not None:
                    unique[id(runner)] = runner
    return list(unique.values())


def _sequential_rates(model, inputs, faults):
    """Per-map rates from the sequential autograd oracle, stacked.

    ``faults`` holds prepared arrays or transient schedules.
    """

    model.eval()
    rates = []
    for item in faults:
        with FaultInjector(model, item, fmt=FMT), no_grad():
            rates.append(model(Tensor(inputs)).data)
    return np.stack(rates)


def _spy_im2col(layout, monkeypatch):
    """Record the leading (sample) extent of every fork-lane im2col call."""

    rows_seen = []
    for runner in _runners(layout):
        def spy(x, *args, _inner=runner._im2col):
            rows_seen.append(x.shape[0])
            return _inner(x, *args)
        monkeypatch.setattr(runner, "_im2col", spy)
    return rows_seen


class TestLaneLayout:
    def test_one_lane_per_forked_map_at_campaign_batches(self, trained_tiny_model):
        arrays = _arrays(5, counts=[0, 1, 3, 5, 2])
        with FusedFaultEngine(trained_tiny_model, arrays,
                              lane_threads=2) as engine:
            layout = engine._layout_for(LANE_SAMPLES)
            assert [lane.maps for lane in layout.lanes] == \
                [[f] for f in engine.fork_order]
            assert len(layout.groups) == min(2, len(engine.fork_order))

    def test_fork_lane_im2col_sees_one_map_batch(self, trained_tiny_model,
                                                 test_loader, monkeypatch):
        """The memory bound: no fork-lane im2col gathers several maps."""

        frame, _ = next(iter(test_loader))
        batch = frame.shape[0]
        maps = [_map_forking_at(2, rows) for rows in ((1,), (5,), (3, 9))]
        arrays = [build_faulty_array(fault_map) for fault_map in maps]
        with FusedFaultEngine(trained_tiny_model, arrays) as engine:
            assert engine.fork_order == [0, 1, 2]
            rows_seen = _spy_im2col(engine._layout_for(batch), monkeypatch)
            engine.run(frame)
        assert rows_seen, "no fork-lane convolution ran"
        assert max(rows_seen) == batch

    def test_tiny_batches_stack_same_fork_maps(self, trained_tiny_model,
                                               test_loader, monkeypatch):
        """Streaming batches block maps per fork op, within LANE_SAMPLES."""

        frame, _ = next(iter(test_loader))
        frame = frame[:4]
        maps = ([_map_forking_at(2, rows) for rows in ((1,), (5,), (3, 9))]
                + [_map_forking_at(12, rows) for rows in ((3,), (8,))])
        arrays = [build_faulty_array(fault_map) for fault_map in maps]
        with FusedFaultEngine(trained_tiny_model, arrays) as engine:
            layout = engine._layout_for(frame.shape[0])
            assert [lane.maps for lane in layout.lanes] == [[0, 1, 2], [3, 4]]
            rows_seen = _spy_im2col(layout, monkeypatch)
            rates = engine.run(frame)
            # A short final batch reuses the layout; a wide one rebuilds it.
            assert engine._layout_for(2) is layout
            assert engine._layout_for(LANE_SAMPLES).block == 1
        assert rows_seen and max(rows_seen) <= LANE_SAMPLES
        assert rates.tobytes() == _sequential_rates(
            trained_tiny_model, frame, arrays).tobytes()

    def test_fork_entry_built_once_per_step_and_fork_op(self, trained_tiny_model,
                                                        rng, monkeypatch):
        # Two maps fork at the encoder conv (column 2 holds a conv output
        # channel), three at the first FC layer (column 12 holds none).
        maps = ([_map_forking_at(2, rows) for rows in ((1,), (7,))]
                + [_map_forking_at(12, rows) for rows in ((3,), (4,), (8,))])
        arrays = [build_faulty_array(fault_map) for fault_map in maps]
        entries, entered = [], []
        entry, run_entry = FaultyAffineRunner.entry, FaultyAffineRunner.run_entry
        monkeypatch.setattr(
            FaultyAffineRunner, "entry",
            lambda self, *args: entries.append(self.spec.index) or entry(self, *args))
        monkeypatch.setattr(
            FaultyAffineRunner, "run_entry",
            lambda self, *args: entered.append(self.spec.index) or run_entry(self, *args))
        steps = 4
        x = (rng.random((steps, LANE_SAMPLES, 1, 16, 16)) > 0.6).astype(np.float64)
        with FusedFaultEngine(trained_tiny_model, arrays) as engine:
            forks = sorted({engine._divergence[f] for f in engine.fork_order})
            assert len(forks) == 2
            rates = engine.run(x)
        assert sorted(entries) == sorted(forks * steps)
        assert entered.count(forks[0]) == 2 * steps
        assert entered.count(forks[1]) == 3 * steps
        assert rates.tobytes() == _sequential_rates(
            trained_tiny_model, x, arrays).tobytes()

    @pytest.mark.parametrize("lane_threads", [1, 2, 0])
    @pytest.mark.parametrize("fault_model", ["stuck_at", "burst", "bernoulli"])
    def test_rates_match_sequential_oracle(self, trained_tiny_model, test_loader,
                                           fault_model, lane_threads):
        frame, _ = next(iter(test_loader))
        frame = frame[:10]
        if fault_model == "stuck_at":
            arrays = _arrays(4, counts=[1, 3, 6, 2], seed=21)
            options = {"arrays": arrays}
            expected = _sequential_rates(trained_tiny_model, frame, arrays)
        else:
            schedules = [
                schedule_from_process(fault_model, 8, 8, 5, 3, fmt=FMT,
                                      seed=derive_seed(5, fault_model, trial))
                for trial in range(4)]
            options = {"schedules": schedules}
            expected = _sequential_rates(trained_tiny_model, frame, schedules)
        with FusedFaultEngine(trained_tiny_model, lane_threads=lane_threads,
                              **options) as engine:
            assert engine.fork_order, "no map forked"
            rates = engine.run(frame)
        assert rates.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# Knob resolution and validation
# ----------------------------------------------------------------------
class TestLaneKnob:
    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_LANE_THREADS", raising=False)
        assert resolve_lane_threads() == 1
        monkeypatch.setenv("REPRO_LANE_THREADS", "3")
        assert resolve_lane_threads() == 3
        assert resolve_lane_threads(2) == 2   # explicit beats env

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            resolve_lane_threads(-1)
        with pytest.raises(ValueError):
            resolve_lane_threads("nope")

    def test_zero_is_auto_sentinel(self, monkeypatch):
        assert resolve_lane_threads(0) == 0
        monkeypatch.setenv("REPRO_LANE_THREADS", "0")
        assert resolve_lane_threads() == 0

    def test_auto_sizes_from_forked_maps_and_cpus(self, trained_tiny_model,
                                                  test_loader, monkeypatch):
        """lane_threads=0 resolves to min(forked, cpu_count) at construction.

        The thread count only groups the lanes: at this batch size there is
        one lane per forked map whatever the thread count.
        """

        import os

        frame, _ = next(iter(test_loader))
        arrays = _arrays(3, counts=[2, 3, 4])
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with FusedFaultEngine(trained_tiny_model, arrays,
                              lane_threads=0) as engine:
            assert engine.lane_threads == 2          # min(3 forked, 2 cpus)
            layout = engine._layout_for(frame.shape[0])
            assert len(layout.lanes) == len(engine.fork_order) == 3
            assert len(layout.groups) == 2
            auto = engine.run(frame)
        serial = _rates(trained_tiny_model, arrays, frame, 1)
        assert auto.tobytes() == serial.tobytes()

    def test_auto_via_env(self, trained_tiny_model, test_loader, monkeypatch):
        frame, _ = next(iter(test_loader))
        arrays = _arrays(2, counts=[1, 2])
        monkeypatch.setenv("REPRO_LANE_THREADS", "0")
        with FusedFaultEngine(trained_tiny_model, arrays) as engine:
            assert 1 <= engine.lane_threads <= 2
            auto = engine.run(frame)
        monkeypatch.delenv("REPRO_LANE_THREADS")
        serial = _rates(trained_tiny_model, arrays, frame, 1)
        assert auto.tobytes() == serial.tobytes()

    def test_lane_threads_require_fused_engine(self, trained_tiny_model,
                                               test_loader):
        maps = [random_fault_map(8, 8, 2, seed=1)]
        with pytest.raises(ValueError, match="fused"):
            evaluate_with_faults(trained_tiny_model, test_loader, maps,
                                 engine="sequential", lane_threads=2)

    def test_runner_rejects_bad_lane_threads(self, trained_tiny_model,
                                             test_loader):
        with pytest.raises(ValueError):
            CampaignRunner(trained_tiny_model, test_loader, lane_threads=-1)
        with pytest.raises(ValueError):
            CampaignRunner(trained_tiny_model, test_loader, engine="sequential",
                           lane_threads=2)

    def test_executor_lifecycle(self, trained_tiny_model, test_loader):
        frame, _ = next(iter(test_loader))
        engine = FusedFaultEngine(trained_tiny_model, _arrays(3),
                                  lane_threads=2)
        assert engine._executor is None      # lazily created
        engine.run(frame)
        assert engine._executor is not None
        engine.close()
        assert engine._executor is None
        engine.close()                       # idempotent


# ----------------------------------------------------------------------
# Composition with the fork-based worker pool
# ----------------------------------------------------------------------
class TestPoolComposition:
    POINTS = [CampaignPoint.for_trials(8, 8, count, trials=2, seed=41 + count)
              for count in (1, 4)]

    def test_unset_lane_threads_stay_serial_inside_pool(self, trained_tiny_model,
                                                        test_loader):
        pooled = CampaignRunner(trained_tiny_model, test_loader, workers=2)
        assert pooled._effective_lane_threads == 1
        serial = CampaignRunner(trained_tiny_model, test_loader)
        assert serial._effective_lane_threads is None

    def test_workers_times_lanes_byte_identical(self, trained_tiny_model,
                                                test_loader):
        """workers=2 x lane_threads=2 records equal the plain serial run."""

        serial = CampaignRunner(trained_tiny_model, test_loader).run(self.POINTS)
        composed = CampaignRunner(trained_tiny_model, test_loader, workers=2,
                                  lane_threads=2)
        assert composed._effective_lane_threads == 2
        assert composed.run(self.POINTS) == serial

    def test_lane_threads_alone_match_serial_records(self, trained_tiny_model,
                                                     test_loader):
        serial = CampaignRunner(trained_tiny_model, test_loader).run(self.POINTS)
        laned = CampaignRunner(trained_tiny_model, test_loader,
                               lane_threads=4).run(self.POINTS)
        assert laned == serial
