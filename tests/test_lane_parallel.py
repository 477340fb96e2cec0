"""Fork lanes of the fused engine: layout, lane-major order and bit-identity.

The fused engine cuts the fork order into lanes sized for the evaluation
batch -- one map per lane at campaign batch sizes, several same-fork maps
at tiny ones.  Per-slice results of the stacked GEMMs are independent, so
every lane partition must produce ``tobytes()``-identical firing rates,
equal to the sequential oracle's.  The lanes run one after another over
all time steps on shared kernels, so the fork-entry stashes the clean lane
keeps must own their arrays and memory must not grow with the map count.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.autograd import Tensor, no_grad
from repro.datasets import DataLoader
from repro.faults import (
    FaultInjector,
    StuckAtFault,
    build_faulty_array,
    random_fault_map,
    schedule_from_process,
)
from repro.faults.fault_map import FaultSchedule
from repro.faults.fault_model import TransientFault
from repro.snn import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    PLIFNode,
    Sequential,
    SpikingClassifier,
)
from repro.snn.inference import FusedFaultEngine
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


# ----------------------------------------------------------------------
# Lane partitions and layout: one map per lane at campaign batches
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


class TestLaneBitIdentity:
    @given(counts=st.lists(st.integers(0, 6), min_size=1, max_size=6),
           seed=st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_lane_partition_property(self, trained_tiny_model, tiny_mnist_data,
                                     counts, seed):
        """Any fault-map population splits into lanes without changing bits.

        The same maps run under lanes of one map, of three maps and of
        every same-fork map; all three match the sequential oracle.
        """

        _, test = tiny_mnist_data
        inputs, _ = next(iter(DataLoader(test, batch_size=10)))
        arrays = _arrays(len(counts), counts=counts, seed=seed)
        expected = _sequential_rates(trained_tiny_model, inputs, arrays)
        engine = FusedFaultEngine(trained_tiny_model, arrays)
        for block in (1, 3, len(arrays)):
            engine._layout = engine._build_layout(block)
            assert engine.run(inputs).tobytes() == expected.tobytes()


class TestLaneLayout:
    def test_one_lane_per_forked_map_at_campaign_batches(self, trained_tiny_model):
        arrays = _arrays(5, counts=[0, 1, 3, 5, 2])
        engine = FusedFaultEngine(trained_tiny_model, arrays)
        layout = engine._layout_for(LANE_SAMPLES)
        assert [lane.maps for lane in layout.lanes] == \
            [[f] for f in engine.fork_order]

    def test_fork_lane_im2col_sees_one_map_batch(self, trained_tiny_model,
                                                 test_loader, monkeypatch):
        """The memory bound: no fork-lane im2col gathers several maps."""

        frame, _ = next(iter(test_loader))
        batch = frame.shape[0]
        maps = [_map_forking_at(2, rows) for rows in ((1,), (5,), (3, 9))]
        arrays = [build_faulty_array(fault_map) for fault_map in maps]
        engine = FusedFaultEngine(trained_tiny_model, arrays)
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
        engine = FusedFaultEngine(trained_tiny_model, arrays)
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
        engine = FusedFaultEngine(trained_tiny_model, arrays)
        forks = sorted({engine._divergence[f] for f in engine.fork_order})
        assert len(forks) == 2
        rates = engine.run(x)
        assert sorted(entries) == sorted(forks * steps)
        assert entered.count(forks[0]) == 2 * steps
        assert entered.count(forks[1]) == 3 * steps
        assert rates.tobytes() == _sequential_rates(
            trained_tiny_model, x, arrays).tobytes()

    @pytest.mark.parametrize("block", [1, 2, 0])
    @pytest.mark.parametrize("fault_model", ["stuck_at", "burst", "bernoulli"])
    def test_rates_match_sequential_oracle(self, trained_tiny_model, test_loader,
                                           fault_model, block):
        """Lanes of one map, of two maps and the batch-sized layout (0)."""

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
        engine = FusedFaultEngine(trained_tiny_model, **options)
        assert engine.fork_order, "no map forked"
        if block:
            engine._layout = engine._build_layout(block)
        assert engine.run(frame).tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# Lane-major order: stashes own their arrays, memory is flat in maps
# ----------------------------------------------------------------------
def _flatten_spikes_model(time_steps):
    """Conv -> BN -> PLIF -> flatten -> FC: the FC input views neuron spikes.

    As in the DVS-Gesture network's head, the first linear layer reads a
    flatten of a spiking layer's output, i.e. of the buffer the clean
    lane's neuron kernel rewrites at every time step.
    """

    rng = np.random.default_rng(3)
    return SpikingClassifier(Sequential(
        Conv2d(2, 4, 3, padding=1, rng=rng), BatchNorm2d(4), PLIFNode(v_threshold=0.5),
        Flatten(), Linear(4 * 6 * 6, 16, rng=rng, init_gain=3.0), PLIFNode(v_threshold=0.5),
        Linear(16, 4, rng=rng, init_gain=3.0), PLIFNode(v_threshold=0.5),
    ), time_steps=time_steps)


class TestLaneMajor:
    def test_linear_fork_entry_survives_later_steps(self, rng):
        """A linear fork entry is kept for every step, not a view of the last.

        One map forks at the linear layer whose input is flatten(spikes),
        two at conv 0, in one pass over a 5D event input.
        """

        steps = 4
        model = _flatten_spikes_model(steps)
        model.eval()
        x = (rng.random((steps, 6, 2, 6, 6)) > 0.5).astype(np.float64)
        # Columns 12-15 hold hidden units only.  A low-order stuck bit keeps
        # their outputs a function of the entry's inputs.
        linear_fork = random_fault_map(16, 16, 0, seed=0)
        for column in range(12, 16):
            linear_fork.add(3, column, StuckAtFault(2, "sa1"))
        maps = [linear_fork, _map_forking_at(2, (1,)), _map_forking_at(1, (4, 9))]
        arrays = [build_faulty_array(fault_map) for fault_map in maps]
        engine = FusedFaultEngine(model, arrays)
        assert engine._divergence == [1, 0, 0]
        # The linear layer's clean input differs between steps.
        with no_grad():
            hidden = [model.layers[3](model.layers[2](model.layers[1](
                model.layers[0](Tensor(x[t]))))).data for t in range(steps)]
        assert any(h.tobytes() != hidden[0].tobytes() for h in hidden[1:])
        assert engine.run(x).tobytes() == _sequential_rates(model, x, arrays).tobytes()

    def test_static_prefix_cache_across_recurring_phases(self, trained_tiny_model,
                                                         test_loader):
        """Phases 0, 1, 0 on a static input reuse phase 0's lane prefix."""

        frame, _ = next(iter(test_loader))
        frame = frame[:10]
        schedules = []
        for seed in range(3):
            schedule = FaultSchedule(16, 16, 3, fmt=FMT)
            for column in range(6):
                schedule.add((seed + column) % 9, column, TransientFault(
                    FMT.magnitude_msb, "sa1", frozenset({1})))
            schedules.append(schedule)
        engine = FusedFaultEngine(trained_tiny_model, schedules=schedules)
        assert engine._step_phase == [0, 1, 0]
        assert engine.fork_order == [0, 1, 2]
        assert engine.run(frame).tobytes() == _sequential_rates(
            trained_tiny_model, frame, schedules).tobytes()

    def test_fork_lane_memory_flat_in_maps(self, tiny_model, test_loader):
        """The traced peak of an evaluation barely grows from 4 to 16 maps."""

        peaks = {}
        for num_maps in (4, 16):
            arrays = [build_faulty_array(_map_forking_at(2, (row,)))
                      for row in range(num_maps)]
            engine = FusedFaultEngine(tiny_model, arrays)
            assert len(engine.fork_order) == num_maps
            tracemalloc.start()
            try:
                engine.evaluate(test_loader)
                peaks[num_maps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[16] <= 1.25 * peaks[4], peaks

    def test_runners_of_a_layer_share_one_weight_matrix(self, trained_tiny_model):
        """A pass keeps one float64 weight matrix per layer, not one per runner."""

        engine = FusedFaultEngine(trained_tiny_model, _arrays(8))
        runners = _runners(engine._layout_for(LANE_SAMPLES))
        by_layer = {}
        for runner in runners:
            by_layer.setdefault(runner.spec.index, set()).add(id(runner.weight_matrix))
        assert len(runners) > len(by_layer)
        assert all(len(matrices) == 1 for matrices in by_layer.values()), by_layer
