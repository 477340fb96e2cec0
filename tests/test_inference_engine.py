"""Tests for the fused no-autograd inference engine.

Covers: bit-identity of the fused plan with the autograd forward across
neuron types x reset modes x threshold modes, lowering errors, fault-engine equivalence with the sequential
autograd oracle (including bypass and clean-prefix sharing), the
campaign-runner integration, and the exact identities the spike kernels
use (spike as ``v > V_th``, average pooling by row-major tap adds).
"""

import math


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor, no_grad
from repro.autograd import functional as F
from repro.faults import (
    CampaignPoint,
    CampaignRunner,
    evaluate_with_faults,
    random_fault_map,
    random_weight_fault_map,
    schedule_from_process,
)
from repro.faults.injection import FaultInjector, build_faulty_array
from repro.snn import (
    MIN_THRESHOLD,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    FusedFaultEngine,
    FusedInferenceEngine,
    Linear,
    LoweringError,
    Module,
    PLIFNode,
    Sequential,
    SpikingClassifier,
    build_model_for_dataset,
    evaluate,
    lower_plan,
)
from repro.snn.inference.backends.ops_numpy import NeuronKernel, PoolKernel
from repro.snn.inference.plan import NeuronSpec, PoolSpec
from repro.systolic import DEFAULT_ACCUMULATOR_FORMAT
from tests.conftest import reshape_sum_pool

FMT = DEFAULT_ACCUMULATOR_FORMAT


def _autograd_rates(model, x) -> np.ndarray:
    model.eval()
    with no_grad():
        return model(Tensor(x)).data


def _sequential_rates(model, maps, x) -> np.ndarray:
    """``(F, batch, classes)`` rates of one autograd forward per fault map."""

    model.eval()
    rates = []
    for fault_map in maps:
        with FaultInjector(model, build_faulty_array(fault_map)), no_grad():
            rates.append(model(Tensor(x)).data)
    return np.stack(rates)


def _make_neuron(v_reset, learnable: bool):
    node = PLIFNode(init_tau=1.4, v_reset=v_reset, v_threshold=0.8)
    if learnable:
        node.make_threshold_learnable()
    return node


# ----------------------------------------------------------------------
# Clean engine: float64 bit-identity with the autograd forward
# ----------------------------------------------------------------------
class TestCleanEngineBitIdentity:
    @pytest.mark.parametrize("v_reset", [0.0, None], ids=["hard", "soft"])
    @pytest.mark.parametrize("learnable", [False, True], ids=["fixed", "learnable"])
    def test_neuron_grid(self, v_reset, learnable, rng):
        layers = Sequential(
            Linear(12, 10, rng=rng),
            _make_neuron(v_reset, learnable),
            Linear(10, 4, rng=rng),
            _make_neuron(v_reset, learnable),
        )
        model = SpikingClassifier(layers, time_steps=5)
        x = rng.random((7, 12))
        reference = _autograd_rates(model, x)
        fused = FusedInferenceEngine(model).run(x)
        assert reference.tobytes() == fused.tobytes()

    def test_conv_classifier(self, rng):
        model, _ = build_model_for_dataset("mnist", channels=6, hidden_units=32,
                                           time_steps=3, seed=5)
        x = rng.random((4, 1, 16, 16))
        reference = _autograd_rates(model, x)
        fused = FusedInferenceEngine(model).run(x)
        assert reference.tobytes() == fused.tobytes()

    def test_pool_and_dropout_eval(self, rng):
        layers = Sequential(
            Conv2d(1, 3, kernel_size=3, padding=1, rng=rng),
            BatchNorm2d(3),
            PLIFNode(init_tau=1.3),
            AvgPool2d(2),
            Flatten(),
            Dropout(0.5, rng=rng),
            Linear(3 * 4 * 4, 5, rng=rng),
            PLIFNode(init_tau=1.3),
        )
        model = SpikingClassifier(layers, time_steps=4)
        x = rng.random((3, 1, 8, 8))
        reference = _autograd_rates(model, x)
        fused = FusedInferenceEngine(model).run(x)
        assert reference.tobytes() == fused.tobytes()

    def test_event_input_time_major(self, rng):
        model, _ = build_model_for_dataset("nmnist", channels=4, hidden_units=16,
                                           time_steps=3, seed=2)
        # 5D event input (T, batch, C, H, W) overrides the model's T.
        x = (rng.random((6, 2, 2, 16, 16)) > 0.7).astype(np.float64)
        reference = _autograd_rates(model, x)
        fused = FusedInferenceEngine(model).run(x)
        assert reference.tobytes() == fused.tobytes()

    def test_batch_norm_running_stats_respected(self, rng):
        layers = Sequential(Conv2d(1, 3, kernel_size=3, padding=1, rng=rng),
                            BatchNorm2d(3), PLIFNode(init_tau=1.3),
                            Flatten(), Linear(3 * 16, 4, rng=rng),
                            PLIFNode(init_tau=1.3))
        model = SpikingClassifier(layers, time_steps=2)
        # Perturb running statistics away from their init to catch engines
        # that quietly recompute batch statistics.
        bn = layers[1]
        bn.running_mean[...] = rng.normal(size=3)
        bn.running_var[...] = 1.0 + rng.random(3)
        x = rng.random((5, 1, 4, 4))
        reference = _autograd_rates(model, x)
        fused = FusedInferenceEngine(model).run(x)
        assert reference.tobytes() == fused.tobytes()

    def test_predict_and_evaluate_match_model(self, trained_tiny_model,
                                              tiny_mnist_loaders):
        _, test_loader = tiny_mnist_loaders
        engine = FusedInferenceEngine(trained_tiny_model)
        inputs, labels = next(iter(test_loader))
        assert np.array_equal(np.argmax(engine.run(inputs), axis=1),
                              trained_tiny_model.predict(inputs))
        correct = total = 0
        for inputs, labels in test_loader:
            correct += int(np.sum(trained_tiny_model.predict(inputs) == labels))
            total += labels.shape[0]
        assert engine.evaluate(test_loader) == correct / total

    @settings(max_examples=15, deadline=None)
    @given(data=st.data(),
           v_reset=st.sampled_from([0.0, -0.2, None]),
           steps=st.integers(min_value=1, max_value=6))
    def test_neuron_dynamics_property(self, data, v_reset, steps):
        """Fused neuron updates are bit-identical over arbitrary drive."""

        seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
        gen = np.random.default_rng(seed)
        layers = Sequential(_make_neuron(v_reset, learnable=False))
        model = SpikingClassifier(layers, time_steps=steps)
        x = gen.normal(scale=1.5, size=(steps, 3, 8))  # time-major drive
        reference = _autograd_rates(model, x)
        fused = FusedInferenceEngine(model).run(x)
        assert reference.tobytes() == fused.tobytes()


# ----------------------------------------------------------------------
# Lowering
# ----------------------------------------------------------------------
class TestLowering:
    def test_unsupported_module_raises(self):
        class Custom(Module):
            def forward(self, x):
                return x

        model = SpikingClassifier(Sequential(Custom()), time_steps=2)
        with pytest.raises(LoweringError):
            lower_plan(model)

    def test_bare_stack_without_time_steps_raises(self, rng):
        with pytest.raises(LoweringError):
            lower_plan(Sequential(Linear(4, 2, rng=rng)))

    def test_plan_structure(self):
        model, _ = build_model_for_dataset("mnist", channels=6, hidden_units=32,
                                           time_steps=3, seed=5)
        plan = lower_plan(model)
        affine = plan.affine_specs
        # encoder conv + 2 block convs + 2 FC layers
        assert [spec.kind for spec in affine] == ["conv"] * 3 + ["linear"] * 2
        assert [spec.index for spec in affine] == list(range(5))
        assert plan.num_affine == 5
        # dropout lowers to nothing
        assert all(not isinstance(op, type(None)) for op in plan.ops)
        # static prefix = encoder conv + batch norm (everything before PLIF #1)
        assert plan.static_prefix == 2
        assert sum(isinstance(op, NeuronSpec) for op in plan.ops) == 5

    def test_plif_cell_constants(self):
        node = PLIFNode(init_tau=1.6, v_threshold=0.9)
        assert _lowered_neuron(node).inv_tau == pytest.approx(1.0 / 1.6)
        assert node.tau == pytest.approx(1.6)


# ----------------------------------------------------------------------
# Fault engine equivalence
# ----------------------------------------------------------------------
def _fault_kind(kind: str):
    """``(faults, bypass)`` for each kind of fault evaluate_with_faults takes."""

    if kind == "bernoulli":
        return [schedule_from_process("bernoulli", 16, 16, 6, 3,
                                      bit_position=FMT.magnitude_msb, fmt=FMT,
                                      seed=7 + trial)
                for trial in range(3)], False
    if kind == "sram":
        return [random_weight_fault_map(16, 16, 6, bit_position=FMT.magnitude_msb,
                                        stuck_type="sa1", fmt=FMT, seed=7 + trial)
                for trial in range(3)], False
    maps = CampaignPoint.for_trials(16, 16, 5, 5, bit_position=FMT.magnitude_msb,
                                    stuck_type="sa1", seed=7).build_fault_maps()
    return maps, kind == "bypassed"


class TestFaultEngineEquivalence:
    @pytest.mark.parametrize("kind", ["faulty", "bypassed", "sram", "bernoulli"])
    def test_matches_sequential_autograd(self, trained_tiny_model,
                                         tiny_mnist_loaders, kind):
        _, test_loader = tiny_mnist_loaders
        faults, bypass = _fault_kind(kind)
        sequential = [
            evaluate_with_faults(trained_tiny_model, test_loader, [item],
                                 bypass=bypass, engine="sequential")[0]
            for item in faults
        ]
        fused = evaluate_with_faults(trained_tiny_model, test_loader, faults,
                                     bypass=bypass, engine="fused")
        assert fused == sequential

    def test_single_map_fused_matches_autograd(self, trained_tiny_model,
                                               tiny_mnist_loaders):
        _, test_loader = tiny_mnist_loaders
        fm = random_fault_map(16, 16, 8, bit_position=FMT.magnitude_msb,
                              stuck_type="sa1", seed=3)
        sequential = evaluate_with_faults(trained_tiny_model, test_loader, [fm],
                                          engine="sequential")
        fused = evaluate_with_faults(trained_tiny_model, test_loader, [fm])
        assert fused == sequential

    def test_rates_bit_identical_to_sequential_injector(self, trained_tiny_model,
                                                        tiny_mnist_loaders):
        _, test_loader = tiny_mnist_loaders
        maps = CampaignPoint.for_trials(16, 16, 2, 6, bit_position=FMT.magnitude_msb,
                                        stuck_type="sa1", seed=11).build_fault_maps()
        arrays = [build_faulty_array(m) for m in maps]
        inputs, _ = next(iter(test_loader))
        reference = _sequential_rates(trained_tiny_model, maps, inputs)
        engine = FusedFaultEngine(trained_tiny_model, arrays)
        rates = engine.run(inputs)
        assert reference.tobytes() == rates.tobytes()

    def test_clean_prefix_sharing_structure(self, trained_tiny_model):
        """Maps whose faults miss the early layers fork late (or never)."""

        from repro.faults import StuckAtFault

        fault = StuckAtFault(FMT.magnitude_msb, "sa1")
        clean = random_fault_map(16, 16, 0, seed=0)
        # Column 12 holds no output feature of the 6-channel conv layers
        # (out_features = 6 < 16 columns), so this map must not fork there.
        fc_only = random_fault_map(16, 16, 0, seed=1)
        fc_only.add(3, 12, fault)
        conv_hit = random_fault_map(16, 16, 0, seed=2)
        conv_hit.add(5, 2, fault)
        arrays = [build_faulty_array(m) for m in (clean, fc_only, conv_hit)]
        engine = FusedFaultEngine(trained_tiny_model, arrays)
        assert engine._divergence[0] is None          # never forks
        assert engine._divergence[1] == 3             # first FC layer (index 3)
        assert engine._divergence[2] == 0             # encoder conv
        assert engine.fork_order == [2, 1]

    def test_never_forking_map_equals_clean_accuracy(self, trained_tiny_model,
                                                     tiny_mnist_loaders):
        _, test_loader = tiny_mnist_loaders
        clean_map = random_fault_map(16, 16, 0, seed=0)
        faulty_map = random_fault_map(16, 16, 10, bit_position=FMT.magnitude_msb,
                                      stuck_type="sa1", seed=4)
        accuracies = evaluate_with_faults(
            trained_tiny_model, test_loader, [clean_map, faulty_map])
        sequential = [
            evaluate_with_faults(trained_tiny_model, test_loader, [m],
                                 engine="sequential")[0]
            for m in (clean_map, faulty_map)
        ]
        assert accuracies == sequential

    def test_event_input_faulty_equivalence(self, trained_tiny_model, rng):
        maps = CampaignPoint.for_trials(16, 16, 4, 3, bit_position=FMT.magnitude_msb,
                                        stuck_type="sa1", seed=6).build_fault_maps()
        x = (rng.random((4, 3, 1, 16, 16)) > 0.6).astype(np.float64)
        reference = _sequential_rates(trained_tiny_model, maps, x)
        engine = FusedFaultEngine(trained_tiny_model,
                                  [build_faulty_array(m) for m in maps])
        assert reference.tobytes() == engine.run(x).tobytes()

    def test_chunked_chain_path_matches_sequential(self, rng, monkeypatch):
        """Chain chunking (block=1) reproduces the unchunked results.

        Regression test: chunks whose chains all have zero applied sites in
        a partial tile must take the tail-only branch even when other
        chunks of the group do not.
        """

        import repro.systolic.array as systolic_array

        from repro.faults import StuckAtFault

        layers = Sequential(Linear(5, 3, rng=rng), PLIFNode(init_tau=1.3))
        model = SpikingClassifier(layers, time_steps=3)
        fault = StuckAtFault(FMT.magnitude_msb, "sa1")
        # 4x4 array, in_features=5 -> tiles of 4 and 1 rows.  Map A's fault
        # (row 0) applies in both tiles; map B's fault (row 2) has no site
        # in the 1-row tail tile.
        map_a = random_fault_map(4, 4, 0, seed=0)
        map_a.add(0, 0, fault)
        map_b = random_fault_map(4, 4, 0, seed=0)
        map_b.add(2, 0, fault)
        maps = [map_a, map_b]
        data = rng.random((6, 5)) * 2.0
        labels = np.zeros(6, dtype=np.int64)
        loader = [(data, labels)]
        sequential = evaluate_with_faults(model, loader, maps,
                                          engine="sequential")
        monkeypatch.setattr(systolic_array, "_CHAIN_BLOCK_ELEMENTS", 1)
        arrays = [build_faulty_array(m) for m in maps]
        fused = FusedFaultEngine(model, arrays).evaluate(loader)
        assert fused == sequential
        # Rates too, against the sequential injector.
        reference = _sequential_rates(model, maps, data)
        rates = FusedFaultEngine(model, arrays).run(data)
        assert reference.tobytes() == rates.tobytes()

    def test_requires_arrays(self, trained_tiny_model):
        with pytest.raises(ValueError):
            FusedFaultEngine(trained_tiny_model, [])

    def test_invalid_engine_rejected(self, trained_tiny_model, tiny_mnist_loaders):
        _, test_loader = tiny_mnist_loaders
        fm = random_fault_map(8, 8, 2, seed=1)
        # "autograd" and "batched" are retired engine names.
        for engine in ("turbo", "autograd", "batched"):
            with pytest.raises(ValueError, match="sequential"):
                evaluate_with_faults(trained_tiny_model, test_loader, [fm],
                                     engine=engine)


# ----------------------------------------------------------------------
# Campaign integration
# ----------------------------------------------------------------------
class TestCampaignIntegration:
    def test_fused_records_match_other_engines(self, trained_tiny_model,
                                               tiny_mnist_loaders):
        _, test_loader = tiny_mnist_loaders
        points = [
            CampaignPoint.for_trials(16, 16, count, trials=3,
                                     bit_position=FMT.magnitude_msb,
                                     stuck_type="sa1", seed=20 + count)
            for count in (2, 6)
        ]
        records = {}
        for engine in ("fused", "sequential"):
            runner = CampaignRunner(trained_tiny_model, test_loader, engine=engine)
            records[engine] = runner.run(points)
        assert records["fused"] == records["sequential"]

    def test_fused_baseline_accuracy_matches_software(self, trained_tiny_model,
                                                      tiny_mnist_loaders):
        _, test_loader = tiny_mnist_loaders
        runner = CampaignRunner(trained_tiny_model, test_loader, engine="fused")
        assert runner.baseline_accuracy() == evaluate(
            trained_tiny_model, test_loader)


# ----------------------------------------------------------------------
# Neuron-layer satellites (cached constants, PLIF tau)
# ----------------------------------------------------------------------
class TestNeuronCaches:
    def test_hard_reset_constant_reused_across_steps(self, rng):
        node = PLIFNode(init_tau=1.5, v_reset=0.3)
        x = Tensor(rng.random((4, 6)) * 2.0)
        node(x)
        first = node._reset_cache
        assert first is not None and first[1].shape == (4, 6)
        node(x)
        assert node._reset_cache is first
        # New state shape -> new cached constant.
        node.reset_state()
        node(Tensor(rng.random((2, 6))))
        assert node._reset_cache is not first
        assert float(node._reset_cache[1].data[0, 0]) == 0.3

    def test_hard_reset_cache_tracks_v_reset_mutation(self):
        node = PLIFNode(init_tau=1.2, v_threshold=0.5, v_reset=0.0)
        drive = Tensor(np.full((2, 3), 1.0))
        node(drive)
        assert np.all(node.v.data == 0.0)  # fired, pinned to v_reset=0.0
        # Direct attribute mutation (as the reset-mode ablation does).
        node.v_reset = 0.25
        node.reset_state()
        node(drive)
        assert np.all(node.v.data == 0.25)

    def test_fixed_threshold_cache_invalidated_on_set(self, rng):
        node = PLIFNode(init_tau=1.2, v_threshold=1.0)
        x = Tensor(rng.random((2, 3)))
        node(x)
        cached = node._threshold_cache
        assert cached is not None and float(cached.data) == 1.0
        node.set_threshold(0.5)
        node.reset_state()
        spikes = node(Tensor(np.full((2, 3), 0.75)))
        assert float(node.threshold_tensor().data) == 0.5
        assert np.all(spikes.data == 1.0)  # 0.75 / 1.2 > 0.5 threshold

    def test_plif_tau_simplification(self):
        for init_tau in (1.1, 1.5, 2.0, 4.0):
            node = PLIFNode(init_tau=init_tau)
            assert node.tau == pytest.approx(init_tau, rel=1e-12)
            w = float(node.w.data)
            assert node.tau == 1.0 + np.exp(-w)


# ----------------------------------------------------------------------
# Spike kernels: the exact identities behind the fused neuron and pooling
# ----------------------------------------------------------------------
#: Thresholds the spike identity is walked around: the learnable floor,
#: sigmoid(1) (a threshold with a full mantissa), 1.0, 3.0 and 1e3.
THRESHOLDS = [MIN_THRESHOLD, 0.7310585786300049, 1.0, 3.0, 1e3]

#: Signed zeros, infinities, NaN and subnormals.
SPECIAL_VALUES = [0.0, -0.0, math.inf, -math.inf, math.nan,
                  5e-324, -5e-324, 1e-310, -1e-310]


def _divide_form(v, threshold):
    """The autograd spike condition, ``v / V_th - 1 > 0``."""

    with np.errstate(over="ignore", invalid="ignore"):
        return (np.asarray(v, dtype=np.float64) / threshold - 1.0) > 0.0


def _ulp_walk(center: float, steps: int) -> np.ndarray:
    """``center`` and the ``steps`` doubles on either side of it."""

    up, down = [center], []
    high = low = center
    for _ in range(steps):
        high = np.nextafter(high, math.inf)
        low = np.nextafter(low, -math.inf)
        up.append(high)
        down.append(low)
    return np.array(down[::-1] + up)


class TestSpikeIdentity:
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_walk_around_threshold(self, threshold):
        v = np.concatenate([_ulp_walk(threshold, 1000), SPECIAL_VALUES])
        assert (v > threshold).tobytes() == _divide_form(v, threshold).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(threshold=st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
           v=st.floats(),
           ulps=st.integers(min_value=-3, max_value=3))
    def test_property(self, threshold, v, ulps):
        near = _ulp_walk(threshold, 3)[ulps + 3]
        for value in (v, near):
            assert bool(value > threshold) == bool(_divide_form(value, threshold))

    @pytest.mark.parametrize("threshold", [0.0, -1.0, math.inf, math.nan])
    def test_kernel_rejects_threshold_outside_identity(self, threshold):
        with pytest.raises(ValueError, match="positive, finite v_threshold"):
            NeuronKernel(NeuronSpec(inv_tau=0.5, v_threshold=threshold, v_reset=None))


def _lowered_neuron(node) -> NeuronSpec:
    plan = lower_plan(SpikingClassifier(Sequential(node), time_steps=1))
    return next(op for op in plan.ops if isinstance(op, NeuronSpec))


class TestNeuronKernel:
    """``NeuronKernel`` against the autograd node, step by step."""

    @pytest.mark.parametrize("v_reset", [None, 0.0, -0.0, -0.25],
                             ids=["soft", "hard+0", "hard-0", "hard-0.25"])
    @pytest.mark.parametrize("learned", [None, 0.7310585786300049, 0.01],
                             ids=["fixed", "falvolt", "falvolt-floor"])
    def test_matches_autograd_node(self, v_reset, learned):
        node = _make_neuron(v_reset, learnable=False)
        if learned is not None:
            # A FalVolt threshold: learnable, trained to ``learned`` (0.01
            # sits under the floor, so the node clamps it to MIN_THRESHOLD).
            node.make_threshold_learnable(learned)
        spec = _lowered_neuron(node)
        threshold = node.v_threshold
        assert spec.v_threshold == threshold
        kernel = NeuronKernel(spec)

        # Lanes 0-15 charge to exactly V_th (no spike): from v = V_th, a
        # drive of fl(V_th - rest) adds +0.0.  The rest walk the doubles
        # around the drive that charges v = rest to V_th.
        rest = 0.0 if v_reset is None else v_reset
        gain = spec.inv_tau
        landing = threshold - rest
        v_start = np.concatenate([np.full(16, threshold), np.full(129, rest)])
        gen = np.random.default_rng(7)
        # Step 0 charges the fill value with +0.0 and -0.0: a rest of -0.0
        # must not take the +0.0 rest's one-subtract charge.
        drives = [np.where(np.arange(145) % 2, -0.0, 0.0).reshape(1, -1),
                  np.concatenate([np.full(16, landing),
                                  _ulp_walk((threshold - rest) / gain, 64)]).reshape(1, -1)]
        drives += [gen.normal(loc=0.5 * threshold, scale=threshold, size=(1, 145))
                   for _ in range(4)]

        node.reset_state()
        with no_grad():
            for step, x in enumerate(drives):
                if step == 1:
                    kernel.v[...] = v_start
                    node.v = Tensor(v_start.reshape(1, -1))
                spikes = node(Tensor(x)).data
                out = kernel.run(x)
                assert out.tobytes() == spikes.tobytes(), f"spikes differ at step {step}"
                assert kernel.v.tobytes() == node.v.data.tobytes(), f"v differs at step {step}"
                if step == 1:
                    assert not spikes[0, :16].any(), "a lane at V_th fired"
                    assert (node.v.data[0, :16] == threshold).all()
                    assert spikes.any() and not spikes.all()


def _pool_input(layout: str, shape, gen, spikes=True):
    """Spikes or floats of ``shape`` in C order or a conv output's layout."""

    if layout == "c":
        values = gen.random(shape) if not spikes else (gen.random(shape) < 0.3)
        return values.astype(np.float64)
    channels_last = shape[:-3] + shape[-2:] + shape[-3:-2]
    values = gen.random(channels_last) if not spikes else (gen.random(channels_last) < 0.3)
    return np.moveaxis(values.astype(np.float64), -1, -3)


class TestPoolKernel:
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("batch_ndim", [1, 2])
    @pytest.mark.parametrize("layout", ["c", "transposed"])
    def test_taps_match_reshape_sum_on_spikes(self, k, batch_ndim, layout):
        shape = (3,) * (batch_ndim - 1) + (5, 4, 8, 8)
        x = _pool_input(layout, shape, np.random.default_rng(k))
        if layout == "transposed":
            assert not x.flags.c_contiguous
        out = PoolKernel(PoolSpec("avg", k), batch_ndim=batch_ndim).run(x)
        reference = reshape_sum_pool(x, k, batch_ndim)
        assert out.tobytes() == reference.tobytes()
        assert out.strides == reference.strides

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("layout", ["c", "transposed"])
    def test_fused_matches_autograd_on_floats(self, k, layout):
        gen = np.random.default_rng(10 + k)
        x = _pool_input(layout, (6, 4, 8, 8), gen, spikes=False)
        expected = F.avg_pool2d(Tensor(x), k).data
        assert PoolKernel(PoolSpec("avg", k)).run(x).tobytes() == expected.tobytes()
        # A fork lane (leading fault-map axis) pools each map like batch 1.
        lanes = np.stack([x, -x])
        fused = PoolKernel(PoolSpec("avg", k), batch_ndim=2).run(lanes)
        for lane, out in zip(lanes, fused):
            assert out.tobytes() == F.avg_pool2d(Tensor(lane), k).data.tobytes()

    def test_indivisible_spatial_size_rejected(self):
        x = np.zeros((1, 1, 5, 5))
        message = "avg_pool2d requires spatial dims divisible by 2, got 5x5"
        with pytest.raises(ValueError, match=message):
            PoolKernel(PoolSpec("avg", 2)).run(x)
        with pytest.raises(ValueError, match=message):
            F.avg_pool2d(Tensor(x), 2)

    @pytest.mark.parametrize("kernel_size", [0, -1])
    def test_layer_rejects_kernel_size_below_one(self, kernel_size):
        with pytest.raises(ValueError, match="kernel_size must be positive"):
            AvgPool2d(kernel_size)
