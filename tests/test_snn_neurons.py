"""Tests for the PLIF neuron model and threshold handling."""

import math

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.snn import PLIFNode, MIN_THRESHOLD, spiking_nodes
from repro.snn.layers import Sequential, Linear


class TestPLIFNode:
    def test_initial_tau_matches(self):
        node = PLIFNode(init_tau=2.0)
        assert node.tau == pytest.approx(2.0, rel=1e-6)

    def test_invalid_init_tau(self):
        with pytest.raises(ValueError):
            PLIFNode(init_tau=1.0)

    def test_tau_parameter_is_learnable(self):
        node = PLIFNode(init_tau=2.0)
        x = Tensor(np.full((1, 4), 0.9))
        out = node(x)
        out.sum().backward()
        assert node.w.grad is not None

    def test_charging_uses_sigmoid_tau(self):
        node = PLIFNode(init_tau=2.0, v_threshold=100.0)
        node(Tensor(np.array([[1.0]])))
        assert node.v.data[0, 0] == pytest.approx(0.5, rel=1e-6)

    def test_hard_reset_returns_to_v_reset(self):
        node = PLIFNode(init_tau=2.0, v_threshold=0.5, v_reset=0.0)
        node(Tensor(np.array([[1.5]])))
        assert node.v.data[0, 0] == pytest.approx(0.0)

    def test_soft_reset_subtracts_threshold(self):
        node = PLIFNode(init_tau=2.0, v_threshold=0.5, v_reset=None)
        # Charged to 1.5 / 2 = 0.75, fired, then 0.75 - 0.5.
        node(Tensor(np.array([[1.5]])))
        assert node.v.data[0, 0] == pytest.approx(0.25)

    def test_reset_state_clears_membrane(self):
        node = PLIFNode()
        node(Tensor(np.ones((2, 3))))
        assert node.v is not None
        node.reset_state()
        assert node.v is None

    def test_state_reinitialised_on_shape_change(self):
        node = PLIFNode()
        node(Tensor(np.ones((2, 3))))
        node(Tensor(np.ones((4, 3))))
        assert node.v.shape == (4, 3)


class TestThresholdHandling:
    def test_fixed_threshold_reported(self):
        node = PLIFNode(v_threshold=0.7)
        assert node.v_threshold == pytest.approx(0.7)
        assert not node.learnable_threshold

    def test_set_threshold_fixed(self):
        node = PLIFNode(v_threshold=1.0)
        node.set_threshold(0.5)
        assert node.v_threshold == pytest.approx(0.5)

    def test_set_threshold_rejects_nonpositive(self):
        node = PLIFNode()
        with pytest.raises(ValueError):
            node.set_threshold(0.0)

    def test_make_threshold_learnable_adds_parameter(self):
        node = PLIFNode(v_threshold=1.0)
        before = len(node.parameters())
        node.make_threshold_learnable()
        assert len(node.parameters()) == before + 1
        assert node.learnable_threshold
        assert node.v_threshold == pytest.approx(1.0)

    def test_make_threshold_learnable_with_initial(self):
        node = PLIFNode(v_threshold=1.0)
        node.make_threshold_learnable(initial=0.6)
        assert node.v_threshold == pytest.approx(0.6)

    def test_make_learnable_idempotent(self):
        node = PLIFNode()
        node.make_threshold_learnable()
        node.make_threshold_learnable(initial=0.8)
        assert node.v_threshold == pytest.approx(0.8)
        assert len([p for p in node.parameters()]) == 2  # w and threshold

    def test_threshold_gradient_flows(self):
        node = PLIFNode(v_threshold=1.0)
        node.make_threshold_learnable()
        x = Tensor(np.full((2, 5), 0.8))
        out = node(x)
        out.sum().backward()
        assert node.v_threshold_param.grad is not None
        # Raising the threshold can only reduce spiking: gradient of total
        # spike count w.r.t. V_th must be non-positive.
        assert node.v_threshold_param.grad <= 0.0

    def test_threshold_floor_applied(self):
        node = PLIFNode(v_threshold=1.0)
        node.make_threshold_learnable()
        node.v_threshold_param.data[...] = -3.0
        assert node.v_threshold == pytest.approx(MIN_THRESHOLD)

    def test_lower_threshold_fires_more(self):
        x = Tensor(np.full((1, 50), 0.5))
        high = PLIFNode(v_threshold=1.5)
        low = PLIFNode(v_threshold=0.3)
        high_count = sum(float(high(x).data.sum()) for _ in range(4))
        low_count = sum(float(low(x).data.sum()) for _ in range(4))
        assert low_count > high_count


#: Thresholds the fused neuron kernel cannot run (see ``check_threshold``).
NON_FINITE = [math.nan, math.inf, -math.inf]
REJECTED = NON_FINITE + [0.0, -0.5]
MESSAGE = "needs a positive, finite v_threshold"


def _node(learnable: bool) -> PLIFNode:
    """A node with ``V_th = 0.7``, fixed or made learnable as FalVolt does."""

    node = PLIFNode(v_threshold=0.7)
    if learnable:
        node.make_threshold_learnable()
    return node


class TestThresholdValidation:
    """Every entry point that sets ``V_th`` rejects what the fused kernel would."""

    @pytest.mark.parametrize("value", REJECTED)
    def test_init_rejects(self, value):
        with pytest.raises(ValueError, match=MESSAGE):
            PLIFNode(v_threshold=value)

    @pytest.mark.parametrize("value", REJECTED)
    @pytest.mark.parametrize("learnable", [False, True])
    def test_set_threshold_rejects_and_keeps_value(self, value, learnable):
        node = _node(learnable)
        with pytest.raises(ValueError, match=MESSAGE):
            node.set_threshold(value)
        assert node.v_threshold == 0.7

    @pytest.mark.parametrize("value", REJECTED)
    @pytest.mark.parametrize("learnable", [False, True])
    def test_make_learnable_rejects_initial(self, value, learnable):
        node = _node(learnable)
        with pytest.raises(ValueError, match=MESSAGE):
            node.make_threshold_learnable(initial=value)
        assert node.learnable_threshold == learnable
        assert node.v_threshold == 0.7

    def test_message_matches_fused_kernel(self):
        from repro.snn.inference.backends.ops_numpy import NeuronKernel
        from repro.snn.inference.plan import NeuronSpec

        with pytest.raises(ValueError) as node_error:
            PLIFNode().set_threshold(math.inf)
        with pytest.raises(ValueError) as kernel_error:
            NeuronKernel(NeuronSpec(inv_tau=0.5, v_threshold=math.inf, v_reset=None))
        assert str(node_error.value) == "neuron " + MESSAGE + ", got inf"
        assert str(kernel_error.value) == "fused neuron " + MESSAGE + ", got inf"


class TestSpikingNodesHelper:
    def test_finds_nodes_in_container(self):
        seq = Sequential(Linear(4, 4, rng=np.random.default_rng(0)), PLIFNode(),
                         Linear(4, 2, rng=np.random.default_rng(1)), PLIFNode())
        nodes = spiking_nodes(seq)
        assert len(nodes) == 2
        assert isinstance(nodes[0], PLIFNode)

    def test_layer_labels(self):
        node = PLIFNode(layer_label="Conv1")
        assert node.layer_label == "Conv1"
