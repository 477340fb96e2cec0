"""Bit-identity of the fused training layers against their Tensor-op compositions.

Batch norm, average pooling and the neuron charge / fire steps each run as
one autograd ``Function`` with a hand-written backward.  The compositions of
elementwise ``Tensor`` ops they replaced are kept here as the oracle: every
output and every input gradient must match it byte for byte (``tobytes``),
including on convolution outputs (non-C-contiguous) large enough for numpy
to reuse temporaries, and across time steps that share parameters.  Each
Function is also checked against finite differences.
"""

import numpy as np
import pytest

from repro.autograd import Function, Tensor, check_gradients, where
from repro.autograd import functional as F
from repro.snn import layers
from repro.snn.layers import AvgPool2d, BatchNorm2d, Conv2d, Flatten, Linear, Sequential
from repro.snn.network import SpikingClassifier
from repro.snn.neurons import Fire, PLIFCharge, PLIFNode
from repro.snn.optim import Adam
from repro.snn.surrogate import ATan, SigmoidSurrogate, Triangle
from repro.snn.training import Trainer
from tests.conftest import state_digest

# (batch, channels, height, width) of a training-sized conv output: 320 KiB,
# above numpy's 256 KiB threshold for writing results into temporaries.
CONV_SHAPE = (20, 8, 16, 16)
SURROGATES = [Triangle(), ATan(), SigmoidSurrogate()]


# ----------------------------------------------------------------------
# The Tensor-op compositions (oracle)
# ----------------------------------------------------------------------
def oracle_batch_norm(x, gamma, beta, running_mean, running_var, training,
                      momentum=0.1, eps=1e-5):
    if x.ndim == 4:
        axes, view = (0, 2, 3), (1, -1, 1, 1)
    else:
        axes, view = (0,), (1, -1)
    if training:
        mean = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mean.data.reshape(-1)
        running_var *= (1.0 - momentum)
        running_var += momentum * var.data.reshape(-1)
    else:
        mean = Tensor(running_mean.reshape(view))
        var = Tensor(running_var.reshape(view))
    inv_std = (var + eps) ** -0.5
    normalised = (x - mean) * inv_std
    return normalised * gamma.reshape(view) + beta.reshape(view)


def oracle_avg_pool2d(x, kernel_size):
    batch, channels, height, width = x.shape
    reshaped = x.reshape(batch, channels, height // kernel_size, kernel_size,
                         width // kernel_size, kernel_size)
    return reshaped.mean(axis=(3, 5))


def oracle_charge(x, v, rtau, rest):
    return v + (x - (v - rest)) * rtau


class OracleSpike(Function):
    """Heaviside step forward, surrogate derivative backward, on a given ``z``."""

    @staticmethod
    def forward(ctx, z, *, surrogate):
        ctx["z"] = z
        ctx["surrogate"] = surrogate
        return (z > 0.0).astype(np.float64)

    @staticmethod
    def backward(ctx, grad):
        return (grad * ctx["surrogate"].derivative(ctx["z"]),)


def oracle_fire(h, threshold, surrogate):
    return OracleSpike.apply(h / threshold - 1.0, surrogate=surrogate)


def _oracle_plif_charge(self, x):
    rest = 0.0 if self.v_reset is None else float(self.v_reset)
    return oracle_charge(x, self.v, self.w.sigmoid(), rest)


def _oracle_node_fire(self, h):
    return oracle_fire(h, self.threshold_tensor(), self.surrogate)


@pytest.fixture
def oracle_layers(monkeypatch):
    """Route every layer and neuron through the Tensor-op compositions."""

    def install():
        monkeypatch.setattr(layers.F, "batch_norm", oracle_batch_norm)
        monkeypatch.setattr(layers.F, "avg_pool2d", oracle_avg_pool2d)
        monkeypatch.setattr(PLIFNode, "_charge", _oracle_plif_charge)
        monkeypatch.setattr(PLIFNode, "_fire", _oracle_node_fire)

    return install


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _conv_output(spikes, weight):
    """A conv output: a transposed (non-C-contiguous) view, as in training."""

    return F.conv2d(Tensor(spikes), weight, padding=1)


def _assert_same(fused, oracle):
    assert len(fused) == len(oracle)
    for index, (a, b) in enumerate(zip(fused, oracle)):
        assert a is not None and b is not None, index
        assert a.shape == b.shape, index
        assert a.tobytes() == b.tobytes(), f"array {index} differs"


# ----------------------------------------------------------------------
# Batch norm
# ----------------------------------------------------------------------
class TestBatchNorm:
    @pytest.mark.parametrize("training", [True, False])
    def test_conv_output_over_shared_steps(self, training):
        rng = np.random.default_rng(0)
        channels = CONV_SHAPE[1]
        spikes = [(rng.random(CONV_SHAPE) > 0.7).astype(float) for _ in range(3)]
        upstream = [rng.normal(size=CONV_SHAPE) for _ in range(3)]
        weight0 = rng.normal(size=(channels, channels, 3, 3))
        stats0 = (rng.normal(size=channels), rng.random(channels) + 0.5)

        def run(bn):
            weight = Tensor(weight0.copy(), requires_grad=True)
            gamma = Tensor(np.linspace(0.5, 1.5, channels), requires_grad=True)
            beta = Tensor(np.linspace(-0.2, 0.2, channels), requires_grad=True)
            running = (stats0[0].copy(), stats0[1].copy())
            inputs = [_conv_output(s, weight) for s in spikes]
            assert not inputs[0].data.flags.c_contiguous
            outs = [bn(x, gamma, beta, *running, training) for x in inputs]
            loss = outs[0] * Tensor(upstream[0])
            for out, g in zip(outs[1:], upstream[1:]):
                loss = loss + out * Tensor(g)
            loss.sum().backward()
            return ([out.data for out in outs] + [x.grad for x in inputs]
                    + [gamma.grad, beta.grad, weight.grad, *running])

        _assert_same(run(F.batch_norm), run(oracle_batch_norm))

    @pytest.mark.parametrize("training", [True, False])
    def test_2d_input(self, training):
        rng = np.random.default_rng(1)
        x0, g0 = rng.normal(size=(300, 120)), rng.normal(size=(300, 120))

        def run(bn):
            x = Tensor(x0, requires_grad=True)
            gamma = Tensor(np.full(120, 1.3), requires_grad=True)
            beta = Tensor(np.full(120, 0.1), requires_grad=True)
            running = (np.zeros(120), np.ones(120))
            out = bn(x, gamma, beta, *running, training)
            out.backward(g0)
            return [out.data, x.grad, gamma.grad, beta.grad, *running]

        _assert_same(run(F.batch_norm), run(oracle_batch_norm))

    @pytest.mark.parametrize("training", [True, False])
    def test_gradcheck(self, training):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(4, 2, 3, 3)), requires_grad=True)
        gamma = Tensor(rng.normal(size=2) + 1.0, requires_grad=True)
        beta = Tensor(rng.normal(size=2), requires_grad=True)
        stats = (rng.normal(size=2), rng.random(2) + 0.5)

        def fn(a, g, b):
            return F.batch_norm(a, g, b, stats[0].copy(), stats[1].copy(), training)

        assert check_gradients(fn, [x, gamma, beta], atol=1e-3)


# ----------------------------------------------------------------------
# Average pooling
# ----------------------------------------------------------------------
class TestAvgPool:
    def test_conv_output(self):
        rng = np.random.default_rng(3)
        spikes = (rng.random(CONV_SHAPE) > 0.6).astype(float)
        weight0 = rng.normal(size=(8, 8, 3, 3))
        upstream = rng.normal(size=(20, 8, 8, 8))

        def run(pool):
            weight = Tensor(weight0.copy(), requires_grad=True)
            x = _conv_output(spikes, weight)
            out = pool(x, 2)
            out.backward(upstream)
            return [out.data, x.grad, weight.grad]

        _assert_same(run(F.avg_pool2d), run(oracle_avg_pool2d))

    def test_gradcheck(self):
        x = Tensor(np.random.default_rng(4).normal(size=(2, 3, 4, 6)), requires_grad=True)
        assert check_gradients(lambda a: F.avg_pool2d(a, 2), [x])


# ----------------------------------------------------------------------
# Neuron charge and fire
# ----------------------------------------------------------------------
class TestCharge:
    @pytest.mark.parametrize("rest", [0.0, -0.25])
    @pytest.mark.parametrize("learnable_tau", [True, False])
    def test_conv_output_over_shared_steps(self, rest, learnable_tau):
        rng = np.random.default_rng(5)
        spikes = [(rng.random(CONV_SHAPE) > 0.7).astype(float) for _ in range(3)]
        upstream = [rng.normal(size=CONV_SHAPE) for _ in range(3)]
        weight0 = rng.normal(size=(8, 8, 3, 3))

        fill = Tensor(np.full(CONV_SHAPE, rest))
        fired = [rng.random(CONV_SHAPE) > 0.8 for _ in range(3)]

        def run(charge):
            weight = Tensor(weight0.copy(), requires_grad=True)
            w = Tensor(np.array(0.4), requires_grad=True)
            v = fill
            states, inputs = [], []
            for s, mask in zip(spikes, fired):
                x = _conv_output(s, weight)
                rtau = w.sigmoid() if learnable_tau else 1.0 / 1.5
                h = charge(x, v, rtau, rest)
                # As in a neuron: the next step reads h only through the reset.
                v = where(mask, fill, h)
                inputs.append(x)
                states.append(h)
            loss = states[0] * Tensor(upstream[0])
            for state, g in zip(states[1:], upstream[1:]):
                loss = loss + state * Tensor(g)
            loss.sum().backward()
            grads = [x.grad for x in inputs] + [weight.grad]
            if learnable_tau:
                grads.append(w.grad)
            return [state.data for state in states] + grads

        def fused(x, v, rtau, rest):
            return PLIFCharge.apply(x, v, rtau, rest=rest)

        _assert_same(run(fused), run(oracle_charge))

    def test_gradcheck(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        v = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        rtau = Tensor(np.array(0.7), requires_grad=True)
        assert check_gradients(
            lambda a, b, c: PLIFCharge.apply(a, b, c, rest=0.1), [x, v, rtau])


def _triangle_primitive(surrogate, z):
    clipped = np.clip(z, -1.0, 1.0)
    rising = 0.5 * (clipped + 1.0) ** 2
    falling = 1.0 - 0.5 * (1.0 - clipped) ** 2
    return surrogate.gamma * np.where(clipped < 0.0, rising, falling)


#: Antiderivative of each surrogate derivative, so a "smooth spike" forward
#: has exactly the gradient ``Fire.backward`` computes.
PRIMITIVES = {
    Triangle: _triangle_primitive,
    ATan: lambda s, z: np.arctan(np.pi / 2.0 * s.alpha * z) / np.pi + 0.5,
    SigmoidSurrogate: lambda s, z: 1.0 / (1.0 + np.exp(-s.alpha * z)),
}


class _SmoothFire(Fire):
    """``Fire`` whose forward is the surrogate's primitive (finite-difference target)."""

    @staticmethod
    def forward(ctx, h, threshold, *, surrogate):
        Fire.forward(ctx, h, threshold, surrogate=surrogate)
        return PRIMITIVES[type(surrogate)](surrogate, ctx["z"])


class TestFire:
    @pytest.mark.parametrize("surrogate", SURROGATES, ids=lambda s: type(s).__name__)
    @pytest.mark.parametrize("learnable", [True, False])
    def test_conv_output_over_shared_steps(self, surrogate, learnable):
        rng = np.random.default_rng(7)
        inputs = [rng.normal(0.8, 0.6, size=CONV_SHAPE) for _ in range(3)]
        upstream = [rng.normal(size=CONV_SHAPE) for _ in range(3)]
        weight0 = rng.normal(0.0, 0.2, size=(8, 8, 3, 3))

        def run(fire):
            weight = Tensor(weight0.copy(), requires_grad=True)
            param = Tensor(np.array(0.9), requires_grad=True)
            hs = [_conv_output(x, weight) for x in inputs]
            spikes = []
            for h in hs:
                threshold = param.maximum(0.05) if learnable else Tensor(np.array(0.9))
                spikes.append(fire(h, threshold, surrogate))
            loss = spikes[0] * Tensor(upstream[0])
            for spike, g in zip(spikes[1:], upstream[1:]):
                loss = loss + spike * Tensor(g)
            loss.sum().backward()
            grads = [h.grad for h in hs] + [weight.grad]
            if learnable:
                grads.append(param.grad)
            return [spike.data for spike in spikes] + grads

        def fused(h, threshold, surrogate):
            return Fire.apply(h, threshold, surrogate=surrogate)

        _assert_same(run(fused), run(oracle_fire))

    @pytest.mark.parametrize("surrogate", SURROGATES, ids=lambda s: type(s).__name__)
    def test_gradcheck_against_surrogate_primitive(self, surrogate):
        rng = np.random.default_rng(8)
        # Keep z = h / V_th - 1 away from the triangle's kinks at 0 and +-1.
        z = rng.choice([-1.6, -0.7, -0.3, 0.4, 0.8, 1.5], size=(3, 4))
        z += rng.uniform(-0.05, 0.05, size=z.shape)
        threshold = Tensor(np.array(0.8), requires_grad=True)
        h = Tensor((z + 1.0) * 0.8, requires_grad=True)
        assert check_gradients(
            lambda a, b: _SmoothFire.apply(a, b, surrogate=surrogate), [h, threshold])

    def test_forward_is_heaviside(self):
        h = Tensor(np.array([[0.5, 1.0, 1.5]]))
        out = Fire.apply(h, Tensor(np.array(1.0)), surrogate=Triangle())
        assert out.data.tolist() == [[0.0, 0.0, 1.0]]


# ----------------------------------------------------------------------
# Whole neurons and whole networks
# ----------------------------------------------------------------------
def _node_network(reset, learnable, surrogate):
    rng = np.random.default_rng(9)

    def node():
        plif = PLIFNode(init_tau=1.3, v_reset=reset, surrogate=surrogate, v_threshold=0.8)
        if learnable:
            plif.make_threshold_learnable()
        return plif

    stack = Sequential(
        Conv2d(2, 8, 3, padding=1, rng=rng), BatchNorm2d(8), node(), AvgPool2d(2),
        Flatten(), Linear(8 * 8 * 8, 10, rng=rng, init_gain=1.5), node())
    return SpikingClassifier(stack, time_steps=3)


def _train(model, steps=2):
    rng = np.random.default_rng(10)
    trainer = Trainer(model, Adam(model.parameters(), lr=0.01), num_classes=10)
    for _ in range(steps):
        frames = rng.random((3, CONV_SHAPE[0], 2, 16, 16)) * 1.5
        trainer.train_step(frames, rng.integers(0, 10, CONV_SHAPE[0]))
    return state_digest(model)


class TestNetworkTraining:
    @pytest.mark.parametrize("reset", [0.0, None], ids=["hard", "soft"])
    @pytest.mark.parametrize("learnable", [True, False], ids=["learnable", "fixed"])
    def test_weights_match_oracle(self, oracle_layers, reset, learnable):
        surrogate = ATan() if learnable else Triangle()
        fused = _train(_node_network(reset, learnable, surrogate))
        oracle_layers()
        oracle = _train(_node_network(reset, learnable, surrogate))
        assert fused == oracle

    def test_neuron_state_matches_oracle_over_steps(self, oracle_layers):
        rng = np.random.default_rng(11)
        frames = [rng.normal(0.6, 0.8, size=CONV_SHAPE) for _ in range(4)]

        def run():
            node = PLIFNode(init_tau=1.3, v_reset=None, surrogate=SigmoidSurrogate(),
                            v_threshold=0.7)
            node.make_threshold_learnable()
            xs = [Tensor(frame, requires_grad=True) for frame in frames]
            spikes = [node(x) for x in xs]
            total = spikes[0]
            for spike in spikes[1:]:
                total = total + spike
            (total * Tensor(frames[0]) + node.v).sum().backward()
            return ([s.data for s in spikes] + [node.v.data] + [x.grad for x in xs]
                    + [node.w.grad, node.v_threshold_param.grad])

        fused = run()
        oracle_layers()
        _assert_same(fused, run())

