"""Unit tests for the core autodiff engine (Tensor, ops, backward)."""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, no_grad, where
from repro.autograd import is_grad_enabled


class TestTensorBasics:
    def test_construction_from_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.dtype == np.float64

    def test_requires_grad_flag(self):
        t = Tensor(np.ones(3), requires_grad=True)
        assert t.requires_grad
        assert t.grad is None

    def test_item_and_len(self):
        assert Tensor(np.array(2.5)).item() == pytest.approx(2.5)
        assert len(Tensor(np.zeros(7))) == 7

    def test_copy_is_independent(self):
        t = Tensor(np.ones(3))
        c = t.copy()
        c.data[0] = 9.0
        assert t.data[0] == 1.0


class TestArithmeticBackward:
    def test_add_backward(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])
        assert np.allclose(b.grad, [1.0, 1.0])

    def test_mul_backward(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, [3.0, 4.0])
        assert np.allclose(b.grad, [1.0, 2.0])

    def test_sub_and_neg_backward(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 5.0]), requires_grad=True)
        (a - b).sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])
        assert np.allclose(b.grad, [-1.0, -1.0])

    def test_div_backward(self):
        a = Tensor(np.array([2.0, 4.0]), requires_grad=True)
        b = Tensor(np.array([2.0, 8.0]), requires_grad=True)
        (a / b).sum().backward()
        assert np.allclose(a.grad, [0.5, 0.125])
        assert np.allclose(b.grad, [-0.5, -0.0625])

    def test_pow_backward(self):
        a = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        (a ** 3).sum().backward()
        assert np.allclose(a.grad, [12.0, 27.0])

    def test_scalar_broadcasting(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (2.0 * a + 1.0).sum().backward()
        assert np.allclose(a.grad, [2.0, 2.0])

    def test_rsub_rdiv(self):
        a = Tensor(np.array([2.0, 4.0]), requires_grad=True)
        out = (8.0 - a) + (8.0 / a)
        out.sum().backward()
        assert np.allclose(a.grad, [-1.0 - 2.0, -1.0 - 0.5])

    def test_matmul_backward_2d(self):
        a = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        b = Tensor(np.random.default_rng(1).normal(size=(4, 5)), requires_grad=True)
        check_gradients(lambda x, y: x @ y, [a, b])

    def test_grad_accumulates_over_reuse(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        out = a * 2.0 + a * 3.0
        out.sum().backward()
        assert np.allclose(a.grad, [5.0, 5.0])

    def test_backward_on_non_grad_tensor_raises(self):
        t = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            t.backward()

    def test_tensor_exponent_rejected(self):
        a = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(TypeError):
            a ** Tensor(np.ones(2))


class TestBroadcastingGradients:
    def test_broadcast_add_bias(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        (x + b).sum().backward()
        assert b.grad.shape == (3,)
        assert np.allclose(b.grad, [4.0, 4.0, 4.0])

    def test_broadcast_mul_column(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        c = Tensor(np.full((4, 1), 2.0), requires_grad=True)
        (x * c).sum().backward()
        assert c.grad.shape == (4, 1)
        assert np.allclose(c.grad, 3.0)

    def test_broadcast_scalar_tensor(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        s = Tensor(np.array(3.0), requires_grad=True)
        (x * s).sum().backward()
        assert s.grad.shape == ()
        assert s.grad == pytest.approx(4.0)


class TestReductionsAndShape:
    def test_sum_axis_keepdims(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        out = x.sum(axis=1, keepdims=True)
        assert out.shape == (3, 1)
        out.backward(np.ones((3, 1)))
        assert np.allclose(x.grad, 1.0)

    def test_mean_gradient(self):
        x = Tensor(np.ones((2, 5)), requires_grad=True)
        x.mean().backward()
        assert np.allclose(x.grad, 0.1)

    def test_mean_multi_axis(self):
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        out = x.mean(axis=(1, 2))
        assert out.shape == (2,)
        out.sum().backward()
        assert np.allclose(x.grad, 1.0 / 12)

    def test_var_matches_numpy(self):
        data = np.random.default_rng(0).normal(size=(3, 5))
        x = Tensor(data)
        assert np.allclose(x.var(axis=1).data, data.var(axis=1))

    def test_reshape_backward(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        x.reshape(2, 3).sum().backward()
        assert x.grad.shape == (6,)
        assert np.allclose(x.grad, 1.0)

    def test_flatten_batch(self):
        x = Tensor(np.zeros((4, 2, 3, 3)))
        assert x.flatten_batch().shape == (4, 18)

    def test_transpose_backward(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)), requires_grad=True)
        check_gradients(lambda t: t.transpose(2, 0, 1), [x])

    def test_T_property(self):
        x = Tensor(np.zeros((2, 5)))
        assert x.T.shape == (5, 2)

    def test_getitem_backward(self):
        x = Tensor(np.arange(10.0), requires_grad=True)
        x[2:5].sum().backward()
        expected = np.zeros(10)
        expected[2:5] = 1.0
        assert np.allclose(x.grad, expected)

    def test_getitem_fancy_index_accumulates(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        idx = np.array([1, 1, 3])
        x[idx].sum().backward()
        expected = np.array([0.0, 2.0, 0.0, 1.0, 0.0])
        assert np.allclose(x.grad, expected)


class TestNonlinearities:
    def test_sigmoid_gradcheck(self):
        x = Tensor(np.random.default_rng(3).normal(size=(4, 3)) + 0.1, requires_grad=True)
        check_gradients(lambda t: t.sigmoid(), [x])

    def test_maximum_with_constant(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        x.maximum(0.0).sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0])

    def test_comparison_returns_numpy(self):
        x = Tensor(np.array([1.0, 3.0]))
        assert isinstance(x > 2.0, np.ndarray)
        assert np.array_equal(x > 2.0, [False, True])


class TestGraphUtilities:
    def test_where_routes_gradient(self):
        cond = np.array([True, False, True])
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        where(cond, a, b).sum().backward()
        assert np.allclose(a.grad, [1.0, 0.0, 1.0])
        assert np.allclose(b.grad, [0.0, 1.0, 0.0])

    def test_no_grad_blocks_graph(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            out = a * 2.0
        assert is_grad_enabled()
        assert not out.requires_grad

    def test_no_grad_restored_after_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert is_grad_enabled()

    def test_deep_chain_backward(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        out = x
        for _ in range(50):
            out = out * 1.01 + 0.001
        out.backward()
        assert x.grad is not None and x.grad[0] > 0

    def test_diamond_graph_gradient(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        a = x * 3.0
        b = x * 4.0
        (a + b).backward()
        assert np.allclose(x.grad, [7.0])

    def test_zero_grad_clears(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 2.0).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_explicit_backward_gradient(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = x * 3.0
        y.backward(np.full((2, 2), 2.0))
        assert np.allclose(x.grad, 6.0)


class TestGraphRelease:
    """backward() frees the graph as it goes; a graph is backpropagated once."""

    @staticmethod
    def graph_nodes(root):
        """Every tensor reachable from ``root`` through ``_parents``."""

        nodes, stack, seen = [], [root], set()
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                nodes.append(node)
                stack.extend(node._parents)
        return nodes

    @staticmethod
    def small_graph():
        from repro.autograd.functional import batch_norm, conv2d

        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 1, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 1, 3, 3)), requires_grad=True)
        gamma = Tensor(np.ones(3), requires_grad=True)
        beta = Tensor(np.zeros(3), requires_grad=True)
        h = batch_norm(conv2d(x, w, padding=1), gamma, beta,
                       np.zeros(3), np.ones(3), training=True)
        loss = (h.sigmoid() * h).sum()
        return (x, w, gamma, beta), h, loss

    def test_backward_releases_every_interior_node(self):
        leaves, h, loss = self.small_graph()
        nodes = self.graph_nodes(loss)
        interior = [node for node in nodes if node._backward is not None]
        assert len(interior) >= 4
        loss.backward()
        for node in interior:
            assert node._backward is None and node._parents is None
        for leaf in leaves:
            assert leaf._parents == () and leaf.grad is not None
        # A held interior tensor keeps its data and its grad.
        s = 1.0 / (1.0 + np.exp(-h.data))
        assert np.allclose(h.grad, s * (1.0 - s) * h.data + s)

    def test_second_backward_through_a_released_graph_raises(self):
        (x, *_), h, loss = self.small_graph()
        loss.backward()
        first = x.grad.copy()
        with pytest.raises(RuntimeError, match="already backpropagated"):
            loss.backward()
        # A new graph on a released node is refused too, before any grad moves.
        with pytest.raises(RuntimeError, match="already backpropagated"):
            (h * 2.0).sum().backward()
        assert np.array_equal(x.grad, first)

    def test_train_step_backward_peak_stays_near_the_forward_graph(self, monkeypatch):
        """On a small-MNIST step, backward peaks at <= 1.1x the forward graph.

        Tracing starts with the step, so the traced size when backward
        starts is the forward graph and the peak during backward is what
        backward adds on top of it (1.42x before the graph was freed as
        backward goes).
        """

        import tracemalloc

        from repro.experiments import default_config
        from repro.experiments.baseline import build_loaders
        from repro.snn import Adam, Trainer, build_model_for_dataset

        config = default_config("mnist")
        train_loader, _ = build_loaders(config)
        model, _ = build_model_for_dataset(
            config.dataset, channels=config.channels, hidden_units=config.hidden_units,
            time_steps=config.time_steps, seed=config.seed)
        trainer = Trainer(model, Adam(model.parameters(), lr=config.baseline_lr),
                          num_classes=config.num_classes)
        inputs, labels = next(iter(train_loader))
        trainer.train_step(inputs, labels)  # optimizer state and index caches

        sizes = {}
        backward = Tensor.backward

        def traced_backward(self, grad=None):
            sizes["graph"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(self, grad)
            sizes["peak"] = tracemalloc.get_traced_memory()[1]

        monkeypatch.setattr(Tensor, "backward", traced_backward)
        tracemalloc.start()
        try:
            trainer.train_step(inputs, labels)
        finally:
            tracemalloc.stop()
        assert sizes["peak"] <= 1.1 * sizes["graph"], sizes
