"""Property-based tests (hypothesis) for the autodiff engine."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays, array_shapes

from repro.autograd import Tensor, check_gradients


finite_floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False,
                          allow_infinity=False)


def small_arrays(max_dims=3, max_side=4):
    return arrays(dtype=np.float64,
                  shape=array_shapes(min_dims=1, max_dims=max_dims, max_side=max_side),
                  elements=finite_floats)


class TestAlgebraicProperties:
    @given(small_arrays(), small_arrays())
    @settings(max_examples=30, deadline=None)
    def test_addition_commutes(self, a, b):
        if a.shape != b.shape:
            return
        x, y = Tensor(a), Tensor(b)
        assert np.allclose((x + y).data, (y + x).data)

    @given(small_arrays())
    @settings(max_examples=30, deadline=None)
    def test_sum_matches_numpy(self, a):
        assert np.allclose(Tensor(a).sum().data, a.sum())

    @given(small_arrays())
    @settings(max_examples=30, deadline=None)
    def test_mean_matches_numpy(self, a):
        assert np.allclose(Tensor(a).mean().data, a.mean())

    @given(small_arrays())
    @settings(max_examples=30, deadline=None)
    def test_double_negation_identity(self, a):
        x = Tensor(a)
        assert np.allclose((-(-x)).data, a)


class TestGradientProperties:
    @given(small_arrays(max_dims=2))
    @settings(max_examples=20, deadline=None)
    def test_sum_gradient_is_ones(self, a):
        x = Tensor(a, requires_grad=True)
        x.sum().backward()
        assert np.allclose(x.grad, np.ones_like(a))

    @given(small_arrays(max_dims=2), finite_floats)
    @settings(max_examples=20, deadline=None)
    def test_linear_scaling_gradient(self, a, c):
        x = Tensor(a, requires_grad=True)
        (x * c).sum().backward()
        assert np.allclose(x.grad, np.full_like(a, c))

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=15, deadline=None)
    def test_matmul_gradcheck_random_shapes(self, n, k, m):
        rng = np.random.default_rng(n * 100 + k * 10 + m)
        a = Tensor(rng.normal(size=(n, k)), requires_grad=True)
        b = Tensor(rng.normal(size=(k, m)), requires_grad=True)
        assert check_gradients(lambda x, y: x @ y, [a, b])

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=6))
    @settings(max_examples=15, deadline=None)
    def test_broadcast_bias_grad_shape(self, batch, features):
        rng = np.random.default_rng(batch * 7 + features)
        x = Tensor(rng.normal(size=(batch, features)), requires_grad=True)
        b = Tensor(rng.normal(size=(features,)), requires_grad=True)
        ((x + b) * 2.0).sum().backward()
        assert b.grad.shape == (features,)
        assert np.allclose(b.grad, np.full(features, 2.0 * batch))
