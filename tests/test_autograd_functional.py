"""Tests for the NN primitives (conv, pooling, batch-norm, dropout, one-hot)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import (
    Tensor,
    avg_pool2d,
    batch_norm,
    check_gradients,
    col2im,
    conv2d,
    dropout,
    im2col,
    linear,
    one_hot,
)
from repro.autograd import functional
from repro.autograd.functional import Function, _conv_output_size
from tests.conftest import strided_im2col


def reference_conv2d(x, w, b, stride, padding):
    """Direct (slow) convolution used as ground truth."""

    batch, in_c, h, width = x.shape
    out_c, _, kh, kw = w.shape
    oh = _conv_output_size(h, kh, stride, padding)
    ow = _conv_output_size(width, kw, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((batch, out_c, oh, ow))
    for n in range(batch):
        for o in range(out_c):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[n, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    out[n, o, i, j] = np.sum(patch * w[o])
            if b is not None:
                out[n, o] += b[o]
    return out


class TestLinear:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 4)))
        w = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=3))
        out = linear(x, w, b)
        assert np.allclose(out.data, x.data @ w.data.T + b.data)

    def test_gradcheck(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        check_gradients(lambda a, c, d: linear(a, c, d), [x, w, b])

    def test_no_bias(self):
        x = Tensor(np.ones((2, 3)))
        w = Tensor(np.ones((4, 3)))
        assert np.allclose(linear(x, w).data, 3.0)


class TestIm2Col:
    def test_shapes(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 8, 8))
        cols = im2col(x, (3, 3), stride=1, padding=1)
        assert cols.shape == (2, 8, 8, 27)

    def test_stride_two(self):
        x = np.random.default_rng(0).normal(size=(1, 1, 8, 8))
        cols = im2col(x, (2, 2), stride=2, padding=0)
        assert cols.shape == (1, 4, 4, 4)

    def test_values_against_manual_patch(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        cols = im2col(x, (2, 2), stride=1, padding=0)
        assert np.allclose(cols[0, 0, 0], [0, 1, 4, 5])
        assert np.allclose(cols[0, 2, 2], [10, 11, 14, 15])

    def test_col2im_adjoint_property(self):
        # <im2col(x), y> == <x, col2im(y)> (the operators are adjoint).
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 6, 6))
        cols = im2col(x, (3, 3), stride=1, padding=1)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, x.shape, (3, 3), 1, 1)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)


def _gather_input(rng, shape, dtype, transposed=False):
    """Random ``shape`` input with signed zeros and a NaN among its values."""

    if transposed:   # same values, non-contiguous (width and height swapped)
        base = rng.standard_normal(shape[:2] + shape[:1:-1]).astype(dtype)
        x = base.transpose(0, 1, 3, 2)
    else:
        x = rng.standard_normal(shape).astype(dtype)
    if x.size:
        x[0, 0, 0, 0] = -0.0
        x[-1, -1, -1, -1] = np.nan
    return x


def _assert_gather_matches_reference(x, kernel, stride, padding):
    cols = im2col(x, kernel, stride, padding)
    expected = strided_im2col(x, kernel, stride, padding)
    assert (cols.shape, cols.dtype) == (expected.shape, expected.dtype)
    assert cols.tobytes() == expected.tobytes()
    assert cols.flags.c_contiguous and cols.flags.writeable
    assert not np.shares_memory(cols, x)
    index = functional._PATCH_INDEX_CACHE[
        x.shape[1:] + tuple(kernel) + (stride, padding)]
    assert not index.flags.writeable
    assert not np.shares_memory(cols, index)
    return cols


class TestIm2ColGather:
    """The cached-index gather against the strided-window reference copy."""

    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("kernel", [(1, 1), (2, 2), (3, 3), (3, 2), (5, 5)],
                             ids=lambda k: f"{k[0]}x{k[1]}")
    def test_matches_strided_reference(self, kernel, stride, padding):
        rng = np.random.default_rng(sum(kernel) * 100 + stride * 10 + padding)
        for channels in (1, 8):
            for batch in (0, 1, 80):
                for dtype in (np.float32, np.float64):
                    for transposed in (False, True):
                        x = _gather_input(rng, (batch, channels, 9, 7), dtype,
                                          transposed)
                        _assert_gather_matches_reference(x, kernel, stride,
                                                         padding)

    @settings(max_examples=60, deadline=None)
    @given(batch=st.integers(0, 4), channels=st.integers(1, 4),
           height=st.integers(1, 12), width=st.integers(1, 12),
           kh=st.integers(1, 5), kw=st.integers(1, 5),
           stride=st.integers(1, 3), padding=st.integers(0, 2),
           transposed=st.booleans(), seed=st.integers(0, 2**16))
    def test_any_geometry_matches_reference(self, batch, channels, height,
                                            width, kh, kw, stride, padding,
                                            transposed, seed):
        if kh > height + 2 * padding or kw > width + 2 * padding:
            return   # no output position fits
        x = _gather_input(np.random.default_rng(seed),
                          (batch, channels, height, width), np.float64,
                          transposed)
        _assert_gather_matches_reference(x, (kh, kw), stride, padding)

    def test_output_is_a_private_copy(self):
        x = np.random.default_rng(3).standard_normal((2, 3, 6, 6))
        first = im2col(x, (3, 3), 1, 1)
        expected = first.copy()
        first[...] = 7.0   # writing one result touches neither x nor the index
        assert im2col(x, (3, 3), 1, 1).tobytes() == expected.tobytes()

    def test_index_cache_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(functional, "_PATCH_INDEX_CACHE", {})
        x = np.ones((1, 1, 4, 4))
        sizes = []
        for width in range(4, 204):
            im2col(np.ones((1, 1, 4, width)), (3, 3), 1, 1)
            sizes.append(len(functional._PATCH_INDEX_CACHE))
        assert max(sizes) <= 65
        assert all(not index.flags.writeable
                   for index in functional._PATCH_INDEX_CACHE.values())
        # A geometry seen again is served from the cache, not rebuilt.
        im2col(x, (3, 3), 1, 1)
        cached = functional._PATCH_INDEX_CACHE[(1, 4, 4, 3, 3, 1, 1)]
        im2col(x, (3, 3), 1, 1)
        assert functional._PATCH_INDEX_CACHE[(1, 4, 4, 3, 3, 1, 1)] is cached


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_matches_reference(self, stride, padding):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        expected = reference_conv2d(x, w, b, stride, padding)
        assert np.allclose(out.data, expected)

    def test_gradcheck_small(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        check_gradients(lambda a, c, d: conv2d(a, c, d, padding=1), [x, w, b])

    def test_no_bias_gradcheck(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(1, 1, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 1, 2, 2)), requires_grad=True)
        check_gradients(lambda a, c: conv2d(a, c, stride=2), [x, w])

    def test_output_shape(self):
        x = Tensor(np.zeros((2, 3, 16, 16)))
        w = Tensor(np.zeros((8, 3, 3, 3)))
        assert conv2d(x, w, padding=1).shape == (2, 8, 16, 16)


class TestPooling:
    def test_avg_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = avg_pool2d(x, 2)
        assert out.shape == (1, 1, 2, 2)
        assert np.allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_gradcheck(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 2, 4, 4)), requires_grad=True)
        check_gradients(lambda t: avg_pool2d(t, 2), [x])

    def test_avg_pool_rejects_indivisible(self):
        with pytest.raises(ValueError):
            avg_pool2d(Tensor(np.zeros((1, 1, 5, 5))), 2)


class TestBatchNorm:
    def test_training_normalises(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(3.0, 2.0, size=(16, 4, 5, 5)))
        gamma = Tensor(np.ones(4))
        beta = Tensor(np.zeros(4))
        running_mean = np.zeros(4)
        running_var = np.ones(4)
        out = batch_norm(x, gamma, beta, running_mean, running_var, training=True)
        assert abs(out.data.mean()) < 1e-6
        assert out.data.std() == pytest.approx(1.0, abs=1e-2)

    def test_running_stats_updated(self):
        x = Tensor(np.random.default_rng(0).normal(2.0, 1.0, size=(8, 3, 4, 4)))
        running_mean = np.zeros(3)
        running_var = np.ones(3)
        batch_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), running_mean, running_var,
                   training=True, momentum=0.5)
        assert np.all(running_mean > 0.5)

    def test_eval_uses_running_stats(self):
        x = Tensor(np.full((4, 2, 3, 3), 10.0))
        running_mean = np.full(2, 10.0)
        running_var = np.ones(2)
        out = batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)),
                         running_mean, running_var, training=False)
        assert np.allclose(out.data, 0.0, atol=1e-2)

    def test_2d_input(self):
        x = Tensor(np.random.default_rng(1).normal(size=(10, 6)))
        out = batch_norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6)),
                         np.zeros(6), np.ones(6), training=True)
        assert out.shape == (10, 6)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            batch_norm(Tensor(np.zeros((2, 3, 4))), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                       np.zeros(3), np.ones(3), training=True)

    def test_gradcheck(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(4, 2, 3, 3)), requires_grad=True)
        gamma = Tensor(rng.normal(size=2) + 1.0, requires_grad=True)
        beta = Tensor(rng.normal(size=2), requires_grad=True)

        def fn(a, g, b):
            return batch_norm(a, g, b, np.zeros(2), np.ones(2), training=True)

        check_gradients(fn, [x, gamma, beta], atol=1e-3)


class TestDropoutOneHot:
    def test_dropout_eval_is_identity(self):
        x = Tensor(np.ones((5, 5)))
        out = dropout(x, 0.5, training=False, rng=np.random.default_rng(0))
        assert out is x

    def test_dropout_scales_kept_units(self):
        x = Tensor(np.ones((200, 200)))
        out = dropout(x, 0.5, training=True, rng=np.random.default_rng(0))
        kept = out.data[out.data > 0]
        assert np.allclose(kept, 2.0)
        assert out.data.mean() == pytest.approx(1.0, abs=0.05)

    def test_dropout_invalid_p(self):
        with pytest.raises(ValueError):
            dropout(Tensor(np.ones(3)), 1.5, training=True, rng=np.random.default_rng(0))

    def test_one_hot(self):
        enc = one_hot(np.array([0, 2, 1]), 3)
        assert enc.shape == (3, 3)
        assert np.allclose(enc, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_one_hot_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot(np.array([3]), 3)

    def test_one_hot_requires_1d(self):
        with pytest.raises(ValueError):
            one_hot(np.zeros((2, 2), dtype=int), 3)


class TestFunctionBase:
    def test_custom_function_backward(self):
        class Square(Function):
            @staticmethod
            def forward(ctx, x):
                ctx["x"] = x
                return x ** 2

            @staticmethod
            def backward(ctx, grad):
                return (2.0 * ctx["x"] * grad,)

        x = Tensor(np.array([3.0, -2.0]), requires_grad=True)
        Square.apply(x).sum().backward()
        assert np.allclose(x.grad, [6.0, -4.0])

    def test_base_function_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Function.forward({}, np.zeros(1))
        with pytest.raises(NotImplementedError):
            Function.backward({}, np.zeros(1))
