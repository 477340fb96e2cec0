"""Tests for the non-spiking layers (conv, fc, batch-norm, pooling, dropout)."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.snn import AvgPool2d, BatchNorm2d, Conv2d, Dropout, Flatten, Linear


class TestLinearLayer:
    def test_output_shape(self):
        layer = Linear(8, 3, rng=np.random.default_rng(0))
        assert layer(Tensor(np.zeros((5, 8)))).shape == (5, 3)

    def test_no_bias(self):
        layer = Linear(4, 2, bias=False, rng=np.random.default_rng(0))
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_init_gain_scales_weights(self):
        small = Linear(100, 50, rng=np.random.default_rng(0), init_gain=1.0)
        large = Linear(100, 50, rng=np.random.default_rng(0), init_gain=3.0)
        assert large.weight.data.std() == pytest.approx(3.0 * small.weight.data.std(), rel=1e-6)

    def test_invalid_gain(self):
        with pytest.raises(ValueError):
            Linear(4, 2, init_gain=0.0)

    def test_gradients_reach_parameters(self):
        layer = Linear(4, 2, rng=np.random.default_rng(0))
        layer(Tensor(np.ones((3, 4)))).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestConvLayer:
    def test_output_shape_with_padding(self):
        layer = Conv2d(3, 8, kernel_size=3, padding=1, rng=np.random.default_rng(0))
        assert layer(Tensor(np.zeros((2, 3, 16, 16)))).shape == (2, 8, 16, 16)

    def test_output_shape_stride(self):
        layer = Conv2d(1, 4, kernel_size=2, stride=2, rng=np.random.default_rng(0))
        assert layer(Tensor(np.zeros((1, 1, 8, 8)))).shape == (1, 4, 4, 4)

    def test_invalid_kernel(self):
        with pytest.raises(ValueError):
            Conv2d(1, 1, kernel_size=0)

    def test_deterministic_with_seed(self):
        a = Conv2d(2, 3, 3, rng=np.random.default_rng(42))
        b = Conv2d(2, 3, 3, rng=np.random.default_rng(42))
        assert np.allclose(a.weight.data, b.weight.data)


class TestBatchNormLayer:
    def test_normalises_in_training(self):
        layer = BatchNorm2d(4)
        x = Tensor(np.random.default_rng(0).normal(5.0, 3.0, size=(16, 4, 6, 6)))
        out = layer(x)
        assert abs(out.data.mean()) < 1e-6

    def test_eval_mode_uses_running_stats(self):
        layer = BatchNorm2d(2)
        x = Tensor(np.random.default_rng(0).normal(2.0, 1.0, size=(32, 2, 4, 4)))
        for _ in range(20):
            layer(x)
        layer.eval()
        out = layer(x)
        assert abs(out.data.mean()) < 0.3

    def test_parameters_and_buffers(self):
        layer = BatchNorm2d(5)
        assert len(layer.parameters()) == 2
        assert layer.running_mean.shape == (5,)


class TestPoolingDropoutFlatten:
    def test_avg_pool_shape(self):
        assert AvgPool2d(2)(Tensor(np.zeros((1, 3, 8, 8)))).shape == (1, 3, 4, 4)

    def test_dropout_train_vs_eval(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((50, 50)))
        train_out = layer(x)
        assert (train_out.data == 0).any()
        layer.eval()
        eval_out = layer(x)
        assert np.allclose(eval_out.data, 1.0)

    def test_dropout_zero_probability_identity(self):
        layer = Dropout(0.0)
        x = Tensor(np.ones((4, 4)))
        assert layer(x) is x

    def test_dropout_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_flatten(self):
        assert Flatten()(Tensor(np.zeros((3, 2, 4, 4)))).shape == (3, 32)
