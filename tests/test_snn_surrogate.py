"""Tests for the spike function and its surrogate gradients."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor
from repro.snn import ATan, SigmoidSurrogate, Triangle, get_surrogate
from repro.snn.neurons import Fire


def spike(z, surrogate):
    """Fire at ``V_th = 1``, so ``h = z + 1`` (exact for the values used here)."""

    return Fire.apply(z + 1.0, 1.0, surrogate=surrogate)


class TestSpikeForward:
    def test_heaviside_output_binary(self):
        z = Tensor(np.array([-0.5, 0.0, 0.25, 2.0]))
        spikes = spike(z, Triangle())
        assert np.array_equal(spikes.data, [0.0, 0.0, 1.0, 1.0])

    def test_spikes_at_exact_zero_do_not_fire(self):
        spikes = spike(Tensor(np.zeros(3)), Triangle())
        assert np.all(spikes.data == 0.0)


class TestTriangleSurrogate:
    def test_derivative_matches_eq2(self):
        surrogate = Triangle(gamma=2.0)
        z = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        expected = 2.0 * np.maximum(0.0, 1.0 - np.abs(z))
        assert np.allclose(surrogate.derivative(z), expected)

    def test_backward_uses_surrogate(self):
        z = Tensor(np.array([-0.5, 0.5, 3.0]), requires_grad=True)
        spike(z, Triangle(gamma=1.0)).sum().backward()
        assert np.allclose(z.grad, [0.5, 0.5, 0.0])

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            Triangle(gamma=0.0)

    @given(st.floats(min_value=-5, max_value=5, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_derivative_nonnegative_and_bounded(self, z):
        surrogate = Triangle(gamma=1.5)
        value = surrogate.derivative(np.array(z))
        assert 0.0 <= value <= 1.5


class TestOtherSurrogates:
    def test_atan_peak_at_zero(self):
        surrogate = ATan(alpha=2.0)
        z = np.linspace(-3, 3, 101)
        derivative = surrogate.derivative(z)
        assert np.argmax(derivative) == 50
        assert np.all(derivative > 0)

    def test_sigmoid_symmetric(self):
        surrogate = SigmoidSurrogate(alpha=4.0)
        assert surrogate.derivative(np.array(0.7)) == pytest.approx(
            surrogate.derivative(np.array(-0.7)))

    @pytest.mark.parametrize("cls", [ATan, SigmoidSurrogate])
    def test_invalid_alpha(self, cls):
        with pytest.raises(ValueError):
            cls(alpha=-1.0)


class TestRegistry:
    @pytest.mark.parametrize("name,cls", [("triangle", Triangle), ("atan", ATan),
                                          ("sigmoid", SigmoidSurrogate)])
    def test_lookup(self, name, cls):
        assert isinstance(get_surrogate(name), cls)

    def test_lookup_with_kwargs(self):
        assert get_surrogate("triangle", gamma=3.0).gamma == 3.0

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_surrogate("step")
