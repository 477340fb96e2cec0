"""Tests for the Module/Parameter infrastructure."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.snn import Linear, Module, Parameter, Sequential
from repro.snn.layers import BatchNorm2d


class Composite(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Linear(4, 3, rng=np.random.default_rng(0))
        self.fc2 = Linear(3, 2, rng=np.random.default_rng(1))
        self.scale = Parameter(np.array(2.0))

    def forward(self, x):
        return self.fc2(self.fc1(x)) * self.scale


class TestRegistration:
    def test_parameters_collected_recursively(self):
        model = Composite()
        names = [name for name, _ in model.named_parameters()]
        assert "fc1.weight" in names and "fc2.bias" in names and "scale" in names
        assert len(model.parameters()) == 5

    def test_modules_traversal(self):
        model = Composite()
        kinds = [type(m).__name__ for m in model.modules()]
        assert kinds.count("Linear") == 2
        assert kinds[0] == "Composite"

    def test_buffers_registered(self):
        bn = BatchNorm2d(3)
        buffer_names = [name for name, _ in bn.named_buffers()]
        assert set(buffer_names) == {"running_mean", "running_var"}

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(Tensor(np.zeros(1)))


class TestModesAndGrad:
    def test_train_eval_propagates(self):
        model = Composite()
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad(self):
        model = Composite()
        out = model(Tensor(np.ones((2, 4))))
        out.sum().backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())


class TestStateDict:
    def test_roundtrip(self):
        model = Composite()
        state = model.state_dict()
        other = Composite()
        # Perturb, then restore.
        for param in other.parameters():
            param.data += 1.0
        other.load_state_dict(state)
        for (_, a), (_, b) in zip(model.named_parameters(), other.named_parameters()):
            assert np.allclose(a.data, b.data)

    def test_state_dict_copies(self):
        model = Composite()
        state = model.state_dict()
        model.fc1.weight.data += 10.0
        assert not np.allclose(state["fc1.weight"], model.fc1.weight.data)

    def test_unknown_parameter_raises(self):
        model = Composite()
        with pytest.raises(KeyError):
            model.load_state_dict({"nope": np.zeros(3)})

    def test_shape_mismatch_raises(self):
        model = Composite()
        state = model.state_dict()
        state["fc1.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_buffer_roundtrip(self):
        bn = BatchNorm2d(2)
        bn.running_mean[:] = [1.0, 2.0]
        state = bn.state_dict()
        other = BatchNorm2d(2)
        other.load_state_dict(state)
        assert np.allclose(other.running_mean, [1.0, 2.0])

    def test_unknown_buffer_raises(self):
        bn = BatchNorm2d(2)
        with pytest.raises(KeyError):
            bn.load_state_dict({"buffer.bogus": np.zeros(2)})


class TestSequential:
    def test_iteration_and_indexing(self):
        seq = Sequential(Linear(4, 4, rng=np.random.default_rng(0)),
                         Linear(4, 2, rng=np.random.default_rng(1)))
        assert len(seq) == 2
        assert isinstance(seq[1], Linear)
        assert len(list(iter(seq))) == 2

    def test_append(self):
        seq = Sequential()
        seq.append(Linear(2, 2, rng=np.random.default_rng(0)))
        assert len(seq) == 1

    def test_forward_chains(self):
        seq = Sequential(Linear(3, 3, rng=np.random.default_rng(0), bias=False),
                         Linear(3, 1, rng=np.random.default_rng(1), bias=False))
        out = seq(Tensor(np.ones((2, 3))))
        expected = np.ones((2, 3)) @ seq[0].weight.data.T @ seq[1].weight.data.T
        assert np.allclose(out.data, expected)
