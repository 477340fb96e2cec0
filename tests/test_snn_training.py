"""Tests for the loss, the optimizer and the Trainer loop."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.datasets import DataLoader
from repro.snn import (
    Adam,
    Trainer,
    TrainingHistory,
    accuracy,
    rate_mse_loss,
)
from repro.snn.layers import Linear
from repro.snn.module import Parameter, Module


class TestLosses:
    def test_rate_mse_zero_when_perfect(self):
        rates = Tensor(np.eye(3))
        labels = np.array([0, 1, 2])
        assert rate_mse_loss(rates, labels, 3).item() == pytest.approx(0.0)

    def test_rate_mse_positive_when_wrong(self):
        rates = Tensor(np.zeros((2, 4)))
        loss = rate_mse_loss(rates, np.array([1, 2]), 4)
        assert loss.item() > 0

    def test_accuracy_metric(self):
        rates = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3]])
        assert accuracy(rates, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_accuracy_batch_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((2, 3)), np.zeros(3, dtype=int))

    def test_accuracy_empty(self):
        assert accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int)) == 0.0


class QuadraticProblem(Module):
    """Minimise ||w - target||^2 -- used to test optimizers converge."""

    def __init__(self):
        super().__init__()
        self.w = Parameter(np.array([5.0, -3.0]))

    def forward(self):
        target = Tensor(np.array([1.0, 2.0]))
        diff = self.w - target
        return (diff * diff).sum()


class TestOptimizers:
    def test_converges_on_quadratic(self):
        problem = QuadraticProblem()
        optimizer = Adam(problem.parameters(), lr=0.2)
        for _ in range(200):
            optimizer.zero_grad()
            loss = problem()
            loss.backward()
            optimizer.step()
        assert np.allclose(problem.w.data, [1.0, 2.0], atol=1e-2)

    def test_skips_parameters_without_grad(self):
        problem = QuadraticProblem()
        optimizer = Adam(problem.parameters(), lr=0.1)
        optimizer.step()  # no backward yet; must not crash
        assert np.allclose(problem.w.data, [5.0, -3.0])

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_invalid_learning_rate(self):
        problem = QuadraticProblem()
        with pytest.raises(ValueError):
            Adam(problem.parameters(), lr=0.0)


class TestTrainer:
    def test_fit_improves_accuracy(self, tiny_mnist_loaders):
        from tests.conftest import build_tiny_mnist_model

        train_loader, test_loader = tiny_mnist_loaders
        model, _ = build_tiny_mnist_model(seed=9)
        trainer = Trainer(model, Adam(model.parameters(), lr=2.5e-2), num_classes=10)
        before = trainer.evaluate(test_loader)
        history = trainer.fit(train_loader, epochs=4, test_loader=test_loader)
        assert history.epochs == 4
        assert history.test_accuracy[-1] > before
        assert history.test_accuracy[-1] > 0.3

    def test_trained_model_reaches_high_accuracy(self, trained_tiny_model_state):
        assert trained_tiny_model_state["test_accuracy"] >= 0.85

    def test_callbacks_invoked_each_epoch(self, tiny_mnist_loaders):
        from tests.conftest import build_tiny_mnist_model

        train_loader, _ = tiny_mnist_loaders
        model, _ = build_tiny_mnist_model()
        calls = []
        trainer = Trainer(model, Adam(model.parameters(), lr=1e-2), num_classes=10)
        trainer.fit(train_loader, epochs=2,
                    callbacks=[lambda m, epoch, logs: calls.append(epoch)])
        assert calls == [0, 1]

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_evaluate_restores_callers_mode(self, tiny_mnist_loaders, tiny_model, training):
        _, test_loader = tiny_mnist_loaders
        tiny_model.train(training)
        trainer = Trainer(tiny_model, Adam(tiny_model.parameters(), lr=1e-2), num_classes=10)
        trainer.evaluate(test_loader)
        assert all(module.training == training for module in tiny_model.modules())

    def test_fit_records_do_not_depend_on_starting_mode(self, tiny_mnist_data):
        from tests.conftest import build_tiny_mnist_model, state_digest

        train, test = tiny_mnist_data
        runs = []
        for training in (True, False):
            model, _ = build_tiny_mnist_model()
            model.train(training)
            trainer = Trainer(model, Adam(model.parameters(), lr=1e-2), num_classes=10)
            history = trainer.fit(DataLoader(train, batch_size=12, shuffle=True, seed=3),
                                  epochs=2, test_loader=DataLoader(test, batch_size=50))
            assert model.training
            runs.append((history.as_dict(), state_digest(model)))
        assert runs[0] == runs[1]

    def test_zero_epochs(self, tiny_mnist_loaders, tiny_model):
        train_loader, _ = tiny_mnist_loaders
        trainer = Trainer(tiny_model, Adam(tiny_model.parameters(), lr=1e-2), num_classes=10)
        history = trainer.fit(train_loader, epochs=0)
        assert history.epochs == 0

    def test_negative_epochs_rejected(self, tiny_mnist_loaders, tiny_model):
        train_loader, _ = tiny_mnist_loaders
        trainer = Trainer(tiny_model, Adam(tiny_model.parameters(), lr=1e-2), num_classes=10)
        with pytest.raises(ValueError):
            trainer.fit(train_loader, epochs=-1)


class TestTrainingDeterminism:
    def test_micro_config_trains_to_identical_weights(self, tiny_mnist_data):
        """Two trainings in one process give byte-identical final weights."""

        from tests.conftest import build_tiny_mnist_model, state_digest

        train, _ = tiny_mnist_data
        digests = []
        for _ in range(2):
            model, _ = build_tiny_mnist_model(seed=4)
            trainer = Trainer(model, Adam(model.parameters(), lr=2.5e-2), num_classes=10)
            trainer.fit(DataLoader(train, batch_size=12, shuffle=True, seed=8), epochs=2)
            digests.append(state_digest(model))
        assert digests[0] == digests[1]


class TestTrainingHistory:
    def test_epochs_to_reach(self):
        history = TrainingHistory(test_accuracy=[0.3, 0.6, 0.9, 0.95])
        assert history.epochs_to_reach(0.9) == 3
        assert history.epochs_to_reach(0.99) is None

    def test_as_dict(self):
        history = TrainingHistory(train_loss=[0.5], train_accuracy=[0.6], test_accuracy=[0.7])
        payload = history.as_dict()
        assert payload["train_loss"] == [0.5]
        assert payload["test_accuracy"] == [0.7]
