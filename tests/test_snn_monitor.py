"""Tests for per-layer firing rates (and the membrane-drive story behind FalVolt)."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.core import FaultAwarePruning
from repro.datasets import DataLoader
from repro.faults import fault_map_from_rate
from repro.snn import FusedInferenceEngine, activity_drop, measure_firing_rates
from repro.systolic import DEFAULT_ACCUMULATOR_FORMAT

from tests.conftest import build_tiny_mnist_model


@pytest.fixture()
def sample_batch(tiny_mnist_data):
    _, test = tiny_mnist_data
    return test.inputs[:16]


def autograd_spike_sums(model, inputs, monkeypatch):
    """Each spiking layer's (spikes, neuron-steps) from the eval-mode autograd forward."""

    sums = []
    for node in model.spiking_layers():
        counts = [0.0, 0]
        sums.append(counts)

        def forward(x, node=node, original=node.forward, counts=counts):
            spikes = original(x)
            counts[0] += float(spikes.data.sum())
            counts[1] += spikes.data.size
            return spikes

        monkeypatch.setattr(node, "forward", forward)
    model.eval()
    with no_grad():
        model(Tensor(np.asarray(inputs, dtype=np.float64)))
    monkeypatch.undo()
    return sums


class TestSpikeMonitor:
    def test_records_all_spiking_layers(self, trained_tiny_model, sample_batch):
        rates = measure_firing_rates(trained_tiny_model, sample_batch, labelled_only=False)
        # Encoder PLIF + Conv1 + Conv2 + FC1 + FC2.
        assert list(rates) == ["spiking-0", "Conv1", "Conv2", "FC1", "FC2"]
        assert sum(rates.values()) > 0

    def test_labelled_only(self, trained_tiny_model, sample_batch):
        rates = measure_firing_rates(trained_tiny_model, sample_batch, labelled_only=True)
        assert set(rates) == {"Conv1", "Conv2", "FC1", "FC2"}

    def test_rates_bounded(self, trained_tiny_model, sample_batch):
        rates = measure_firing_rates(trained_tiny_model, sample_batch)
        assert all(0.0 <= r <= 1.0 for r in rates.values())

    @pytest.mark.parametrize("labelled_only", [True, False])
    def test_rates_equal_the_autograd_forward_exactly(self, trained_tiny_model, sample_batch,
                                                      labelled_only, monkeypatch):
        sums = autograd_spike_sums(trained_tiny_model, sample_batch, monkeypatch)
        expected = {}
        for index, (node, (spikes, steps)) in enumerate(
                zip(trained_tiny_model.spiking_layers(), sums)):
            if node.layer_label or not labelled_only:
                expected[node.layer_label or f"spiking-{index}"] = spikes / steps
        trained_tiny_model.train()
        assert measure_firing_rates(trained_tiny_model, sample_batch,
                                    labelled_only=labelled_only) == expected

    def test_engine_counts_add_up_over_runs(self, trained_tiny_model, sample_batch):
        engine = FusedInferenceEngine(trained_tiny_model)
        engine.run(sample_batch)
        once = engine.spike_counts.copy(), engine.neuron_steps.copy()
        engine.run(sample_batch)
        assert np.array_equal(engine.spike_counts, 2 * once[0])
        assert np.array_equal(engine.neuron_steps, 2 * once[1])
        # Each run covers every neuron of every layer at each of T steps.
        nodes = len(trained_tiny_model.spiking_layers())
        assert once[1].shape == (nodes,)
        assert np.all(once[1] % (len(sample_batch) * trained_tiny_model.time_steps) == 0)

    def test_training_mode_restored(self, trained_tiny_model, sample_batch):
        trained_tiny_model.train()
        measure_firing_rates(trained_tiny_model, sample_batch)
        assert trained_tiny_model.training


class TestActivityDrop:
    def test_drop_computation(self):
        before = {"Conv1": 0.2, "FC1": 0.1, "FC2": 0.0}
        after = {"Conv1": 0.1, "FC1": 0.1, "FC2": 0.0, "extra": 0.5}
        drops = activity_drop(before, after)
        assert drops["Conv1"] == pytest.approx(0.5)
        assert drops["FC1"] == pytest.approx(0.0)
        assert drops["FC2"] == 0.0
        assert "extra" not in drops

    def test_missing_layers_skipped(self):
        assert activity_drop({"Conv1": 0.2}, {}) == {}

    def test_pruning_reduces_firing_rates(self, trained_tiny_model_state, tiny_mnist_data,
                                          sample_batch):
        """The mechanism FalVolt exploits: pruning the weights mapped to faulty
        PEs lowers the membrane drive, so firing rates drop across layers."""

        train, test = tiny_mnist_data
        train_loader = DataLoader(train, batch_size=12, shuffle=True, seed=1)
        test_loader = DataLoader(test, batch_size=50)

        healthy, _ = build_tiny_mnist_model()
        healthy.load_state_dict(trained_tiny_model_state["state"])
        before = measure_firing_rates(healthy, sample_batch)

        pruned, _ = build_tiny_mnist_model()
        pruned.load_state_dict(trained_tiny_model_state["state"])
        fault_map = fault_map_from_rate(
            16, 16, 0.60, bit_position=DEFAULT_ACCUMULATOR_FORMAT.magnitude_msb,
            stuck_type="sa1", seed=3)
        FaultAwarePruning().run(pruned, fault_map, train_loader, test_loader,
                                num_classes=10,
                                baseline_accuracy=trained_tiny_model_state["test_accuracy"])
        after = measure_firing_rates(pruned, sample_batch)

        drops = activity_drop(before, after)
        # The total activity of the hidden layers shrinks after 60% pruning.
        assert np.mean(list(drops.values())) > 0.1
