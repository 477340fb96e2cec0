"""Tests for SpikingClassifier (temporal execution) and the model builders."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.snn import (
    SpikingClassifier,
    build_model_for_dataset,
    build_plif_snn,
    dvs_gesture_config,
    mnist_config,
    nmnist_config,
)
from repro.snn.layers import Sequential, Linear
from repro.snn.neurons import PLIFNode


def make_toy_classifier(time_steps=3):
    layers = Sequential(
        Linear(6, 8, rng=np.random.default_rng(0)),
        PLIFNode(layer_label="FC1"),
        Linear(8, 4, rng=np.random.default_rng(1)),
        PLIFNode(layer_label="FC2"),
    )
    return SpikingClassifier(layers, time_steps=time_steps)


class TestSpikingClassifier:
    def test_static_input_shape(self, tiny_model):
        x = Tensor(np.random.default_rng(0).random((5, 1, 16, 16)))
        out = tiny_model(x)
        assert out.shape == (5, 10)
        assert np.all(out.data >= 0.0) and np.all(out.data <= 1.0)

    def test_event_input_shape(self):
        model, _ = build_model_for_dataset("nmnist", channels=4, hidden_units=16, time_steps=3)
        x = Tensor((np.random.default_rng(0).random((3, 4, 2, 16, 16)) > 0.8).astype(float))
        out = model(x)
        assert out.shape == (4, 10)

    def test_invalid_input_rank(self):
        model = make_toy_classifier()
        with pytest.raises(ValueError):
            model(Tensor(np.zeros(6)))

    def test_invalid_time_steps(self):
        with pytest.raises(ValueError):
            SpikingClassifier(Sequential(), time_steps=0)

    def test_state_reset_between_forwards(self):
        model = make_toy_classifier()
        model.layers(Tensor(np.random.default_rng(1).random((2, 6))))
        assert any(node.v is not None for node in model.spiking_layers())
        model.reset_state()
        assert all(node.v is None for node in model.spiking_layers())

    def test_repeated_forward_is_deterministic(self):
        model = make_toy_classifier()
        model.eval()
        x = Tensor(np.random.default_rng(0).random((2, 6)))
        first = model(x).data.copy()
        second = model(x).data.copy()
        assert np.allclose(first, second)

    def test_output_is_average_rate(self):
        model = make_toy_classifier(time_steps=4)
        frames = Tensor(np.random.default_rng(0).random((4, 2, 6)))
        rates = model(frames)
        assert np.all(rates.data <= 1.0)

    def test_threshold_summary_labels(self, tiny_model):
        summary = tiny_model.threshold_summary()
        assert set(summary) == {"Conv1", "Conv2", "FC1", "FC2"}
        assert all(v == pytest.approx(1.0) for v in summary.values())


class TestModelBuilders:
    def test_mnist_architecture_labels(self):
        model, config = build_model_for_dataset("mnist", channels=4, hidden_units=16)
        labels = [n.layer_label for n in model.labelled_spiking_layers()]
        assert labels == ["Conv1", "Conv2", "FC1", "FC2"]
        assert config.num_classes == 10

    def test_dvs_architecture_has_five_conv_blocks(self):
        model, config = build_model_for_dataset("dvs_gesture", channels=4, hidden_units=16)
        labels = [n.layer_label for n in model.labelled_spiking_layers()]
        assert labels == ["Conv1", "Conv2", "Conv3", "Conv4", "Conv5", "FC1", "FC2"]
        assert config.num_classes == 11

    def test_nmnist_input_channels(self):
        _, config = build_model_for_dataset("nmnist")
        assert config.input_channels == 2

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            build_model_for_dataset("cifar")

    def test_config_presets(self):
        assert mnist_config().conv_blocks == 2
        assert nmnist_config().input_channels == 2
        assert dvs_gesture_config().conv_blocks == 5

    def test_forward_pass_all_datasets(self):
        for dataset, channels in (("mnist", 1), ("nmnist", 2), ("dvs_gesture", 2)):
            model, config = build_model_for_dataset(dataset, channels=4, hidden_units=16,
                                                    time_steps=2)
            x = Tensor(np.random.default_rng(0).random((2, channels, 16, 16)))
            out = model(x)
            assert out.shape == (2, config.num_classes)

    def test_seed_reproducible_weights(self):
        a, _ = build_model_for_dataset("mnist", seed=3)
        b, _ = build_model_for_dataset("mnist", seed=3)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.allclose(pa.data, pb.data)
