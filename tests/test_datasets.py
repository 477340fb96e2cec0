"""Tests for the synthetic datasets and the data-loading infrastructure."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import (
    ArrayDataset,
    DataLoader,
    NUM_GESTURE_CLASSES,
    events_from_motion,
    generate_dvs_gesture,
    generate_mnist,
    generate_nmnist,
    gesture_events,
    load_dataset,
    render_digit,
)


class TestArrayDataset:
    def test_length_and_getitem(self):
        data = ArrayDataset(np.zeros((6, 1, 4, 4)), np.arange(6) % 3, num_classes=3)
        assert len(data) == 6
        x, y = data[2]
        assert x.shape == (1, 4, 4) and y == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((5, 1, 4, 4)), np.zeros(4, dtype=int), num_classes=2)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((2, 1, 4, 4)), np.array([0, 5]), num_classes=3)

    def test_event_data_detection(self):
        static = ArrayDataset(np.zeros((3, 1, 4, 4)), np.zeros(3, dtype=int), 2)
        events = ArrayDataset(np.zeros((3, 5, 2, 4, 4)), np.zeros(3, dtype=int), 2)
        assert not static.is_event_data
        assert events.is_event_data

    def test_split_disjoint_and_complete(self):
        data = ArrayDataset(np.arange(40).reshape(10, 1, 2, 2).astype(float),
                            np.arange(10) % 2, num_classes=2)
        train, test = data.split(0.7, seed=0)
        assert len(train) == 7 and len(test) == 3
        combined = np.sort(np.concatenate([train.inputs.ravel(), test.inputs.ravel()]))
        assert np.allclose(combined, np.sort(data.inputs.ravel()))

    def test_split_invalid_fraction(self):
        data = ArrayDataset(np.zeros((4, 1, 2, 2)), np.zeros(4, dtype=int), 2)
        with pytest.raises(ValueError):
            data.split(1.0)

    def test_subset(self):
        data = ArrayDataset(np.arange(8).reshape(4, 1, 1, 2).astype(float),
                            np.arange(4) % 2, num_classes=2)
        sub = data.subset([0, 3])
        assert len(sub) == 2
        assert np.allclose(sub.inputs[1], data.inputs[3])


class TestDataLoader:
    def test_batches_cover_dataset(self):
        data = ArrayDataset(np.zeros((25, 1, 4, 4)), np.zeros(25, dtype=int), 2)
        loader = DataLoader(data, batch_size=10)
        sizes = [labels.shape[0] for _, labels in loader]
        assert sizes == [10, 10, 5]
        assert len(loader) == 3

    def test_drop_last(self):
        data = ArrayDataset(np.zeros((25, 1, 4, 4)), np.zeros(25, dtype=int), 2)
        loader = DataLoader(data, batch_size=10, drop_last=True)
        assert len(loader) == 2
        assert sum(labels.shape[0] for _, labels in loader) == 20

    def test_shuffle_changes_order_but_not_content(self):
        labels = np.arange(30) % 3
        data = ArrayDataset(np.arange(30 * 4).reshape(30, 1, 2, 2).astype(float), labels, 3)
        loader = DataLoader(data, batch_size=30, shuffle=True, seed=1)
        _, first = next(iter(loader))
        assert not np.array_equal(first, labels)
        assert np.array_equal(np.sort(first), np.sort(labels))

    def test_event_batches_time_major(self):
        data = ArrayDataset(np.zeros((8, 5, 2, 4, 4)), np.zeros(8, dtype=int), 2)
        loader = DataLoader(data, batch_size=4)
        inputs, labels = next(iter(loader))
        assert inputs.shape == (5, 4, 2, 4, 4)

    def test_invalid_batch_size(self):
        data = ArrayDataset(np.zeros((4, 1, 2, 2)), np.zeros(4, dtype=int), 2)
        with pytest.raises(ValueError):
            DataLoader(data, batch_size=0)


class TestSyntheticMNIST:
    def test_render_digit_shapes_and_distinct(self):
        glyphs = [render_digit(d) for d in range(10)]
        assert all(g.shape == (16, 16) for g in glyphs)
        # All ten digit templates are pairwise distinct.
        for i in range(10):
            for j in range(i + 1, 10):
                assert not np.allclose(glyphs[i], glyphs[j])

    def test_render_digit_invalid(self):
        with pytest.raises(ValueError):
            render_digit(10)
        with pytest.raises(ValueError):
            render_digit(3, image_size=8)

    def test_generate_shapes_and_range(self):
        data = generate_mnist(num_samples=50, seed=0)
        assert data.inputs.shape == (50, 1, 16, 16)
        assert data.num_classes == 10
        assert data.inputs.min() >= 0.0 and data.inputs.max() <= 1.0

    def test_generate_balanced(self):
        data = generate_mnist(num_samples=100, seed=0)
        assert np.all(np.bincount(data.labels, minlength=data.num_classes) == 10)

    def test_generate_deterministic(self):
        a = generate_mnist(num_samples=30, seed=5)
        b = generate_mnist(num_samples=30, seed=5)
        assert np.allclose(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_generate_too_few(self):
        with pytest.raises(ValueError):
            generate_mnist(num_samples=5)


class TestSyntheticNMNIST:
    def test_events_from_motion_shape_and_binary(self):
        rng = np.random.default_rng(0)
        frames = events_from_motion(render_digit(3), time_steps=5, rng=rng)
        assert frames.shape == (5, 2, 16, 16)
        assert set(np.unique(frames)) <= {0.0, 1.0}

    def test_events_require_positive_steps(self):
        with pytest.raises(ValueError):
            events_from_motion(render_digit(1), time_steps=0, rng=np.random.default_rng(0))

    def test_generate_shapes(self):
        data = generate_nmnist(num_samples=40, time_steps=4, seed=0)
        assert data.inputs.shape == (40, 4, 2, 16, 16)
        assert data.is_event_data

    def test_motion_produces_both_polarities(self):
        data = generate_nmnist(num_samples=20, time_steps=4, seed=0)
        assert data.inputs[:, :, 0].sum() > 0
        assert data.inputs[:, :, 1].sum() > 0


class TestSyntheticDVSGesture:
    def test_eleven_classes(self):
        data = generate_dvs_gesture(num_samples=44, time_steps=4, seed=0)
        assert data.num_classes == NUM_GESTURE_CLASSES == 11
        assert np.array_equal(np.unique(data.labels), np.arange(11))

    def test_gesture_events_shape(self):
        frames = gesture_events(3, time_steps=6, size=16, rng=np.random.default_rng(0))
        assert frames.shape == (6, 2, 16, 16)

    def test_gesture_invalid_class(self):
        with pytest.raises(ValueError):
            gesture_events(11, time_steps=4, size=16, rng=np.random.default_rng(0))

    def test_gesture_requires_multiple_steps(self):
        with pytest.raises(ValueError):
            gesture_events(0, time_steps=1, size=16, rng=np.random.default_rng(0))

    def test_gestures_have_distinct_event_patterns(self):
        rng = np.random.default_rng(0)
        signatures = []
        for gesture in range(NUM_GESTURE_CLASSES):
            frames = gesture_events(gesture, time_steps=8, size=16, rng=rng,
                                    jitter=0.0, phase_offset=0.0)
            signatures.append(frames.ravel())
        # No two gestures produce identical spatio-temporal event patterns.
        for i in range(len(signatures)):
            for j in range(i + 1, len(signatures)):
                assert not np.allclose(signatures[i], signatures[j])


class TestRegistry:
    @pytest.mark.parametrize("name,channels", [("mnist", 1), ("nmnist", 2), ("dvs_gesture", 2)])
    def test_load_dataset_splits(self, name, channels):
        train, test = load_dataset(name, num_train=22, num_test=11, seed=0)
        assert len(train) == 22 and len(test) == 11
        channel_axis = 2 if train.is_event_data else 1
        assert train.inputs.shape[channel_axis] == channels

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            load_dataset("imagenet")

    def test_train_test_disjoint_by_seed(self):
        train, test = load_dataset("mnist", num_train=20, num_test=20, seed=3)
        # Generated from different derived seeds -> not identical tensors.
        assert not np.allclose(train.inputs[:20], test.inputs[:20])

    @given(st.integers(min_value=10, max_value=60))
    @settings(max_examples=10, deadline=None)
    def test_mnist_any_size_balanced_within_one(self, n):
        data = generate_mnist(num_samples=n, seed=1)
        counts = np.bincount(data.labels, minlength=data.num_classes)
        assert counts.max() - counts.min() <= 1
