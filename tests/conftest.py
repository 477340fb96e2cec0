"""Shared fixtures for the test-suite.

The expensive fixtures (a trained tiny model per dataset) are session-scoped
so the many mitigation / fault-injection tests reuse one short training run.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.datasets import DataLoader, load_dataset
from repro.experiments import ExperimentConfig
from repro.snn import Adam, Trainer, build_model_for_dataset
from repro.snn.inference.faulty_gemm import FaultyAffineRunner
from repro.snn.inference.plan import AffineSpec
from repro.systolic import BatchedSystolicArray
from repro.utils.rng import get_rng


TINY_MNIST_KWARGS = dict(num_train=120, num_test=50, seed=11, max_shift=1, noise_std=0.04)

#: Micro experiment configuration for the driver integration tests: small
#: enough to train in a couple of seconds, large enough to be well above chance.
MICRO = ExperimentConfig(
    dataset="mnist", num_train=120, num_test=50,
    dataset_kwargs=(("max_shift", 1), ("noise_std", 0.04)),
    channels=6, hidden_units=24, time_steps=3,
    batch_size=12, baseline_epochs=10, baseline_lr=2.5e-2,
    retrain_epochs=2, retrain_lr=1.5e-2,
    array_rows=16, array_cols=16, seed=13)


@pytest.fixture(scope="session")
def rng():
    return get_rng(123)


@pytest.fixture(scope="session")
def tiny_mnist_data():
    """Small synthetic MNIST train/test split shared across tests."""

    return load_dataset("mnist", **TINY_MNIST_KWARGS)


@pytest.fixture(scope="session")
def tiny_mnist_loaders(tiny_mnist_data):
    train, test = tiny_mnist_data
    train_loader = DataLoader(train, batch_size=12, shuffle=True, seed=3)
    test_loader = DataLoader(test, batch_size=50)
    return train_loader, test_loader


def build_tiny_mnist_model(seed: int = 5):
    """Small MNIST PLIF-SNN used throughout the tests (untrained)."""

    model, config = build_model_for_dataset(
        "mnist", channels=6, hidden_units=32, time_steps=3, seed=seed)
    return model, config


def predicted_classes(model, inputs) -> np.ndarray:
    """Arg-max classes of ``model``'s eval-mode autograd forward on ``inputs``."""

    model.eval()
    with no_grad():
        return np.argmax(model(Tensor(inputs)).data, axis=1)


def state_digest(model) -> str:
    """sha256 over every state-dict array's name and bytes."""

    digest = hashlib.sha256()
    for name, array in sorted(model.state_dict().items()):
        digest.update(name.encode())
        digest.update(np.asarray(array).tobytes())
    return digest.hexdigest()


def assert_same_bytes(actual: np.ndarray, expected: np.ndarray) -> None:
    """``actual`` equals ``expected`` byte for byte, so ``-0.0 != +0.0``."""

    assert (actual.shape, actual.dtype) == (expected.shape, expected.dtype)
    assert actual.tobytes() == expected.tobytes()


def strided_im2col(x, kernel, stride, padding):
    """Reference patch gather: a strided-window copy of zero-padded ``x``.

    The gather ``autograd.functional.im2col`` used before its cached flat
    index; the byte-identity tests compare the production gather, and
    every record built on it, against this one.
    """

    batch, channels, height, width = x.shape
    kh, kw = kernel
    out_h = (height + 2 * padding - kh) // stride + 1
    out_w = (width + 2 * padding - kw) // stride + 1
    if padding > 0:
        padded = np.zeros(
            (batch, channels, height + 2 * padding, width + 2 * padding),
            dtype=x.dtype)
        padded[:, :, padding:padding + height, padding:padding + width] = x
        x = padded
    strides = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, shape=(batch, channels, out_h, out_w, kh, kw),
        strides=(strides[0], strides[1], strides[2] * stride,
                 strides[3] * stride, strides[2], strides[3]),
        writeable=False)
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        batch, out_h, out_w, channels * kh * kw)
    return np.ascontiguousarray(cols)


def reshape_sum_pool(x, kernel_size, batch_ndim=1):
    """Reference average pooling: one ``reshape -> sum -> scale`` reduction.

    The window mean ``autograd.functional.window_mean`` replaced with
    row-major tap adds; on spike inputs (0.0/1.0) every window sum is exact
    in any order, so the two agree byte for byte there.
    """

    k = kernel_size
    lead = x.shape[:batch_ndim + 1]
    height, width = x.shape[batch_ndim + 1:]
    windows = x.reshape(lead + (height // k, k, width // k, k))
    return windows.sum(axis=(batch_ndim + 2, batch_ndim + 4)) * (1.0 / (k * k))


def run_faulty_affine(arrays, weight, inputs, bias=None, shared=False,
                      kind="linear", stride=1, padding=0):
    """Per-map output of one layer on the fused engine's faulty runner.

    ``shared`` inputs reach every map unchanged (a fork entry); otherwise
    ``inputs`` carries a leading per-map axis.
    """

    subset = BatchedSystolicArray(arrays)
    runner = FaultyAffineRunner(subset, subset.prepare_weight(weight),
                                AffineSpec(kind, weight, bias, stride, padding))
    if shared:
        return runner.run_entry(runner.entry(inputs, runner.stacked_weights is None))
    return runner.run(inputs)


@pytest.fixture()
def tiny_model():
    model, _ = build_tiny_mnist_model()
    return model


@pytest.fixture(scope="session")
def trained_tiny_model_state(tiny_mnist_data):
    """State dict of a tiny MNIST model trained to high accuracy (shared, read-only).

    Fresh data loaders are built here (rather than reusing the shared loader
    fixture) so the training run does not depend on how many times other
    tests have advanced the shared loader's shuffle stream.
    """

    train, test = tiny_mnist_data
    train_loader = DataLoader(train, batch_size=12, shuffle=True, seed=3)
    test_loader = DataLoader(test, batch_size=50)
    model, _ = build_tiny_mnist_model()
    trainer = Trainer(model, Adam(model.parameters(), lr=2.5e-2), num_classes=10)
    history = trainer.fit(train_loader, epochs=10, test_loader=test_loader)
    return {
        "state": model.state_dict(),
        "test_accuracy": history.test_accuracy[-1],
    }


@pytest.fixture()
def trained_tiny_model(trained_tiny_model_state):
    """A fresh tiny MNIST model loaded with the shared trained weights."""

    model, _ = build_tiny_mnist_model()
    model.load_state_dict(trained_tiny_model_state["state"])
    return model
