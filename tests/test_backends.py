"""The numpy kernel set's gather contract and backend-free cache keys.

Every float64 record built on the cached-index ``im2col`` -- fault-free
rates, Fig. 5b stuck-at sweeps, transient/SEU schedules, campaign records
and trained weights -- must equal the same record built on the
strided-window reference gather ``tobytes()``-for-``tobytes()``.  The
campaign cache-key schema is pinned backend-free.
"""

import contextlib

import numpy as np
import pytest

from repro.datasets import DataLoader
from repro.faults import (
    CampaignPoint,
    CampaignRunner,
    build_faulty_array,
    evaluate_with_faults,
    random_fault_map,
    schedule_from_process,
)
from repro.snn import Adam, Trainer
from repro.snn.inference import FusedFaultEngine, FusedInferenceEngine
from repro.systolic import DEFAULT_ACCUMULATOR_FORMAT
from repro.utils.rng import derive_seed
from tests.conftest import build_tiny_mnist_model, state_digest, strided_im2col

FMT = DEFAULT_ACCUMULATOR_FORMAT


@pytest.fixture()
def test_loader(tiny_mnist_data):
    _, test = tiny_mnist_data
    return DataLoader(test, batch_size=50)


def _fig5b_arrays(counts, seed=0):
    """Fig. 5b-style stuck-at population: mixed counts, types and seeds."""

    return [
        build_faulty_array(
            random_fault_map(8, 8, count, bit_position=None,
                             stuck_type=index % 2, seed=seed + index))
        for index, count in enumerate(counts)
    ]


def _transient_schedules(process="bernoulli", trials=2):
    return [
        schedule_from_process(process, 16, 16, 6, 3, fmt=FMT,
                              seed=derive_seed(9, "backend", process, t))
        for t in range(trials)
    ]


def _accuracy_bytes(accuracies) -> bytes:
    return np.asarray(accuracies, dtype=np.float64).tobytes()


# ----------------------------------------------------------------------
# Differential identity: records on the cached-index gather == records on
# the strided-window reference gather, byte for byte
# ----------------------------------------------------------------------
@pytest.fixture()
def strided_gather(monkeypatch):
    """Context manager routing every convolution through ``strided_im2col``.

    Patches each binding of the gather -- the autograd conv and the
    sequential oracle's array, the fused kernels and ``NumpyBackend.im2col``
    -- and makes ``_patch_index`` raise, so a path that still
    reaches the production gather fails instead of passing vacuously.
    """

    from repro.autograd import functional
    from repro.snn.inference.backends import ops_numpy
    from repro.systolic import array

    def _unreachable(*args):
        raise AssertionError("production gather reached under the reference")

    @contextlib.contextmanager
    def patched():
        with monkeypatch.context() as patch:
            patch.setattr(functional, "im2col", strided_im2col)
            patch.setattr(functional, "_patch_index", _unreachable)
            patch.setattr(array, "im2col", strided_im2col)
            patch.setattr(ops_numpy.NumpyBackend, "im2col",
                          staticmethod(strided_im2col))
            for kernel in (ops_numpy.SoftwareAffineKernel,
                           ops_numpy.ArrayAffineKernel):
                patch.setattr(kernel, "_im2col", staticmethod(strided_im2col))
            yield

    return patched


class TestGatherByteIdentity:
    def test_fault_free_rates_identical(self, trained_tiny_model, test_loader,
                                        strided_gather):
        frame, _ = next(iter(test_loader))
        with strided_gather():
            oracle = FusedInferenceEngine(trained_tiny_model).run(frame)
        rates = FusedInferenceEngine(trained_tiny_model).run(frame)
        assert rates.dtype == np.float64
        assert rates.tobytes() == oracle.tobytes()

    def test_fig5b_sweep_rates_identical(self, trained_tiny_model,
                                         test_loader, strided_gather):
        """Per-map firing rates under a mixed stuck-at population."""

        frame, _ = next(iter(test_loader))
        with strided_gather():
            oracle = FusedFaultEngine(trained_tiny_model,
                                      _fig5b_arrays((0, 1, 2, 4, 8))).run(frame)
        rates = FusedFaultEngine(trained_tiny_model,
                                 _fig5b_arrays((0, 1, 2, 4, 8))).run(frame)
        assert rates.tobytes() == oracle.tobytes()

    def test_fig5b_accuracies_identical(self, trained_tiny_model, test_loader,
                                        strided_gather):
        maps = [random_fault_map(8, 8, count, seed=31 + count)
                for count in (0, 2, 5)]
        with strided_gather():
            oracle = evaluate_with_faults(trained_tiny_model, test_loader, maps)
        accuracies = evaluate_with_faults(trained_tiny_model, test_loader, maps)
        assert _accuracy_bytes(accuracies) == _accuracy_bytes(oracle)

    def test_sequential_oracle_accuracies_identical(self, trained_tiny_model,
                                                    test_loader,
                                                    strided_gather):
        maps = [random_fault_map(8, 8, count, seed=41 + count)
                for count in (2, 5)]
        with strided_gather():
            oracle = evaluate_with_faults(trained_tiny_model, test_loader, maps,
                                          engine="sequential")
        accuracies = evaluate_with_faults(trained_tiny_model, test_loader, maps,
                                          engine="sequential")
        assert _accuracy_bytes(accuracies) == _accuracy_bytes(oracle)

    @pytest.mark.parametrize("process", ["bernoulli", "burst"])
    def test_transient_schedules_identical(self, trained_tiny_model,
                                           test_loader, strided_gather,
                                           process):
        schedules = _transient_schedules(process)
        with strided_gather():
            oracle = evaluate_with_faults(
                trained_tiny_model, test_loader, schedules, engine="fused")
        accuracies = evaluate_with_faults(
            trained_tiny_model, test_loader, schedules, engine="fused")
        assert _accuracy_bytes(accuracies) == _accuracy_bytes(oracle)

    def test_campaign_records_identical(self, trained_tiny_model, test_loader,
                                        strided_gather):
        points = [CampaignPoint.for_trials(8, 8, count, trials=2,
                                           seed=61 + count)
                  for count in (1, 3)]
        with strided_gather():
            oracle = CampaignRunner(trained_tiny_model, test_loader).run(points)
        records = CampaignRunner(trained_tiny_model, test_loader).run(points)
        assert records == oracle

    def test_training_weights_identical(self, tiny_mnist_data, strided_gather):
        """Autograd training (forward cols and weight gradient) keeps its bytes."""

        train, _ = tiny_mnist_data

        def train_digest():
            model, _ = build_tiny_mnist_model()
            trainer = Trainer(model, Adam(model.parameters(), lr=2.5e-2),
                              num_classes=10)
            loader = DataLoader(train, batch_size=12, shuffle=True, seed=3)
            for step, (inputs, labels) in enumerate(loader):
                if step == 3:
                    break
                trainer.train_step(inputs, labels)
            return state_digest(model)

        with strided_gather():
            oracle = train_digest()
        assert train_digest() == oracle


# ----------------------------------------------------------------------
# Campaign plumbing: backend-free cache keys
# ----------------------------------------------------------------------
class TestCampaignPlumbing:
    def test_cache_payload_is_backend_free(self, trained_tiny_model,
                                           test_loader):
        """float64 cache keys must not depend on the harness's backend keyword."""

        point = CampaignPoint.for_trials(8, 8, 2, trials=2, seed=3)
        default = CampaignRunner(trained_tiny_model,
                                 test_loader)._cache_payload(point)
        assert "backend" not in default
        pinned = CampaignRunner(trained_tiny_model, test_loader,
                                backend="numpy")._cache_payload(point)
        assert pinned == default
