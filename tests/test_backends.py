"""Pluggable kernel-backend registry: selection semantics and bit identity.

Covers the resolution order (argument > ``REPRO_BACKEND`` > numpy), the
failure modes (unknown name lists the available backends; a known backend
whose import or runtime is missing raises when requested explicitly but
degrades to numpy with a logged notice when selected via the environment),
and the gather's differential contract: every float64 record built on the
cached-index ``im2col`` -- fault-free rates, Fig. 5b stuck-at sweeps,
transient/SEU schedules, campaign records and trained weights -- must
equal the same record built on the strided-window reference gather
``tobytes()``-for-``tobytes()``.  The campaign cache-key schema is
pinned backend-free, and the documented ``REPRO_*`` environment-variable
table is grepped against the source tree.
"""

import contextlib
import logging
import re
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser
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
from repro.snn.inference import (
    Backend,
    BackendUnavailableError,
    FusedFaultEngine,
    FusedInferenceEngine,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend_name,
)
from repro.snn.inference import backends as registry
from repro.systolic import DEFAULT_ACCUMULATOR_FORMAT
from repro.utils.rng import derive_seed
from tests.conftest import build_tiny_mnist_model, state_digest, strided_im2col

FMT = DEFAULT_ACCUMULATOR_FORMAT


@pytest.fixture()
def test_loader(tiny_mnist_data):
    _, test = tiny_mnist_data
    return DataLoader(test, batch_size=50)


@pytest.fixture(autouse=True)
def _clean_backend_env(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)


class _StubBackend(Backend):
    """Minimal backend double with controllable availability."""

    def __init__(self, name, ok=True, reason=None):
        self.name = name
        self._ok = ok
        self._reason = reason

    def available(self):
        return self._ok

    def unavailable_reason(self):
        return self._reason


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
# Selection: argument > REPRO_BACKEND > default
# ----------------------------------------------------------------------
class TestSelection:
    def test_default_is_numpy(self):
        assert get_backend().name == "numpy"
        assert resolve_backend_name() == "numpy"
        assert "numpy" in available_backends()

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setitem(registry._REGISTRY, "stub", _StubBackend("stub"))
        monkeypatch.setenv("REPRO_BACKEND", "stub")
        assert get_backend().name == "stub"
        assert resolve_backend_name() == "stub"

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setitem(registry._REGISTRY, "stub", _StubBackend("stub"))
        monkeypatch.setenv("REPRO_BACKEND", "stub")
        assert get_backend("numpy").name == "numpy"

    def test_names_are_normalised(self):
        assert get_backend("  NumPy ").name == "numpy"
        assert resolve_backend_name("NUMPY") == "numpy"

    def test_backend_instances_pass_through_engines(self, trained_tiny_model,
                                                    test_loader):
        backend = get_backend("numpy")
        engine = FusedInferenceEngine(trained_tiny_model, backend=backend)
        assert engine.backend is backend

    def test_register_rejects_empty_name(self):
        with pytest.raises(ValueError, match="non-empty"):
            register_backend(_StubBackend("  "))


# ----------------------------------------------------------------------
# Failure modes: unknown names, unavailable backends, import errors
# ----------------------------------------------------------------------
class TestFailureModes:
    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="unknown backend 'nope'") as err:
            get_backend("nope")
        assert "numpy" in str(err.value)

    def test_explicit_unavailable_raises(self, monkeypatch):
        broken = _StubBackend("broken", ok=False, reason="no toolchain")
        monkeypatch.setitem(registry._REGISTRY, "broken", broken)
        with pytest.raises(BackendUnavailableError, match="no toolchain"):
            get_backend("broken")

    def test_env_unavailable_degrades_with_notice(self, monkeypatch, caplog):
        broken = _StubBackend("broken", ok=False, reason="no toolchain")
        monkeypatch.setitem(registry._REGISTRY, "broken", broken)
        monkeypatch.setenv("REPRO_BACKEND", "broken")
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert get_backend().name == "numpy"
        assert "falling back" in caplog.text
        assert "broken" in caplog.text

    def test_import_error_counts_as_unavailable(self, monkeypatch, caplog):
        """An ops_* module that failed to import degrades, not crashes."""

        monkeypatch.setitem(registry._IMPORT_ERRORS, "ghost",
                            "No module named 'ghostlib'")
        with pytest.raises(BackendUnavailableError, match="ghostlib"):
            get_backend("ghost")
        monkeypatch.setenv("REPRO_BACKEND", "ghost")
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert get_backend().name == "numpy"
        assert "ghostlib" in caplog.text

    def test_unavailable_backends_not_listed(self, monkeypatch):
        broken = _StubBackend("broken", ok=False)
        monkeypatch.setitem(registry._REGISTRY, "broken", broken)
        assert "broken" not in available_backends()

    def test_backend_requires_fused_engine(self, trained_tiny_model,
                                           test_loader):
        maps = [random_fault_map(8, 8, 2, seed=1)]
        with pytest.raises(ValueError, match="fused"):
            evaluate_with_faults(trained_tiny_model, test_loader, maps,
                                 engine="sequential", backend="numpy")
        with pytest.raises(ValueError, match="fused"):
            CampaignRunner(trained_tiny_model, test_loader, engine="sequential",
                           backend="numpy")


# ----------------------------------------------------------------------
# Differential identity: records on the cached-index gather == records on
# the strided-window reference gather, byte for byte
# ----------------------------------------------------------------------
@pytest.fixture()
def strided_gather(monkeypatch):
    """Context manager routing every convolution through ``strided_im2col``.

    Patches each binding of the gather -- the autograd conv and the
    sequential oracle's array, the fused kernels and ``Backend.im2col`` --
    and makes ``_patch_index`` raise, so a path that still
    reaches the production gather fails instead of passing vacuously.
    """

    from repro.autograd import functional
    from repro.snn.inference.backends import base, ops_numpy
    from repro.systolic import array

    def _unreachable(*args):
        raise AssertionError("production gather reached under the reference")

    @contextlib.contextmanager
    def patched():
        with monkeypatch.context() as patch:
            patch.setattr(functional, "im2col", strided_im2col)
            patch.setattr(functional, "_patch_index", _unreachable)
            patch.setattr(array, "im2col", strided_im2col)
            patch.setattr(base, "_numpy_im2col", strided_im2col)
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
# Campaign plumbing: resolve-once semantics and backend-free cache keys
# ----------------------------------------------------------------------
class TestCampaignPlumbing:
    def test_runner_resolves_backend_in_parent(self, trained_tiny_model,
                                               test_loader, monkeypatch):
        assert CampaignRunner(trained_tiny_model,
                              test_loader).backend == "numpy"
        monkeypatch.setitem(registry._REGISTRY, "stub", _StubBackend("stub"))
        monkeypatch.setenv("REPRO_BACKEND", "stub")
        runner = CampaignRunner(trained_tiny_model, test_loader)
        assert runner.backend == "stub"   # env read once, in the parent

    def test_non_fused_engines_skip_resolution(self, trained_tiny_model,
                                               test_loader, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "definitely-not-registered")
        runner = CampaignRunner(trained_tiny_model, test_loader,
                                engine="sequential")
        assert runner.backend is None

    def test_cache_payload_is_backend_free(self, trained_tiny_model,
                                           test_loader, monkeypatch):
        """float64 cache keys must stay byte-unchanged across backends."""

        point = CampaignPoint.for_trials(8, 8, 2, trials=2, seed=3)
        default = CampaignRunner(trained_tiny_model,
                                 test_loader)._cache_payload(point)
        assert "backend" not in default
        monkeypatch.setitem(registry._REGISTRY, "stub", _StubBackend("stub"))
        stub = CampaignRunner(trained_tiny_model, test_loader,
                              backend="stub")._cache_payload(point)
        assert stub == default


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_backend_flag_parses(self):
        args = build_parser().parse_args(
            ["campaign", "counts", "--engine", "fused", "--backend", "stub"])
        assert args.backend == "stub"

    def test_backend_defaults_to_none(self):
        args = build_parser().parse_args(["campaign", "counts"])
        assert args.backend is None   # engines then apply env > "numpy"


# ----------------------------------------------------------------------
# Documentation drift
# ----------------------------------------------------------------------
ENV_VAR = re.compile(r"REPRO_[A-Z0-9_]+")


def test_env_var_table_in_sync():
    """docs/ARCHITECTURE.md documents exactly the REPRO_* vars the code reads."""

    root = Path(__file__).resolve().parents[1]
    used = set()
    for base in ("src", "benchmarks"):
        for path in sorted((root / base).rglob("*.py")):
            used.update(ENV_VAR.findall(path.read_text(encoding="utf-8")))
    doc = (root / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
    documented = {
        ENV_VAR.search(line).group(0)
        for line in doc.splitlines()
        if line.startswith("| `REPRO_")
    }
    missing = used - documented
    stale = documented - used
    assert not missing, f"undocumented REPRO_* vars: {sorted(missing)}"
    assert not stale, f"documented but unused REPRO_* vars: {sorted(stale)}"
