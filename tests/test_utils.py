"""Tests for the utility modules (rng, logging, serialization, hashing)."""

import logging

import numpy as np
import pytest

from repro.utils import (
    DEFAULT_SEED,
    configure_logging,
    derive_seed,
    get_logger,
    get_rng,
    load_records,
    load_state_dict,
    save_records,
    save_state_dict,
)
from repro.snn import build_model_for_dataset
from repro.utils.hashing import model_key


class TestRng:
    def test_get_rng_from_int_deterministic(self):
        assert get_rng(5).integers(0, 100, 10).tolist() == get_rng(5).integers(0, 100, 10).tolist()

    def test_get_rng_passthrough(self):
        rng = np.random.default_rng(0)
        assert get_rng(rng) is rng

    def test_get_rng_default_seed(self):
        a = get_rng(None).integers(0, 1000)
        b = get_rng(DEFAULT_SEED).integers(0, 1000)
        assert a == b

    def test_derive_seed_depends_on_tags(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_derive_seed_rejects_generator(self):
        with pytest.raises(TypeError):
            derive_seed(np.random.default_rng(0), "a")

    def test_derive_seed_in_range(self):
        for tag in range(50):
            seed = derive_seed(123, tag)
            assert 0 <= seed < 2**63 - 1


class TestLogging:
    def test_get_logger_namespacing(self):
        assert get_logger().name == "repro"
        assert get_logger("faults").name == "repro.faults"

    def test_configure_logging_idempotent(self):
        logger = configure_logging(level=logging.DEBUG)
        handlers = len(logger.handlers)
        configure_logging(level=logging.INFO)
        assert len(logger.handlers) == handlers


class TestSerialization:
    def test_state_dict_roundtrip(self, tmp_path):
        state = {"w": np.arange(6).reshape(2, 3).astype(float), "b": np.zeros(3)}
        path = tmp_path / "model.npz"
        save_state_dict(state, path)
        loaded = load_state_dict(path)
        assert set(loaded) == {"w", "b"}
        assert np.allclose(loaded["w"], state["w"])

    def test_state_dict_suffix_added(self, tmp_path):
        path = tmp_path / "model"
        save_state_dict({"w": np.ones(2)}, path)
        loaded = load_state_dict(path)
        assert np.allclose(loaded["w"], 1.0)

    def test_records_roundtrip(self, tmp_path):
        records = [{"accuracy": np.float64(0.5), "counts": np.array([1, 2])},
                   {"accuracy": 0.75, "nested": {"x": np.int64(3)}}]
        path = tmp_path / "out" / "records.json"
        save_records(records, path)
        loaded = load_records(path)
        assert loaded[0]["accuracy"] == 0.5
        assert loaded[0]["counts"] == [1, 2]
        assert loaded[1]["nested"]["x"] == 3

    def test_records_handle_tuples(self, tmp_path):
        path = tmp_path / "records.json"
        save_records({"pair": (1, 2)}, path)
        assert load_records(path)["pair"] == [1, 2]


class TestModelKey:
    """The cache-key text of the shipped models stays what cached records hold.

    ``model_key`` hashes each module's class name and its
    ``_SCALAR_ATTRIBUTES``, so renaming a module class, reordering the
    modules or editing that tuple changes every cache key.  A PLIF ``w`` of
    ``0.0`` makes ``tau`` exactly 2.0, so no libm-dependent float enters the
    key, and a fixed token stands in for the weight digest.
    """

    @pytest.mark.parametrize("dataset,key", [
        ("mnist", "ebde4023ad04ee2d536f3b375e7905f4b91970ca74b2172132429afe948ab867"),
        ("dvs_gesture", "0a77ee247f009df108697d5cd26b85d3f43cbc174c929cc07d3c895bdf9d6ce3"),
    ])
    def test_shipped_model_key(self, dataset, key):
        model, _ = build_model_for_dataset(dataset)
        for node in model.spiking_layers():
            node.w.data[...] = 0.0
            assert node.tau == 2.0
        assert model_key(model, token="0" * 64) == key
