"""Tests for fault-aware pruning and the FaP / FaPIT / FalVolt mitigation methods."""

import numpy as np
import pytest

from repro.core import (
    FalVolt,
    FaultAwarePruning,
    FaultAwarePruningWithRetraining,
    MITIGATIONS,
    PruningMaskCallback,
    affine_layers,
    find_pruned_weight_indices,
    get_mitigation,
    pruned_fraction,
    set_pruned_weights_to_zero,
)
from repro.core.base import MitigationResult
from repro.datasets import DataLoader
from repro.faults import FaultMap, random_fault_map
from repro.snn import Trainer, TrainingHistory
from repro.systolic import DEFAULT_ACCUMULATOR_FORMAT

from tests.conftest import MICRO, build_tiny_mnist_model

FMT = DEFAULT_ACCUMULATOR_FORMAT
ARRAY = (16, 16)


@pytest.fixture()
def loaders(tiny_mnist_data):
    train, test = tiny_mnist_data
    return (DataLoader(train, batch_size=12, shuffle=True, seed=4),
            DataLoader(test, batch_size=50))


@pytest.fixture()
def fault_map_30():
    return random_fault_map(*ARRAY, int(0.3 * ARRAY[0] * ARRAY[1]),
                            bit_position=FMT.magnitude_msb, stuck_type="sa1", seed=21)


class TestPruning:
    def test_affine_layers_found(self, tiny_model):
        layers = affine_layers(tiny_model)
        # Encoder conv + 2 conv blocks + 2 FC layers.
        assert len(layers) == 5
        assert all("." in name or name for name, _ in layers)

    def test_find_masks_cover_all_layers(self, tiny_model, fault_map_30):
        masks = find_pruned_weight_indices(tiny_model, fault_map_30)
        assert set(masks) == {name for name, _ in affine_layers(tiny_model)}
        assert all(mask.dtype == bool for mask in masks.values())

    def test_set_pruned_weights_to_zero(self, tiny_model, fault_map_30):
        masks = find_pruned_weight_indices(tiny_model, fault_map_30)
        zeroed = set_pruned_weights_to_zero(tiny_model, masks)
        assert zeroed == sum(int(m.sum()) for m in masks.values())
        for name, layer in affine_layers(tiny_model):
            assert np.all(layer.weight.data[masks[name]] == 0.0)

    def test_pruned_fraction_close_to_fault_rate(self, tiny_model, fault_map_30):
        masks = find_pruned_weight_indices(tiny_model, fault_map_30)
        assert pruned_fraction(masks) == pytest.approx(0.3, abs=0.1)

    def test_pruned_fraction_empty(self):
        assert pruned_fraction({}) == 0.0

    def test_unknown_layer_name(self, tiny_model):
        with pytest.raises(KeyError):
            set_pruned_weights_to_zero(tiny_model, {"bogus": np.zeros((2, 2), dtype=bool)})

    def test_mask_shape_mismatch(self, tiny_model, fault_map_30):
        masks = find_pruned_weight_indices(tiny_model, fault_map_30)
        name = next(iter(masks))
        masks[name] = np.zeros((1, 1), dtype=bool)
        with pytest.raises(ValueError):
            set_pruned_weights_to_zero(tiny_model, masks)

    def test_callback_re_zeroes_after_update(self, tiny_model, fault_map_30):
        masks = find_pruned_weight_indices(tiny_model, fault_map_30)
        set_pruned_weights_to_zero(tiny_model, masks)
        name, layer = affine_layers(tiny_model)[0]
        layer.weight.data[masks[name]] = 5.0  # simulate an optimizer update
        PruningMaskCallback(masks)(tiny_model, epoch=0, logs={})
        assert np.all(layer.weight.data[masks[name]] == 0.0)

    def test_no_faults_prunes_nothing(self, tiny_model):
        empty = FaultMap(*ARRAY)
        masks = find_pruned_weight_indices(tiny_model, empty)
        assert pruned_fraction(masks) == 0.0


class TestMitigationConstruction:
    def test_registry(self):
        assert set(MITIGATIONS) == {"fap", "fapit", "falvolt"}
        assert isinstance(get_mitigation("fap"), FaultAwarePruning)
        assert isinstance(get_mitigation("falvolt", retraining_epochs=2), FalVolt)
        with pytest.raises(KeyError):
            get_mitigation("dropout")

    def test_fap_rejects_retraining(self):
        with pytest.raises(ValueError):
            FaultAwarePruning(retraining_epochs=3)

    def test_fapit_requires_retraining(self):
        with pytest.raises(ValueError):
            FaultAwarePruningWithRetraining(retraining_epochs=0)

    def test_fapit_invalid_threshold(self):
        with pytest.raises(ValueError):
            FaultAwarePruningWithRetraining(retraining_epochs=1, fixed_threshold=0.0)

    def test_negative_epochs_rejected(self):
        with pytest.raises(ValueError):
            FalVolt(retraining_epochs=-1)


class TestMitigationRuns:
    def run_method(self, mitigation, trained_tiny_model_state, loaders, fault_map):
        train_loader, test_loader = loaders
        model, _ = build_tiny_mnist_model()
        model.load_state_dict(trained_tiny_model_state["state"])
        return mitigation.run(model, fault_map, train_loader, test_loader,
                              num_classes=10,
                              baseline_accuracy=trained_tiny_model_state["test_accuracy"]), model

    def test_fap_prunes_without_retraining(self, trained_tiny_model_state, loaders,
                                           fault_map_30):
        result, model = self.run_method(FaultAwarePruning(), trained_tiny_model_state,
                                        loaders, fault_map_30)
        assert result.method == "FaP"
        assert result.retraining_epochs == 0
        assert result.history.epochs == 0
        assert result.pruned_fraction > 0.15
        # Pruned weights really are zero.
        masks = find_pruned_weight_indices(model, fault_map_30)
        for name, layer in affine_layers(model):
            assert np.all(layer.weight.data[masks[name]] == 0.0)

    def test_fapit_recovers_accuracy(self, trained_tiny_model_state, loaders, fault_map_30):
        mitigation = FaultAwarePruningWithRetraining(retraining_epochs=3, learning_rate=1.5e-2)
        result, model = self.run_method(mitigation, trained_tiny_model_state, loaders,
                                        fault_map_30)
        fap_result, _ = self.run_method(FaultAwarePruning(), trained_tiny_model_state,
                                        loaders, fault_map_30)
        assert result.method == "FaPIT"
        assert result.accuracy > fap_result.accuracy
        # Thresholds stay pinned at the fixed value.
        assert all(v == pytest.approx(1.0) for v in result.thresholds.values())
        assert all(not node.learnable_threshold for node in model.spiking_layers())
        # Pruned weights still zero after retraining.
        masks = find_pruned_weight_indices(model, fault_map_30)
        for name, layer in affine_layers(model):
            assert np.all(layer.weight.data[masks[name]] == 0.0)

    def test_falvolt_learns_thresholds_and_recovers(self, trained_tiny_model_state, loaders,
                                                    fault_map_30):
        mitigation = FalVolt(retraining_epochs=3, learning_rate=1.5e-2)
        result, model = self.run_method(mitigation, trained_tiny_model_state, loaders,
                                        fault_map_30)
        assert result.method == "FalVolt"
        assert all(node.learnable_threshold for node in model.spiking_layers())
        # At least one layer's threshold moved away from the initial 1.0.
        assert any(abs(v - 1.0) > 1e-3 for v in result.thresholds.values())
        assert result.accuracy > 0.5
        assert result.history.epochs == 3
        # Pruned weights still zero after retraining.
        masks = find_pruned_weight_indices(model, fault_map_30)
        for name, layer in affine_layers(model):
            assert np.all(layer.weight.data[masks[name]] == 0.0)

    @pytest.mark.parametrize("mitigation, passes", [
        (FaultAwarePruning(), 1),
        (FaultAwarePruningWithRetraining(retraining_epochs=2, learning_rate=1.5e-2), 2),
        (FalVolt(retraining_epochs=2, learning_rate=1.5e-2), 2),
    ], ids=["fap", "fapit", "falvolt"])
    def test_one_test_pass_per_epoch_or_one_without_retraining(
            self, mitigation, passes, trained_tiny_model_state, loaders, fault_map_30,
            monkeypatch):
        """A retrained run reports its last epoch's test pass; FaP evaluates once."""

        calls = []
        original = Trainer.evaluate

        def counting(trainer, loader):
            calls.append(loader)
            return original(trainer, loader)

        monkeypatch.setattr(Trainer, "evaluate", counting)
        result, _ = self.run_method(mitigation, trained_tiny_model_state, loaders,
                                    fault_map_30)
        assert len(calls) == passes
        if result.retraining_epochs:
            assert result.accuracy == result.history.test_accuracy[-1]

    def test_falvolt_initial_threshold_override(self, trained_tiny_model_state, loaders,
                                                fault_map_30):
        mitigation = FalVolt(retraining_epochs=1, learning_rate=1e-3, initial_threshold=0.6)
        result, model = self.run_method(mitigation, trained_tiny_model_state, loaders,
                                        fault_map_30)
        assert all(v < 0.9 for v in result.thresholds.values())

    def test_result_bookkeeping(self, trained_tiny_model_state, loaders, fault_map_30):
        result, _ = self.run_method(FaultAwarePruning(), trained_tiny_model_state, loaders,
                                    fault_map_30)
        assert isinstance(result, MitigationResult)
        assert result.fault_rate == pytest.approx(fault_map_30.fault_rate)
        assert result.accuracy_drop == pytest.approx(
            result.baseline_accuracy - result.accuracy)
        payload = result.as_dict()
        assert payload["method"] == "FaP"
        assert "thresholds" in payload and "history" in payload

    def test_epochs_to_baseline_helper(self):
        history = TrainingHistory(test_accuracy=[0.5, 0.9, 0.97])
        result = MitigationResult(method="x", accuracy=0.97, baseline_accuracy=0.98,
                                  thresholds={}, history=history, pruned_fraction=0.1,
                                  retraining_epochs=3, fault_rate=0.3)
        assert result.epochs_to_baseline(tolerance=0.02) == 3
        assert result.epochs_to_baseline(tolerance=0.0) is None


class TestThresholdSearch:
    """The fixed-threshold grid (Fig. 2) as FaPIT retraining cells."""

    def test_grid_search_records(self):
        from repro.experiments import run_fig2_threshold_grid

        records = run_fig2_threshold_grid(MICRO, fault_rates=(0.30,), thresholds=(0.5, 1.0),
                                          retraining_epochs=1)
        assert len(records) == 2
        assert {r["threshold"] for r in records} == {0.5, 1.0}
        assert all(0.0 <= r["accuracy"] <= 1.0 for r in records)
        assert sum(r["retraining_epochs"] for r in records) == 2
        assert all(r["dataset"] == "mnist" and r["fault_rate"] > 0 for r in records)

    def test_grid_search_requires_thresholds(self, monkeypatch):
        from repro.experiments import motivational, run_fig2_threshold_grid

        def no_training(config):
            raise AssertionError("prepare_baseline ran")

        monkeypatch.setattr(motivational, "prepare_baseline", no_training)
        with pytest.raises(ValueError):
            run_fig2_threshold_grid(MICRO, thresholds=())

    def test_records_do_not_depend_on_earlier_candidates(self):
        """A candidate's record is the same whichever candidates ran first."""

        from repro.experiments import run_fig2_threshold_grid

        kwargs = dict(fault_rates=(0.30,), retraining_epochs=1)
        pair = run_fig2_threshold_grid(MICRO, thresholds=(0.45, 0.5), **kwargs)
        alone = run_fig2_threshold_grid(MICRO, thresholds=(0.5,), **kwargs)
        assert pair[1] == alone[0]
