"""Tests for the experiment harness (configs, baseline cache, reporting, registry)."""

import dataclasses

import numpy as np
import pytest

from repro.experiments import (
    EXPERIMENTS,
    PAPER_DATASETS,
    PAPER_FAULT_RATES,
    PAPER_THRESHOLD_GRID,
    clear_baseline_cache,
    default_config,
    format_series,
    format_table,
    get_experiment,
    list_experiments,
    prepare_baseline,
)
from repro.experiments.baseline import build_loaders
from tests.conftest import MICRO




@pytest.fixture(scope="module")
def micro_baseline():
    return prepare_baseline(MICRO)


class TestConfig:
    def test_default_configs_exist_for_paper_datasets(self):
        for dataset in PAPER_DATASETS:
            config = default_config(dataset)
            assert config.dataset == dataset
            assert config.num_classes in (10, 11)

    def test_full_scale_differs(self):
        small = default_config("mnist", scale="small")
        full = default_config("mnist", scale="full")
        assert full.num_train > small.num_train
        assert full.array_rows >= small.array_rows

    def test_unknown_scale_or_dataset(self):
        with pytest.raises(KeyError):
            default_config("mnist", scale="huge")
        with pytest.raises(KeyError):
            default_config("cifar")

    def test_overrides(self):
        config = default_config("mnist", num_train=50, seed=99)
        assert config.num_train == 50 and config.seed == 99

    def test_every_bad_override_named_in_one_error(self):
        with pytest.raises(ValueError) as excinfo:
            default_config("mnist", baseline_epochs="x", seed=-1, bogus=1)
        message = str(excinfo.value)
        for problem in ("'baseline_epochs' override", "'seed' override",
                        "unknown config_overrides key(s) ['bogus']"):
            assert problem in message

    def test_scenario_build_config_checks_call_overrides(self):
        from repro.experiments.scenarios import Scenario

        scenario = Scenario(name="t", dataset="mnist", sweep="counts", values=(2,))
        with pytest.raises(ValueError, match="'baseline_epochs'.*'seed'"):
            scenario.build_config(baseline_epochs="x", seed=-1)

    def test_with_overrides_returns_copy(self):
        config = default_config("mnist")
        other = config.with_overrides(batch_size=5)
        assert other.batch_size == 5 and config.batch_size != 5

    def test_paper_constants(self):
        assert PAPER_FAULT_RATES == (0.10, 0.30, 0.60)
        assert PAPER_THRESHOLD_GRID == (0.45, 0.5, 0.55, 0.7)

    def test_dataset_options_dict(self):
        assert default_config("mnist").dataset_options()["max_shift"] == 1
        assert default_config("nmnist").dataset_options() == {}


class TestReporting:
    RECORDS = [
        {"method": "FaP", "fault_rate": 0.3, "accuracy": 0.42},
        {"method": "FalVolt", "fault_rate": 0.3, "accuracy": 0.985},
    ]

    def test_format_table_contains_values(self):
        table = format_table(self.RECORDS, columns=["method", "accuracy"], title="Fig7")
        assert "Fig7" in table and "FalVolt" in table and "0.985" in table
        assert table.count("\n") >= 3

    def test_format_table_empty(self):
        assert "(no records)" in format_table([], title="x")

    def test_format_table_infers_columns(self):
        table = format_table(self.RECORDS)
        assert "fault_rate" in table

    def test_format_series_grouping(self):
        series = format_series(self.RECORDS, x="fault_rate", y="accuracy", group_by="method")
        assert "[method=FaP]" in series and "0.300->0.420" in series

    def test_format_series_ungrouped(self):
        series = format_series(self.RECORDS, x="fault_rate", y="accuracy")
        assert "0.300->0.985" in series


class TestRegistry:
    def test_all_paper_figures_registered(self):
        ids = {spec.experiment_id for spec in list_experiments()}
        assert {"fig2", "fig5a", "fig5b", "fig5c", "fig6", "fig7", "fig8", "headline"} <= ids

    def test_every_spec_has_runner_and_benchmark(self):
        for spec in list_experiments():
            assert callable(spec.runner)
            assert spec.benchmark.startswith("benchmarks/")

    def test_get_experiment(self):
        assert get_experiment("fig7").paper_artifact == "Figure 7"
        with pytest.raises(KeyError):
            get_experiment("fig9")


class TestBaselinePreparation:
    def test_build_loaders_shapes(self):
        train_loader, test_loader = build_loaders(MICRO)
        inputs, labels = next(iter(train_loader))
        assert inputs.shape[0] == MICRO.batch_size
        assert labels.shape[0] == MICRO.batch_size

    def test_baseline_reaches_reasonable_accuracy(self, micro_baseline):
        assert micro_baseline.baseline_accuracy > 0.6
        assert micro_baseline.num_classes == 10

    def test_baseline_cache_reused(self, micro_baseline):
        again = prepare_baseline(MICRO)
        assert again is micro_baseline

    def test_model_factory_returns_independent_copies(self, micro_baseline):
        a = micro_baseline.model_factory()
        b = micro_baseline.model_factory()
        a_params = dict(a.named_parameters())
        b_params = dict(b.named_parameters())
        name = next(iter(a_params))
        a_params[name].data += 1.0
        assert not np.allclose(a_params[name].data, b_params[name].data)

    def test_clear_cache(self, micro_baseline):
        clear_baseline_cache()
        rebuilt = prepare_baseline(MICRO, use_cache=False)
        assert rebuilt is not micro_baseline
        # Re-populate the module-scoped cache entry for later tests.
        prepare_baseline(MICRO)


    def test_baseline_evaluates_once_after_training(self, monkeypatch):
        from repro.snn import Trainer

        calls = []
        original = Trainer.evaluate

        def counting(trainer, loader):
            calls.append(loader)
            return original(trainer, loader)

        monkeypatch.setattr(Trainer, "evaluate", counting)
        prepared = prepare_baseline(dataclasses.replace(MICRO, baseline_epochs=2),
                                    use_cache=False)
        assert len(calls) == 1
        assert calls[0] is prepared.test_loader

    def test_untrained_baseline_reports_measured_accuracy(self):
        from repro.snn import evaluate

        prepared = prepare_baseline(dataclasses.replace(MICRO, baseline_epochs=0),
                                    use_cache=False)
        untrained = prepared.model_factory()
        assert prepared.baseline_accuracy == evaluate(untrained, prepared.test_loader)
        assert prepared.baseline_accuracy > 0.0

    @pytest.mark.parametrize("ablation", ["surrogate", "reset"])
    def test_ablation_variants_train_on_the_same_shuffle(self, ablation, monkeypatch):
        """Every variant's first batch is the same, whatever its position."""

        from repro.experiments.ablations import ablate_reset_mode, ablate_surrogate_gradient
        from repro.snn import Trainer

        first_labels = []
        fit = Trainer.fit

        def recording_fit(trainer, train_loader, epochs, *args, **kwargs):
            first_labels.append(next(iter(train_loader))[1].tolist())
            return fit(trainer, train_loader, epochs, *args, **kwargs)

        monkeypatch.setattr(Trainer, "fit", recording_fit)
        if ablation == "surrogate":
            records = ablate_surrogate_gradient(MICRO, surrogates=("triangle", "atan"),
                                                epochs=0)
        else:
            records = ablate_reset_mode(MICRO, epochs=0)
        assert len(first_labels) == len(records) == 2
        assert first_labels[1] == first_labels[0]


def run_fig5(name, **grid):
    """Records of the built-in scenario ``name`` with ``grid`` on MICRO."""

    from repro.experiments import get_scenario, run_scenario

    return run_scenario(dataclasses.replace(get_scenario(name), **grid), MICRO)


class TestExperimentDrivers:
    def test_fig5b_records_shape(self, micro_baseline):
        records = run_fig5("fig5b", values=(0, 16), trials=2)
        assert len(records) == 2
        assert records[0]["num_faulty_pes"] == 0
        assert records[0]["accuracy"] >= records[1]["accuracy"] - 0.05
        assert all(r["dataset"] == "mnist" for r in records)

    def test_fig5a_records_shape(self, micro_baseline):
        records = run_fig5("fig5a", values=(0, 14), stuck_type="sa1",
                           num_faulty=4, trials=1)
        assert len(records) == 2
        bits = {r["bit_position"] for r in records}
        assert bits == {0, 14}

    def test_fig5c_records_shape(self, micro_baseline):
        records = run_fig5("fig5c", values=(4, 16), num_faulty=2, trials=1)
        assert [r["array_size"] for r in records] == [4, 16]

    def test_headline_claim1_runs_the_fig5b_scenario(self, monkeypatch):
        import repro.experiments.headline as headline
        from repro.experiments import get_scenario

        class Captured(Exception):
            pass

        seen = []

        def capture(scenario, config):
            seen.append((scenario, config))
            raise Captured

        monkeypatch.setattr(headline, "run_scenario", capture)
        with pytest.raises(Captured):
            headline.run_headline_claims(MICRO, few_faults=6)
        [(scenario, config)] = seen
        assert scenario == dataclasses.replace(get_scenario("fig5b"),
                                               values=(0, 6), trials=3)
        assert config is MICRO

    def test_fig7_methods_and_ordering(self, micro_baseline):
        from repro.experiments import run_fig7_mitigation_comparison

        records = run_fig7_mitigation_comparison(MICRO, fault_rates=(0.30,),
                                                 methods=("fap", "falvolt"),
                                                 retraining_epochs=2)
        assert len(records) == 2
        by_method = {r["method"]: r for r in records}
        assert set(by_method) == {"FaP", "FalVolt"}
        assert by_method["FalVolt"]["accuracy"] >= by_method["FaP"]["accuracy"]

    def test_fig6_threshold_records(self, micro_baseline):
        from repro.experiments import run_fig6_optimized_thresholds

        records = run_fig6_optimized_thresholds(MICRO, fault_rates=(0.30,),
                                                retraining_epochs=1)
        layers = {r["layer"] for r in records}
        assert layers == {"Conv1", "Conv2", "FC1", "FC2"}
        assert all(r["threshold_voltage"] > 0 for r in records)

    def test_fig8_convergence_records(self, micro_baseline):
        from repro.experiments import convergence_speedup, run_fig8_convergence

        records = run_fig8_convergence(MICRO, fault_rate=0.30, retraining_epochs=2)
        methods = {r["method"] for r in records}
        assert methods == {"FaPIT", "FalVolt"}
        assert all(1 <= r["epoch"] <= 2 for r in records)
        # Speedup is either undefined (not reached) or a positive ratio.
        speedup = convergence_speedup(records)
        assert speedup is None or speedup > 0

    def test_fig2_threshold_grid(self, micro_baseline):
        from repro.experiments import run_fig2_threshold_grid

        records = run_fig2_threshold_grid(MICRO, fault_rates=(0.30,),
                                          thresholds=(0.55, 1.0), retraining_epochs=1)
        assert len(records) == 2
        assert {r["threshold"] for r in records} == {0.55, 1.0}
        assert all(0.0 <= r["accuracy"] <= 1.0 for r in records)

    def test_mitigation_cells_do_not_depend_on_earlier_cells(self, micro_baseline):
        """Repeated FalVolt cells agree, and match a run on a fresh loader.

        Every cell used to share the baseline's train loader, whose shuffle
        RNG carried over from cell to cell.
        """

        from repro.core import get_mitigation
        from repro.experiments import RetrainCell, retrain_cells
        from repro.experiments.mitigation import _fault_map

        cell = RetrainCell(0.30, "falvolt")
        records = retrain_cells(micro_baseline,
                                [cell, RetrainCell(0.30, "fapit"), cell],
                                retraining_epochs=1)
        assert records[2] == records[0]

        train_loader, _ = build_loaders(MICRO)
        mitigation = get_mitigation("falvolt", retraining_epochs=1,
                                    learning_rate=MICRO.retrain_lr)
        fresh = mitigation.run(micro_baseline.model_factory(), _fault_map(MICRO, cell),
                               train_loader, micro_baseline.test_loader,
                               num_classes=micro_baseline.num_classes,
                               baseline_accuracy=micro_baseline.baseline_accuracy)
        assert records[0] == {**fresh.as_dict(), "dataset": "mnist", "rate": 0.30}

    def test_falvolt_cell_weights_repeat(self, micro_baseline, monkeypatch):
        """A FalVolt cell run twice on fresh loaders ends with identical weights."""

        from repro.experiments import RetrainCell, retrain_cells
        from tests.conftest import state_digest

        models = []
        factory = micro_baseline.model_factory

        def recording_factory():
            models.append(factory())
            return models[-1]

        monkeypatch.setattr(micro_baseline, "model_factory", recording_factory)
        retrain_cells(micro_baseline, [RetrainCell(0.30, "falvolt")] * 2,
                      retraining_epochs=1)
        assert len(models) == 2
        assert state_digest(models[0]) == state_digest(models[1])

    def test_fig6_after_fig7_retrains_nothing(self, micro_baseline, tmp_path, monkeypatch):
        """Fig. 6 after Fig. 7 on one cache dir retrains nothing and matches a cold run."""

        from repro.experiments import (
            mitigation,
            run_fig6_optimized_thresholds,
            run_fig7_mitigation_comparison,
        )

        run_fig7_mitigation_comparison(MICRO, fault_rates=(0.30,), methods=("fap", "falvolt"),
                                       retraining_epochs=1, cache_dir=tmp_path)
        cold = run_fig6_optimized_thresholds(MICRO, fault_rates=(0.30,), retraining_epochs=1)
        built = []
        real = mitigation.get_mitigation

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(mitigation, "get_mitigation", counting)
        warm = run_fig6_optimized_thresholds(MICRO, fault_rates=(0.30,), retraining_epochs=1,
                                             cache_dir=tmp_path)
        assert built == []
        assert warm == cold

    def test_bad_cells_rejected_before_training(self, monkeypatch):
        from repro.experiments import RetrainCell, mitigation, run_fig7_mitigation_comparison

        def no_training(config):
            raise AssertionError("prepare_baseline ran")

        monkeypatch.setattr(mitigation, "prepare_baseline", no_training)
        with pytest.raises(KeyError, match="pruning"):
            RetrainCell(0.30, "pruning")
        with pytest.raises(ValueError, match="threshold"):
            RetrainCell(0.30, "fap", threshold=0.5)
        with pytest.raises(KeyError, match="pruning"):
            run_fig7_mitigation_comparison(MICRO, methods=("fap", "pruning"))

    def test_unknown_mitigation_rejected(self, micro_baseline):
        from repro.experiments import run_fig7_mitigation_comparison

        with pytest.raises(KeyError):
            run_fig7_mitigation_comparison(MICRO, methods=("pruning",))


def canonical(records) -> bytes:
    """The bytes ``repro run --out`` would write for ``records``."""

    import json

    return json.dumps(records, sort_keys=True).encode("utf-8")


class TestRetrainCellsOnOrchestrator:
    """Retraining cells run as work units: shards, chaos and workers."""

    CELLS = (("fap", 0.30), ("falvolt", 0.30), ("fapit", 0.60))

    @pytest.fixture(scope="class")
    def cells(self):
        from repro.experiments import RetrainCell

        return [RetrainCell(rate, method) for method, rate in self.CELLS]

    @pytest.fixture(scope="class")
    def reference(self, micro_baseline, cells):
        from repro.experiments import retrain_cells

        return retrain_cells(micro_baseline, cells, retraining_epochs=1)

    @pytest.fixture()
    def fast_backoff(self, monkeypatch):
        monkeypatch.setattr("repro.faults.orchestrator.RETRY_BACKOFF", 0.05)

    def test_two_shards_then_merge_equal_unsharded(self, micro_baseline, cells,
                                                   reference, tmp_path, monkeypatch):
        from repro.experiments import mitigation, retrain_cells
        from repro.faults import PendingShardError

        with pytest.raises(PendingShardError) as excinfo:
            retrain_cells(micro_baseline, cells, retraining_epochs=1,
                          cache_dir=tmp_path, shard="0/2")
        assert excinfo.value.pending == [1]  # shard 0 owns cells 0 and 2
        shard1 = retrain_cells(micro_baseline, cells, retraining_epochs=1,
                               cache_dir=tmp_path, shard="1/2")
        assert canonical(shard1) == canonical(reference)

        built = []
        real = mitigation.get_mitigation
        monkeypatch.setattr(mitigation, "get_mitigation",
                            lambda *args, **kwargs: built.append(args) or real(*args, **kwargs))
        merged = retrain_cells(micro_baseline, cells, retraining_epochs=1,
                               cache_dir=tmp_path)
        assert built == []  # the merge reads every cell from disk
        assert canonical(merged) == canonical(reference)

    def test_crash_and_raise_heal_to_the_same_records(self, micro_baseline, cells,
                                                       reference, tmp_path, fast_backoff):
        from repro.experiments.mitigation import _cell_unit
        from repro.faults import CampaignOrchestrator
        from repro.utils.hashing import state_token
        from repro.testing import clear_plan, install_plan

        units = [_cell_unit(ordinal, cell, baseline=micro_baseline, epochs=1,
                            baseline_token=state_token(micro_baseline.state),
                            cache_dir=tmp_path)
                 for ordinal, cell in enumerate(cells)]
        install_plan({"rules": [{"site": "unit", "action": "crash", "key": 0},
                                {"site": "unit", "action": "raise", "key": 1}],
                      "state_dir": str(tmp_path / "chaos-state")})
        try:
            result = CampaignOrchestrator(workers=2).run(units)
        finally:
            clear_plan()
        assert canonical(result.records) == canonical(reference)
        report = result.report
        assert (report.crashed, report.poisoned, report.computed_units) == (1, 1, 3)
        assert report.retries == 2 and report.quarantined == []

    def test_fig8_workers_2_equals_workers_1(self, micro_baseline):
        from repro.experiments import run_fig8_convergence

        serial = run_fig8_convergence(MICRO, fault_rate=0.30, retraining_epochs=1)
        pooled = run_fig8_convergence(MICRO, fault_rate=0.30, retraining_epochs=1,
                                      workers=2)
        assert canonical(pooled) == canonical(serial)

    def test_grid_options_listed_in_one_error(self):
        from repro.experiments import check_retrain_options

        with pytest.raises(ValueError) as excinfo:
            check_retrain_options(workers=0, unit_timeout=0, shard="0/2",
                                  engine="fused")
        message = str(excinfo.value)
        for problem in ("unknown option 'engine'", "workers must be at least 1",
                        "unit_timeout must be positive", "need a shared cache_dir"):
            assert problem in message


class TestReportingEdgeCases:
    """Edge-case coverage for the reporting helpers (empty / mixed records)."""

    MIXED = [
        {"name": "alpha", "count": 3, "accuracy": 0.5, "flag": True, "missing": None},
        {"name": "beta", "count": "n/a", "accuracy": 0.25},
    ]

    def test_format_table_mixed_types(self):
        from repro.experiments.reporting import format_table

        table = format_table(self.MIXED)
        assert "alpha" in table and "n/a" in table and "True" in table
        assert "0.500" in table and "0.250" in table

    def test_format_table_missing_keys_render_empty(self):
        from repro.experiments.reporting import format_table

        table = format_table(self.MIXED, columns=["name", "missing"])
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert any("beta" in line for line in lines)

    def test_format_table_empty_without_title(self):
        from repro.experiments.reporting import format_table

        assert format_table([]) == "(no records)"

    def test_format_series_empty_records(self):
        from repro.experiments.reporting import format_series

        assert format_series([], x="a", y="b") == ""
        assert format_series([], x="a", y="b", title="t") == "t"

    def test_format_series_empty_grouped(self):
        from repro.experiments.reporting import format_series

        assert format_series([], x="a", y="b", group_by="g", title="t") == "t"

    def test_format_series_mixed_types(self):
        from repro.experiments.reporting import format_series

        series = format_series(self.MIXED, x="count", y="accuracy")
        assert "3->0.500" in series and "n/a->0.250" in series

    def test_format_value(self):
        from repro.experiments.reporting import format_value

        assert format_value(0.123456) == "0.123"
        assert format_value(7) == "7"
        assert format_value("x") == "x"
        assert format_value(None) == "None"


class TestRegistryEdgeCases:
    """Lookup errors and integrity of the experiment registry."""

    def test_unknown_experiment_error_names_options(self):
        with pytest.raises(KeyError) as excinfo:
            get_experiment("fig99")
        message = str(excinfo.value)
        assert "fig99" in message and "fig7" in message

    def test_lookup_is_identity_stable(self):
        assert get_experiment("fig5b") is get_experiment("fig5b")

    def test_list_experiments_sorted_and_complete(self):
        specs = list_experiments()
        ids = [spec.experiment_id for spec in specs]
        assert ids == sorted(ids)
        assert len(specs) == len(EXPERIMENTS)

    def test_benchmark_files_exist(self):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        for spec in list_experiments():
            assert (root / spec.benchmark).is_file(), spec.benchmark

    def test_specs_are_frozen(self):
        spec = get_experiment("fig7")
        with pytest.raises(Exception):
            spec.experiment_id = "other"
