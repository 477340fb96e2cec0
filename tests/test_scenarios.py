"""Tests for the declarative scenario registry and its CLI integration."""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import build_parser, main
from repro.experiments import (
    SCENARIOS,
    ExperimentConfig,
    Scenario,
    get_scenario,
    list_scenarios,
    register_scenario,
    run_scenario,
    scenario_from_json,
)
from tests.conftest import MICRO


def make_scenario(**overrides):
    payload = dict(name="test-scenario", dataset="mnist", sweep="counts",
                   values=[2, 4], trials=2)
    payload.update(overrides)
    return Scenario.from_dict(payload)


#: Any JSON value, with some that a scenario field accepts.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["mnist", "counts", "sa0", "transient", "bypass", "full"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6)


class TestScenarioValidation:
    def test_round_trip_through_json(self):
        scenario = get_scenario("nmnist-transient-bernoulli")
        restored = scenario_from_json(scenario.to_json())
        assert restored == scenario

    def test_round_trip_preserves_fault_params(self):
        scenario = make_scenario(fault_model="transient",
                                 fault_params={"process": "burst",
                                               "burst_length": 2})
        restored = Scenario.from_dict(json.loads(scenario.to_json()))
        assert restored.fault_params == scenario.fault_params
        assert dict(restored.fault_params)["process"] == "burst"

    def test_unknown_key_rejected_with_options(self):
        with pytest.raises(ValueError, match="unknown key.*typo_key.*options"):
            make_scenario(typo_key=1)

    def test_missing_fields_all_reported_at_once(self):
        with pytest.raises(ValueError, match="missing required field"):
            Scenario.from_dict({"name": "x"})
        with pytest.raises(ValueError) as excinfo:
            Scenario.from_dict({"name": "x"})
        message = str(excinfo.value)
        assert "dataset" in message and "sweep" in message and "values" in message

    def test_non_dict_payload_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            Scenario.from_dict(["not", "a", "dict"])
        with pytest.raises(ValueError, match="parse"):
            scenario_from_json("{not json")

    @pytest.mark.parametrize("field,value,match", [
        ("dataset", "cifar", "unknown dataset"),
        ("sweep", "volts", "unknown sweep"),
        ("scale", "huge", "unknown scale"),
        ("fault_model", "cosmic", "unknown fault model"),
        ("mitigation", "prayer", "unknown mitigation"),
        ("values", [], "non-empty"),
        ("values", "abc", "non-empty"),
        ("trials", 0, "positive"),
    ])
    def test_field_validation(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            make_scenario(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("trials", None),
        ("trials", "abc"),
        ("num_faulty", [1]),
        ("fault_params", 5),
        ("config_overrides", 7),
        ("seed", "x"),
    ])
    def test_bad_field_type_collected(self, field, value):
        with pytest.raises(ValueError, match=f"^invalid scenario 'test-scenario': .*'{field}'"):
            make_scenario(**{field: value})

    def test_bad_field_types_all_reported_at_once(self):
        with pytest.raises(ValueError) as excinfo:
            make_scenario(trials="abc", seed="x", fault_params=5)
        message = str(excinfo.value)
        assert "'trials'" in message and "'seed'" in message and "'fault_params'" in message

    @settings(max_examples=300, deadline=None)
    @given(field=st.sampled_from([field.name for field in dataclasses.fields(Scenario)]),
           value=JSON_VALUES)
    def test_any_json_value_in_any_field(self, field, value):
        payload = dict(name="test-scenario", dataset="mnist", sweep="bits",
                       values=[2, 4], trials=2)
        payload[field] = value
        try:
            Scenario.from_dict(payload)
        except ValueError as exc:
            assert str(exc).startswith("invalid scenario ")

    def test_bypass_of_transient_rejected(self):
        with pytest.raises(ValueError, match="bypass.*transient"):
            make_scenario(fault_model="transient", mitigation="bypass")

    def test_fault_params_need_transient_model(self):
        with pytest.raises(ValueError, match="fault_params"):
            make_scenario(fault_params={"rate": 0.5})

    def test_unknown_config_override_rejected(self):
        with pytest.raises(ValueError, match="config_overrides"):
            make_scenario(config_overrides={"bogus_field": 1})

    @pytest.mark.parametrize("key,value", [
        ("baseline_epochs", "x"),
        ("baseline_epochs", -1),
        ("time_steps", [1]),
        ("time_steps", 0),
        ("time_steps", 2.0),
        ("num_train", True),
        ("baseline_lr", "fast"),
        ("retrain_lr", 0.0),
        ("retrain_lr", float("nan")),
        ("seed", -3),
        ("dataset", "cifar"),
        ("dataset_kwargs", 5),
    ])
    def test_bad_config_override_value_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"^invalid scenario 'test-scenario': .*'{key}'"):
            make_scenario(config_overrides={key: value})

    def test_bad_config_override_values_all_reported_at_once(self):
        with pytest.raises(ValueError) as excinfo:
            make_scenario(config_overrides={"baseline_epochs": "x", "time_steps": [1]})
        message = str(excinfo.value)
        assert "'baseline_epochs'" in message and "'time_steps'" in message

    def test_good_config_overrides_reach_the_config(self):
        scenario = make_scenario(config_overrides={
            "baseline_epochs": 0, "baseline_lr": 0.05, "seed": 0,
            "dataset_kwargs": {"noise_std": 0.1, "max_shift": 1}})
        config = scenario.build_config()
        assert (config.baseline_epochs, config.baseline_lr, config.seed) == (0, 0.05, 0)
        assert config.dataset_kwargs == (("max_shift", 1), ("noise_std", 0.1))
        hash(config)  # the baseline cache is keyed by the config
        assert Scenario.from_dict(json.loads(scenario.to_json())) == scenario

    @settings(max_examples=200, deadline=None)
    @given(key=st.sampled_from([field.name for field in dataclasses.fields(ExperimentConfig)]),
           value=JSON_VALUES)
    def test_any_json_override_value_builds_or_is_rejected(self, key, value):
        try:
            scenario = make_scenario(config_overrides={key: value})
        except ValueError as exc:
            assert str(exc).startswith("invalid scenario ")
        else:
            scenario.build_config()

    @settings(max_examples=200, deadline=None)
    @given(key=st.sampled_from(["process", "num_steps", "rate", "burst_length",
                                "cluster_size", "high_order_bits"]),
           value=JSON_VALUES)
    def test_any_json_transient_param_is_checked(self, key, value):
        try:
            make_scenario(fault_model="transient", fault_params={key: value})
        except ValueError as exc:
            assert str(exc).startswith("invalid scenario ")

    @pytest.mark.parametrize("params,match", [
        ({"rate": "high"}, "'rate'"),
        ({"rate": 1.5}, "'rate'"),
        ({"rate": True}, "'rate'"),
        ({"process": "poisson"}, "process"),
        ({"process": 3}, "process"),
        ({"burst_length": 0}, "'burst_length'"),
        ({"cluster_size": "4"}, "'cluster_size'"),
        ({"high_order_bits": 0.5}, "'high_order_bits'"),
        ({"num_steps": 0}, "'num_steps'"),
        ({"typo": 1}, "typo"),
    ])
    def test_bad_transient_param_rejected(self, params, match):
        with pytest.raises(ValueError, match=f"^invalid scenario 'test-scenario': .*{match}"):
            make_scenario(fault_model="transient", fault_params=params)


class TestRegistry:
    def test_builtin_scenarios_registered(self):
        names = {scenario.name for scenario in list_scenarios()}
        assert {"nmnist-transient-bernoulli",
                "dvs-gesture-transient-burst"} <= names

    def test_get_unknown_lists_available(self):
        with pytest.raises(ValueError) as excinfo:
            get_scenario("does-not-exist")
        message = str(excinfo.value)
        assert "does-not-exist" in message
        for scenario in list_scenarios():
            assert scenario.name in message

    def test_register_refuses_to_clobber(self):
        scenario = make_scenario(name="clobber-check")
        register_scenario(scenario)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_scenario(scenario)
            register_scenario(scenario, replace=True)
        finally:
            SCENARIOS.pop("clobber-check", None)


def seed13_baseline():
    from repro.experiments import default_config, prepare_baseline

    return prepare_baseline(default_config("mnist", seed=13))


def forbid_evaluation(monkeypatch):
    """Make every CampaignRunner evaluation path raise (cache hits only)."""

    from repro.faults import CampaignRunner

    def computed(*args, **kwargs):
        raise AssertionError("record computed instead of read from cache")

    for name in ("baseline_accuracy", "_evaluate"):
        monkeypatch.setattr(CampaignRunner, name, computed)


class TestCampaignGrid:
    def test_grid_matches_sweep_driver(self, tmp_path, monkeypatch):
        # A hand-launched CLI sweep and run_scenario on an equal Scenario
        # share one cache: the second run computes nothing.
        cache = tmp_path / "cache"
        out = tmp_path / "cli.json"
        assert main(["campaign", "counts", "--seed", "13", "--counts", "2,4",
                     "--trials", "2", "--cache-dir", str(cache),
                     "--out", str(out)]) == 0
        forbid_evaluation(monkeypatch)
        records = run_scenario(make_scenario(), make_scenario().build_config(seed=13),
                               cache_dir=cache)
        assert records == json.loads(out.read_text())

    def test_transient_num_steps_defaults_to_config(self):
        scenario = make_scenario(fault_model="transient",
                                 fault_params={"process": "burst"})
        config = scenario.build_config()
        params = scenario.resolved_fault_params(config)
        assert params["num_steps"] == config.time_steps

    def test_explicit_num_steps_wins(self):
        scenario = make_scenario(fault_model="transient",
                                 fault_params={"process": "burst",
                                               "num_steps": 2})
        params = scenario.resolved_fault_params(scenario.build_config())
        assert params["num_steps"] == 2

    def test_seed_override_changes_map_seeds(self, tmp_path):
        # Same baseline, so only the grid seeds can tell the two runs
        # apart: the seed override must miss the first run's cache entries.
        baseline = seed13_baseline()
        cache = tmp_path / "cache"
        run_scenario(make_scenario(), baseline=baseline, cache_dir=cache)
        first = set(cache.glob("*.json"))
        run_scenario(make_scenario(seed=99), baseline=baseline, cache_dir=cache)
        assert len(first) == 2
        assert len(set(cache.glob("*.json")) - first) == 2

    def test_all_sweeps_build_grids(self):
        baseline = seed13_baseline()
        bits = run_scenario(make_scenario(sweep="bits", values=[0, 14]),
                            baseline=baseline)
        counts = run_scenario(make_scenario(), baseline=baseline)
        sizes = run_scenario(make_scenario(sweep="sizes", values=[8, 16]),
                             baseline=baseline)
        assert [r["bit_position"] for r in bits] == [0, 14]
        assert [r["num_faulty_pes"] for r in bits] == [8, 8]
        assert [r["num_faulty_pes"] for r in counts] == [2, 4]
        assert [r["array_size"] for r in sizes] == [8, 16]
        assert [r["num_faulty_pes"] for r in sizes] == [4, 4]

    @pytest.mark.parametrize("sweep,field", [("bits", "bit_position"),
                                             ("counts", "num_faulty")])
    def test_swept_field_rejected(self, sweep, field):
        with pytest.raises(ValueError, match=f"'{field}' is what"):
            make_scenario(sweep=sweep, **{field: 3})


@pytest.fixture()
def micro_cli(monkeypatch):
    """Every config the CLI builds is MICRO (with the flags' overrides)."""

    def micro_config(dataset, scale="small", **overrides):
        return MICRO.with_overrides(**overrides)

    monkeypatch.setattr("repro.cli.default_config", micro_config)
    monkeypatch.setattr("repro.experiments.scenarios.default_config", micro_config)


def shrink_builtin(monkeypatch, name, **grid):
    """Give the registered scenario ``name`` a smaller ``grid``."""

    monkeypatch.setitem(SCENARIOS, name, dataclasses.replace(SCENARIOS[name], **grid))


class TestFig5Scenarios:
    """``repro run fig5a|fig5b|fig5c`` runs the built-in scenario of its name."""

    def test_builtins_hold_the_fig5_grids(self):
        from repro.systolic import DEFAULT_ACCUMULATOR_FORMAT

        fig5a, fig5b, fig5c = (get_scenario(name) for name in ("fig5a", "fig5b", "fig5c"))
        assert fig5a.values[-1] == DEFAULT_ACCUMULATOR_FORMAT.magnitude_msb
        assert (fig5a.stuck_type, fig5a.num_faulty, fig5a.trials) == ("both", 8, 2)
        assert (fig5b.values, fig5b.trials) == ((0, 2, 4, 8, 16, 32, 48, 64), 4)
        assert (fig5c.values, fig5c.num_faulty, fig5c.trials) == ((4, 8, 16, 32, 64), 4, 3)

    def test_both_polarities_only_on_a_bits_sweep(self):
        assert make_scenario(sweep="bits", values=[0], stuck_type="both").stuck_type == "both"
        with pytest.raises(ValueError, match="unknown stuck-at type 'both'"):
            make_scenario(stuck_type="both")

    def test_run_fig5b_shares_cache_and_records_with_campaign_counts(
            self, micro_cli, monkeypatch, tmp_path):
        from repro.faults import CampaignRunner

        shrink_builtin(monkeypatch, "fig5b", values=(0, 2, 4), trials=2)
        cache = tmp_path / "cache"
        assert main(["run", "fig5b", "--cache-dir", str(cache),
                     "--out", str(tmp_path / "run.json")]) == 0
        stored = sorted(cache.iterdir())

        def computed(*args, **kwargs):
            raise AssertionError("unit computed instead of read from cache")

        monkeypatch.setattr(CampaignRunner, "_evaluate", computed)
        assert main(["campaign", "counts", "--counts", "0,2,4", "--trials", "2",
                     "--cache-dir", str(cache),
                     "--out", str(tmp_path / "campaign.json")]) == 0
        assert sorted(cache.iterdir()) == stored and len(stored) == 2
        assert ((tmp_path / "run.json").read_bytes()
                == (tmp_path / "campaign.json").read_bytes())

    def test_run_fig5a_lists_sa0_then_sa1_with_fig5a_map_seeds(
            self, micro_cli, monkeypatch, tmp_path):
        from repro.faults import CampaignRunner
        from repro.utils.rng import derive_seed

        shrink_builtin(monkeypatch, "fig5a", values=(0, 14), trials=2)
        points = []
        run = CampaignRunner.run

        def recording_run(runner, grid):
            points.extend(grid)
            return run(runner, grid)

        monkeypatch.setattr(CampaignRunner, "run", recording_run)
        out = tmp_path / "fig5a.json"
        assert main(["run", "fig5a", "--out", str(out)]) == 0
        records = json.loads(out.read_text())
        order = [("sa0", 0), ("sa0", 14), ("sa1", 0), ("sa1", 14)]
        assert [(r["stuck_type"], r["bit_position"]) for r in records] == order
        assert [(p.stuck_type, p.bit_position) for p in points] == order
        grid_seed = derive_seed(MICRO.seed, "fig5a")
        assert [p.map_seeds for p in points] == [
            tuple(derive_seed(grid_seed, "bit_sweep", int(stuck[-1]), bit, trial)
                  for trial in range(2))
            for stuck, bit in order]
        assert all(p.num_faulty == 8 for p in points)

    def test_run_fig5a_shares_its_sa1_units_with_campaign_bits(
            self, micro_cli, monkeypatch, tmp_path):
        from repro.faults import CampaignRunner

        shrink_builtin(monkeypatch, "fig5a", values=(0, 14), trials=2)
        cache = tmp_path / "cache"
        run_out = tmp_path / "run.json"
        assert main(["run", "fig5a", "--cache-dir", str(cache),
                     "--out", str(run_out)]) == 0
        stored = sorted(cache.iterdir())

        def computed(*args, **kwargs):
            raise AssertionError("unit computed instead of read from cache")

        monkeypatch.setattr(CampaignRunner, "_evaluate", computed)
        campaign_out = tmp_path / "campaign.json"
        assert main(["campaign", "bits", "--bits", "0,14", "--trials", "2",
                     "--stuck", "sa1", "--cache-dir", str(cache),
                     "--out", str(campaign_out)]) == 0
        assert sorted(cache.iterdir()) == stored and len(stored) == 4
        assert json.loads(campaign_out.read_text()) == json.loads(run_out.read_text())[2:]

    def test_run_fig5c_shares_cache_and_records_with_campaign_sizes(
            self, micro_cli, monkeypatch, tmp_path):
        from repro.faults import CampaignRunner

        shrink_builtin(monkeypatch, "fig5c", values=(4, 8), trials=1)
        cache = tmp_path / "cache"
        assert main(["run", "fig5c", "--cache-dir", str(cache),
                     "--out", str(tmp_path / "run.json")]) == 0
        stored = sorted(cache.iterdir())

        def computed(*args, **kwargs):
            raise AssertionError("unit computed instead of read from cache")

        monkeypatch.setattr(CampaignRunner, "_evaluate", computed)
        assert main(["campaign", "sizes", "--sizes", "4,8", "--trials", "1",
                     "--cache-dir", str(cache),
                     "--out", str(tmp_path / "campaign.json")]) == 0
        assert sorted(cache.iterdir()) == stored and len(stored) == 2
        assert ((tmp_path / "run.json").read_bytes()
                == (tmp_path / "campaign.json").read_bytes())


class TestCli:
    def test_scenario_flag_parses(self):
        args = build_parser().parse_args(
            ["campaign", "--scenario", "nmnist-transient-bernoulli"])
        assert args.sweep is None
        assert args.scenario == "nmnist-transient-bernoulli"

    def test_unknown_scenario_lists_available(self, capsys):
        assert main(["campaign", "--scenario", "definitely-not-real"]) == 2
        err = capsys.readouterr().err
        assert "definitely-not-real" in err
        assert "nmnist-transient-bernoulli" in err

    def test_sweep_and_scenario_are_exclusive(self, capsys):
        assert main(["campaign", "counts", "--scenario",
                     "nmnist-transient-bernoulli"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_campaign_requires_sweep_or_scenario(self, capsys):
        assert main(["campaign"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_list_scenarios_command(self, capsys):
        assert main(["campaign", "--list-scenarios"]) == 0
        out = capsys.readouterr().out
        for scenario in list_scenarios():
            assert scenario.name in out

    def test_scenario_end_to_end(self, tmp_path, capsys):
        out_file = tmp_path / "scenario.json"
        code = main(["campaign", "--scenario", "mnist-transient-bernoulli",
                     "--seed", "13", "--out", str(out_file)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "mnist-transient-bernoulli" in captured
        payload = json.loads(out_file.read_text())
        assert [record["num_faulty_pes"] for record in payload] == [0, 2, 4, 8]
        assert all(0.0 <= record["accuracy"] <= 1.0 for record in payload)


class TestRunScenario:
    def test_run_scenario_accepts_name_and_overrides(self):
        # Run the built-in scenario on an explicit seed-13 config so the test
        # can reuse the cached baseline trained by the CLI test (same config).
        records = run_scenario("mnist-transient-bernoulli",
                               get_scenario("mnist-transient-bernoulli")
                               .build_config(seed=13))
        assert [record["num_faulty_pes"] for record in records] == [0, 2, 4, 8]

    def test_run_scenario_engines_agree(self, tmp_path):
        scenario = make_scenario(name="engine-agreement",
                                 fault_model="transient",
                                 fault_params={"process": "bernoulli",
                                               "rate": 0.5},
                                 values=[2], seed=13)
        fused = run_scenario(scenario, engine="fused")
        sequential = run_scenario(scenario, engine="sequential")
        assert fused == sequential

    def test_run_scenario_validates_options_before_training(self, monkeypatch):
        import repro.experiments.baseline as baseline_module

        def no_training(config):
            raise AssertionError("baseline trained before validation")

        monkeypatch.setattr(baseline_module, "prepare_baseline", no_training)
        with pytest.raises(ValueError, match="trial_chunk must be at least 1"):
            run_scenario("mnist-stuck-at-counts", trial_chunk=0)
        with pytest.raises(ValueError, match="unexpected keyword.*bogus"):
            run_scenario("mnist-stuck-at-counts", bogus=1)
