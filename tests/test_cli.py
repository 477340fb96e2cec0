"""Tests for the command-line interface (``python -m repro``)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_run_requires_known_experiment(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "fig99"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig5b"])
        assert args.dataset == "mnist"
        assert args.scale == "small"


class TestCommands:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "Figure 7" in out

    def test_info_command(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "mnist" in out and "dvs_gesture" in out

    def test_run_command_small_experiment(self, tmp_path, capsys):
        # fig5c with the tiny seed-overridden config is the cheapest registered
        # experiment that still trains a baseline; restrict it further by seed
        # only (sizes are fixed by the driver defaults).  To keep the test fast
        # we run the ablation-accumulator experiment instead, which reuses the
        # cached baseline from other tests when available.
        out_file = tmp_path / "records.json"
        code = main(["run", "ablation-accumulator", "--dataset", "mnist",
                     "--seed", "13", "--out", str(out_file)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "ablation-accumulator" in captured
        payload = json.loads(out_file.read_text())
        assert isinstance(payload, list) and payload
        assert {"total_bits", "accuracy"} <= set(payload[0])


class TestCampaignCommand:
    def test_campaign_parser_defaults(self):
        args = build_parser().parse_args(["campaign", "counts"])
        assert args.sweep == "counts"
        assert args.engine == "fused"
        assert args.workers == 1
        assert args.cache_dir is None

    def test_campaign_parser_lists(self):
        args = build_parser().parse_args(
            ["campaign", "bits", "--bits", "0,4,14", "--engine", "sequential",
             "--workers", "3", "--trials", "2"])
        assert args.bits == [0, 4, 14]
        assert args.engine == "sequential"
        assert args.workers == 3

    def test_campaign_rejects_unknown_sweep(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "volts"])

    def test_run_accepts_engine_flags(self):
        args = build_parser().parse_args(
            ["run", "fig5b", "--engine", "sequential", "--workers", "2"])
        assert args.engine == "sequential" and args.workers == 2

    def test_unit_timeout_flag_parses_and_threads_through(self):
        from repro.cli import runner_options

        args = build_parser().parse_args(
            ["campaign", "counts", "--unit-timeout", "15", "--workers", "2"])
        assert args.unit_timeout == 15.0
        options = runner_options(args)
        assert options["unit_timeout"] == 15.0
        assert options["workers"] == 2
        # Default: no deadline (workers are then killed only when their
        # heartbeats stall or they die, so a busy loop is caught by this
        # flag alone), and flags left at their defaults stay out of the
        # options.
        args = build_parser().parse_args(["campaign", "counts"])
        assert args.unit_timeout is None
        assert runner_options(args) == {}

    def test_runner_options_imply_cache_dir_and_progress(self):
        from repro.cli import DEFAULT_CACHE_DIR, runner_options

        options = runner_options(build_parser().parse_args(
            ["campaign", "counts", "--shard", "1/2", "--trial-chunk", "2"]))
        assert options["cache_dir"] == DEFAULT_CACHE_DIR
        assert str(options["shard"]) == "1/2"
        assert options["trial_chunk"] == 2
        assert callable(options["progress"])

    def test_campaign_bad_trials_rejected_before_training(self, monkeypatch, capsys):
        import repro.experiments.baseline as baseline_module

        def no_training(config):
            raise AssertionError("baseline trained before validation")

        monkeypatch.setattr(baseline_module, "prepare_baseline", no_training)
        assert main(["campaign", "counts", "--trials", "0"]) == 2
        err = capsys.readouterr().err
        assert "invalid scenario" in err and "'trials' must be positive" in err

    @pytest.mark.parametrize("flags, problem", [
        (["--trial-chunk", "0"], "trial_chunk must be at least 1"),
        (["--unit-timeout", "0"], "unit_timeout must be positive"),
        (["--workers", "0"], "workers must be at least 1"),
        (["--unit-timeout", "nan"], "unit_timeout must be positive"),
        (["--unit-timeout", "inf"], "unit_timeout must be positive"),
    ])
    def test_bad_campaign_flags_rejected_before_training(
            self, monkeypatch, capsys, flags, problem):
        import repro.experiments.baseline as baseline_module

        def no_training(config):
            raise AssertionError("baseline trained before validation")

        monkeypatch.setattr(baseline_module, "prepare_baseline", no_training)
        assert main(["campaign", "counts"] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and problem in err

    def test_campaign_counts_end_to_end(self, tmp_path, capsys):
        out_file = tmp_path / "campaign.json"
        code = main(["campaign", "counts", "--dataset", "mnist", "--seed", "13",
                     "--counts", "0,4", "--trials", "2",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--out", str(out_file)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "campaign" in captured and "num_faulty_pes" in captured
        payload = json.loads(out_file.read_text())
        assert [record["num_faulty_pes"] for record in payload] == [0, 4]
        assert (tmp_path / "cache").is_dir()

    def test_campaign_engines_agree(self, tmp_path):
        out_a = tmp_path / "fused.json"
        out_b = tmp_path / "sequential.json"
        base = ["campaign", "counts", "--dataset", "mnist", "--seed", "13",
                "--counts", "2", "--trials", "2"]
        assert main(base + ["--engine", "fused", "--out", str(out_a)]) == 0
        assert main(base + ["--engine", "sequential", "--out", str(out_b)]) == 0
        assert json.loads(out_a.read_text()) == json.loads(out_b.read_text())
        with pytest.raises(SystemExit) as excinfo:
            main(base + ["--engine", "batched"])
        assert excinfo.value.code == 2


class TestRunCampaignFlags:
    def test_flag_a_runner_cannot_honour_exits_2(self, capsys):
        # Retraining grids have no trial axis to chunk.
        assert main(["run", "fig7", "--trial-chunk", "2"]) == 2
        err = capsys.readouterr().err
        assert "--trial-chunk" in err and "fig7" in err

    def test_every_unhonoured_flag_is_named(self, capsys):
        assert main(["run", "fig2", "--engine", "sequential",
                     "--trial-chunk", "5", "--unit-timeout", "5"]) == 2
        err = capsys.readouterr().err
        for flag in ("--engine", "--trial-chunk"):
            assert flag in err
        assert "--unit-timeout" not in err  # fig2 honours it

    def test_fig5b_flags_reach_campaign_runner(self, monkeypatch):
        import repro.experiments.vulnerability as vulnerability
        import repro.faults.analysis as analysis

        class Baseline:
            test_loader = object()

            @staticmethod
            def model_factory():
                return object()

        class Captured(Exception):
            pass

        seen = {}

        def fake_runner(model, loader, **options):
            seen.update(options)
            raise Captured

        monkeypatch.setattr(vulnerability, "prepare_baseline",
                            lambda config: Baseline())
        monkeypatch.setattr(analysis, "CampaignRunner", fake_runner)
        with pytest.raises(Captured):
            main(["run", "fig5b", "--engine", "sequential",
                  "--unit-timeout", "5", "--trial-chunk", "2"])
        assert seen["engine"] == "sequential"
        assert seen["unit_timeout"] == 5.0
        assert seen["trial_chunk"] == 2

    def test_bad_flags_exit_2_before_training(self, monkeypatch, capsys):
        import repro.experiments.vulnerability as vulnerability

        def no_training(config):
            raise AssertionError("baseline trained before validation")

        monkeypatch.setattr(vulnerability, "prepare_baseline", no_training)
        assert main(["run", "fig5b", "--trial-chunk", "0", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert "trial_chunk must be at least 1" in err
        assert "workers must be at least 1" in err

    def test_retraining_grid_gets_only_its_options(self, monkeypatch, capsys):
        import dataclasses

        from repro.experiments import EXPERIMENTS

        seen = {}

        def fake_grid(config, **options):
            seen.update(options)
            return []

        monkeypatch.setitem(EXPERIMENTS, "fig7", dataclasses.replace(
            EXPERIMENTS["fig7"], runner=fake_grid))
        assert main(["run", "fig7", "--unit-timeout", "5"]) == 0
        assert seen == {"unit_timeout": 5.0}
        # Its own options are still checked before any training.
        assert main(["run", "fig7", "--workers", "0"]) == 2
        assert "workers must be at least 1" in capsys.readouterr().err


class TestConfigOverrides:
    @pytest.mark.parametrize("argv", [["campaign", "counts", "--seed", "-1"],
                                      ["run", "fig5b", "--seed", "-1"]])
    def test_bad_seed_exits_2_before_training(self, monkeypatch, capsys, argv):
        import repro.experiments.baseline as baseline_module
        import repro.experiments.vulnerability as vulnerability

        def no_training(config):
            raise AssertionError("baseline trained before validation")

        monkeypatch.setattr(baseline_module, "prepare_baseline", no_training)
        monkeypatch.setattr(vulnerability, "prepare_baseline", no_training)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'seed' override" in err

