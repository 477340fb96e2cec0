"""Tests for the command-line interface (``python -m repro``)."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

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
        # only (its sizes are fixed by the fig5c scenario).  To keep the test fast
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
        # options; a serial run prints only its incidents.
        from repro.cli import _print_incidents

        args = build_parser().parse_args(["campaign", "counts"])
        assert args.unit_timeout is None
        assert runner_options(args) == {"progress": _print_incidents}

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

    def test_serial_campaign_prints_unit_failures(self, monkeypatch, capsys,
                                                  tmp_path):
        """A serial sweep names a failed unit and its retry, not every unit."""

        from repro.testing import clear_plan
        from repro.testing.chaos import CHAOS_ENV_VAR

        monkeypatch.setattr("repro.faults.orchestrator.RETRY_BACKOFF", 0.05)
        monkeypatch.setenv(CHAOS_ENV_VAR, json.dumps({
            "rules": [{"site": "unit", "action": "raise", "key": 0}],
            "state_dir": str(tmp_path / "chaos-state")}))
        clear_plan()
        try:
            assert main(["campaign", "counts", "--dataset", "mnist", "--seed",
                         "13", "--counts", "2,4", "--trials", "2"]) == 0
        finally:
            clear_plan()
        out = capsys.readouterr().out
        assert ("unit 0 (point_index 0, chunk_index 0) failed on attempt 1: "
                "ChaosError: chaos-injected unit failure; retrying in 0.05s") in out
        # The retried unit reports its recovery; the others stay quiet.
        done = [line for line in out.splitlines() if " done: " in line]
        assert len(done) == 1 and "unit done: 0 (point_index 0" in done[0]

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
        import repro.experiments.baseline as baseline_module
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

        monkeypatch.setattr(baseline_module, "prepare_baseline",
                            lambda config: Baseline())
        monkeypatch.setattr(analysis, "CampaignRunner", fake_runner)
        with pytest.raises(Captured):
            main(["run", "fig5b", "--engine", "sequential",
                  "--unit-timeout", "5", "--trial-chunk", "2"])
        assert seen["engine"] == "sequential"
        assert seen["unit_timeout"] == 5.0
        assert seen["trial_chunk"] == 2

    def test_bad_flags_exit_2_before_training(self, monkeypatch, capsys):
        import repro.experiments.baseline as baseline_module

        def no_training(config):
            raise AssertionError("baseline trained before validation")

        monkeypatch.setattr(baseline_module, "prepare_baseline", no_training)
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
        from repro.cli import _print_incidents

        assert main(["run", "fig7", "--unit-timeout", "5"]) == 0
        assert seen == {"unit_timeout": 5.0, "progress": _print_incidents}
        # Its own options are still checked before any training.
        assert main(["run", "fig7", "--workers", "0"]) == 2
        assert "workers must be at least 1" in capsys.readouterr().err


class TestConfigOverrides:
    @pytest.mark.parametrize("argv", [["campaign", "counts", "--seed", "-1"],
                                      ["run", "fig5b", "--seed", "-1"]])
    def test_bad_seed_exits_2_before_training(self, monkeypatch, capsys, argv):
        import repro.experiments.baseline as baseline_module

        def no_training(config):
            raise AssertionError("baseline trained before validation")

        monkeypatch.setattr(baseline_module, "prepare_baseline", no_training)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'seed' override" in err

    @pytest.mark.parametrize("name", ["fig5a", "fig5b", "fig5c"])
    def test_run_fig5_applies_dataset_scale_and_seed(self, monkeypatch, name):
        import repro.experiments.baseline as baseline_module
        from repro.experiments import default_config

        class Captured(Exception):
            pass

        seen = []

        def capture(config):
            seen.append(config)
            raise Captured

        monkeypatch.setattr(baseline_module, "prepare_baseline", capture)
        with pytest.raises(Captured):
            main(["run", name, "--dataset", "nmnist", "--scale", "full",
                  "--seed", "13"])
        assert seen == [default_config("nmnist", scale="full", seed=13)]


def run_cli(argv):
    """Exit status and standard error of ``main(argv)``; argparse errors exit too."""

    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, err.getvalue()


#: Flag -> off-default values, for the grid a ``--scenario`` fixes.
GRID_FLAGS = {"--dataset": ["nmnist", "dvs_gesture"], "--scale": ["full"],
              "--bits": ["0,2"], "--counts": ["0,4"], "--sizes": ["8"],
              "--trials": ["2", "9"], "--stuck": ["sa0"]}
#: Flag -> (bad values, the problem the collected error names).
BAD_VALUES = {"--workers": (["0", "-3"], "workers must be at least 1"),
              "--trial-chunk": (["0", "-1"], "trial_chunk must be at least 1"),
              "--unit-timeout": (["0", "-2.5", "nan", "inf"],
                                 "unit_timeout must be positive"),
              "--seed": (["-1", "-7"], "'seed' override")}
#: Sweep axis -> (out-of-range values, the problem the collected error names).
BAD_GRID_VALUES = {"bits": (["20", "-1"], "outside the 16-bit accumulator format"),
                   "counts": (["-1"], "faulty-PE count -1 must be non-negative"),
                   "sizes": (["0", "1"], "cannot hold 4 faulty PEs")}
#: Flags a retraining grid cannot honour.
SWEEP_ONLY_FLAGS = {"--engine": ["sequential"], "--trial-chunk": ["2", "0"]}
#: Flags a retraining grid honours; a Fig. 5 sweep honours them too.
RETRAIN_FLAGS = {"--shard": ["0/2", "1/3"]}
#: Tokens argparse itself rejects.
UNPARSABLE = [["--workers", "x"], ["--trials", "1.5"], ["--shard", "2/2"],
              ["--engine", "batched"], ["--unit-timeout", "soon"]]


@st.composite
def flag_pairs(draw, table, min_size):
    """Distinct flags of ``table`` with a value each: (flags, argv pairs)."""

    flags = draw(st.lists(st.sampled_from(sorted(table)), min_size=min_size,
                          unique=True))
    pairs = []
    for flag in flags:
        values = table[flag][0] if isinstance(table[flag], tuple) else table[flag]
        pairs.append([flag, draw(st.sampled_from(values))])
    return flags, pairs


@st.composite
def malformed_argv(draw):
    """A ``run`` or ``campaign`` command line with problems, and what they are."""

    kind = draw(st.sampled_from(["scenario", "run-fig5", "run-retrain", "campaign"]))
    bad_table = dict(BAD_VALUES)
    if kind == "scenario":
        head = ["campaign", "--scenario", draw(st.sampled_from(["fig5a", "fig5b", "fig5c"]))]
        grid, grid_pairs = draw(flag_pairs(GRID_FLAGS, 1))
        expected = list(grid)
    elif kind == "run-fig5":
        head = ["run", draw(st.sampled_from(["fig5a", "fig5b", "fig5c"]))]
        _, grid_pairs = draw(flag_pairs(RETRAIN_FLAGS, 0))
        expected = []
    elif kind == "run-retrain":
        head = ["run", draw(st.sampled_from(["fig2", "fig6", "fig7", "fig8",
                                             "ablation-threshold"]))]
        unsupported, grid_pairs = draw(flag_pairs(SWEEP_ONLY_FLAGS, 1))
        expected = list(unsupported)
        del bad_table["--trial-chunk"]
    else:
        sweep = draw(st.sampled_from(sorted(BAD_GRID_VALUES)))
        head = ["campaign", sweep]
        grid_pairs, expected = [], []
        if draw(st.booleans()):
            grid_pairs = [["--trials", draw(st.sampled_from(["0", "-2"]))]]
            expected.append("'trials' must be positive")
        if draw(st.booleans()):
            values, problem = BAD_GRID_VALUES[sweep]
            grid_pairs.append([f"--{sweep}", draw(st.sampled_from(values))])
            expected.append(problem)
    bad, bad_pairs = draw(flag_pairs(bad_table, 0 if expected else 1))
    expected += [BAD_VALUES[flag][1] for flag in bad]
    pairs = draw(st.permutations(grid_pairs + bad_pairs))
    return head + [token for pair in pairs for token in pair], expected


class TestArgvFuzz:
    """Malformed ``run`` / ``campaign`` flag combinations exit 2, naming every
    problem, before any baseline is trained and without a traceback."""

    @settings(max_examples=150, deadline=None)
    @given(case=malformed_argv(), unparsable=st.none() | st.sampled_from(UNPARSABLE))
    def test_malformed_argv_exits_2_with_every_problem(self, case, unparsable):
        import repro.experiments.baseline as baseline_module

        def no_training(config):
            raise AssertionError("baseline trained before validation")

        argv, expected = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(baseline_module, "prepare_baseline", no_training)
            status, err = run_cli(argv + (unparsable or []))
        assert status == 2, (argv, err)
        assert "Traceback" not in err
        if unparsable is not None:
            assert "usage:" in err and "error:" in err
            return
        assert err.startswith("error: ")
        for problem in expected:
            assert problem in err, (argv, problem, err)
        if argv[0] == "run" and argv[1].startswith("fig5"):
            assert "cannot honour" not in err  # a sweep honours every flag
