"""The campaign-engine perf gate, ``benchmarks/check_regression.py``.

The script is loaded by path (``benchmarks`` is no package) and run on
small recorded/fresh JSON pairs written to ``tmp_path``.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "check_regression.py"

RECORDED = [
    {"engine": "sequential", "speedup": 1.0},
    {"engine": "fused", "speedup": 7.5},
    {"engine": "meta", "identical_records": True,
     "transient_overhead": 1.1, "gather_speedup": 3.0,
     "spike_kernel_speedup": 2.0, "map_memory_scaling": 0.85,
     "train_graph_release": 0.96, "chain_row_block_speedup": 1.3},
]


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_regression", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def _meta(rows):
    return next(row for row in rows if row["engine"] == "meta")


def _run(gate, tmp_path, fresh, recorded=RECORDED):
    baseline = tmp_path / "recorded.json"
    fresh_path = tmp_path / "fresh.json"
    baseline.write_text(json.dumps(recorded))
    fresh_path.write_text(json.dumps(fresh) if not isinstance(fresh, str)
                          else fresh)
    return gate(["--baseline", str(baseline), "--fresh", str(fresh_path)])


def test_equal_runs_pass(gate, tmp_path):
    assert _run(gate, tmp_path, RECORDED) == 0


@pytest.mark.parametrize("key", ["gather_speedup", "transient_overhead",
                                 "spike_kernel_speedup", "map_memory_scaling",
                                 "train_graph_release",
                                 "chain_row_block_speedup"])
def test_missing_recorded_ratio_fails(gate, tmp_path, capsys, key):
    fresh = copy.deepcopy(RECORDED)
    del _meta(fresh)[key]
    assert _run(gate, tmp_path, fresh) == 1
    assert key in capsys.readouterr().err


def test_ratio_below_floor_fails(gate, tmp_path, capsys):
    fresh = copy.deepcopy(RECORDED)
    _meta(fresh)["gather_speedup"] = 3.0 * 0.6   # under the 30% tolerance
    assert _run(gate, tmp_path, fresh) == 1
    assert "im2col gather" in capsys.readouterr().err


def test_spike_kernel_ratio_below_floor_fails(gate, tmp_path, capsys):
    fresh = copy.deepcopy(RECORDED)
    _meta(fresh)["spike_kernel_speedup"] = 2.0 * 0.6
    assert _run(gate, tmp_path, fresh) == 1
    assert "spike kernels" in capsys.readouterr().err


def test_chain_row_block_ratio_below_floor_fails(gate, tmp_path, capsys):
    """A row-blocked call slower than the whole-batch one (0.85 against a
    recorded 1.3, floor 0.91) fails."""

    fresh = copy.deepcopy(RECORDED)
    _meta(fresh)["chain_row_block_speedup"] = 0.85
    assert _run(gate, tmp_path, fresh) == 1
    assert "chain row blocks" in capsys.readouterr().err


def test_memory_scaling_below_floor_fails(gate, tmp_path, capsys):
    """A pass whose memory grows with its maps (0.3: four times the maps
    cost about three times the memory) fails against a flat recording."""

    fresh = copy.deepcopy(RECORDED)
    _meta(fresh)["map_memory_scaling"] = 0.3
    assert _run(gate, tmp_path, fresh) == 1
    assert "map memory scaling" in capsys.readouterr().err


def test_unreleased_training_graph_fails(gate, tmp_path, capsys):
    """A backward that keeps the whole graph alive (0.70) fails against a
    recorded 0.94 although it clears the 30% timing tolerance; the
    memory ratios are gated at a fixed 10%."""

    recorded = copy.deepcopy(RECORDED)
    _meta(recorded)["train_graph_release"] = 0.94
    fresh = copy.deepcopy(recorded)
    _meta(fresh)["train_graph_release"] = 0.70
    assert _run(gate, tmp_path, fresh, recorded) == 1
    assert "training graph release" in capsys.readouterr().err
    _meta(fresh)["train_graph_release"] = 0.94 * 0.91   # inside 10%
    assert _run(gate, tmp_path, fresh, recorded) == 0


def test_identity_mismatch_fails(gate, tmp_path, capsys):
    fresh = copy.deepcopy(RECORDED)
    _meta(fresh)["identical_records"] = False
    assert _run(gate, tmp_path, fresh) == 1
    assert "IDENTITY MISMATCH" in capsys.readouterr().err


def test_unreadable_input_exits_2(gate, tmp_path):
    assert _run(gate, tmp_path, "{not json") == 2
    missing = tmp_path / "missing.json"
    assert gate(["--baseline", str(missing), "--fresh", str(missing)]) == 2
