"""Tests for the fault-injection campaign engine.

Covers: per-map equivalence of the multi-map evaluation with the sequential
reference, engine-identical sweep records, deterministic point seeding,
on-disk caching (including cache hits that skip simulation entirely, and
self-healing of damaged entries through the work-unit path) and the
optional worker pool.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import (
    CampaignOrchestrator,
    CampaignPoint,
    CampaignRunner,
    WorkUnit,
    check_runner_options,
    evaluate_with_faults,
    random_fault_map,
    sweep_bit_locations,
    sweep_faulty_pe_count,
)
from repro.faults.campaign import ENGINES, cache_path
from repro.faults.injection import FaultInjector, build_faulty_array
from repro.systolic import DEFAULT_ACCUMULATOR_FORMAT
from repro.utils.hashing import loader_token, model_token

FMT = DEFAULT_ACCUMULATOR_FORMAT

#: Any JSON value, with some that a campaign point field accepts.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["sa0", "sram", "transient", "burst", "rate", "num_steps"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6) | st.sampled_from(["rate", "num_steps"]),
                      children, max_size=3),
    max_leaves=6)


@pytest.fixture()
def eval_loader(tiny_mnist_loaders):
    return tiny_mnist_loaders[1]


class TestBatchedEvaluation:
    def test_matches_sequential_per_map(self, trained_tiny_model, eval_loader):
        maps = CampaignPoint.for_trials(16, 16, 4, 5, bit_position=FMT.magnitude_msb,
                                        stuck_type="sa1", seed=7).build_fault_maps()
        sequential = [evaluate_with_faults(trained_tiny_model, eval_loader,
                                           [m], engine="sequential")[0]
                      for m in maps]
        for engine in ENGINES:
            batched = evaluate_with_faults(trained_tiny_model, eval_loader,
                                           maps, engine=engine)
            assert batched == sequential

    def test_bypass_matches_sequential(self, trained_tiny_model, eval_loader):
        maps = CampaignPoint.for_trials(16, 16, 6, 3, bit_position=FMT.magnitude_msb,
                                        stuck_type="sa1", seed=9).build_fault_maps()
        sequential = [evaluate_with_faults(trained_tiny_model, eval_loader,
                                           [m], bypass=True)[0] for m in maps]
        batched = evaluate_with_faults(trained_tiny_model, eval_loader, maps,
                                       bypass=True)
        assert batched == sequential

    def test_requires_maps_or_array(self, trained_tiny_model, eval_loader):
        for engine in ENGINES:
            with pytest.raises(ValueError, match="at least one"):
                evaluate_with_faults(trained_tiny_model, eval_loader, [],
                                     engine=engine)

    def test_injector_restores_forwards(self, trained_tiny_model):
        fault_map = random_fault_map(8, 8, 2, seed=3)
        layers_before = [m.forward for m in trained_tiny_model.modules()]
        with FaultInjector(trained_tiny_model, build_faulty_array(fault_map)):
            pass
        layers_after = [m.forward for m in trained_tiny_model.modules()]
        assert layers_before == layers_after


class TestCampaignPoint:
    def test_for_trials_builds_random_fault_map_per_seed(self):
        point = CampaignPoint.for_trials(16, 16, 4, 3, bit_position=10,
                                         stuck_type="sa0", seed=11)
        seeds = np.random.default_rng(11).integers(0, 2**63 - 1, size=3)
        assert point.map_seeds == tuple(int(s) for s in seeds)
        built = point.build_fault_maps(FMT)
        assert len(built) == 3
        for fault_map, seed in zip(built, point.map_seeds):
            expected = random_fault_map(16, 16, 4, bit_position=10,
                                        stuck_type="sa0", seed=seed)
            assert fault_map.faults == expected.faults

    def test_stuck_type_canonicalised(self):
        point = CampaignPoint(4, 4, 1, (1,), stuck_type=1)
        assert point.stuck_type == "sa1"

    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignPoint(0, 4, 1, (1,))
        with pytest.raises(ValueError):
            CampaignPoint(2, 2, 5, (1,))
        with pytest.raises(ValueError):
            CampaignPoint(4, 4, 1, ())
        with pytest.raises(ValueError):
            CampaignPoint.for_trials(4, 4, 1, 0)

    @pytest.mark.parametrize("field,value", [
        ("rows", "a"),
        ("cols", 2.0),
        ("num_faulty", None),
        ("map_seeds", 5),
        ("map_seeds", ("x",)),
        ("map_seeds", (-1,)),
        ("bit_position", "high"),
        ("stuck_type", [1]),
        ("label", 3),
        ("fault_model", "cosmic"),
        ("fault_params", 5),
    ])
    def test_bad_field_rejected_as_invalid_point(self, field, value):
        fields = dict(rows=4, cols=4, num_faulty=1, map_seeds=(1,))
        fields[field] = value
        with pytest.raises(ValueError, match=f"^invalid campaign point: .*{field}"):
            CampaignPoint(**fields)

    def test_point_problems_all_reported_at_once(self):
        with pytest.raises(ValueError) as excinfo:
            CampaignPoint(rows="a", cols=4, num_faulty=None, map_seeds=("x",),
                          fault_model="transient", fault_params={"rate": "high"})
        message = str(excinfo.value)
        for field in ("'rows'", "'num_faulty'", "'map_seeds'", "'rate'", "'num_steps'"):
            assert field in message

    @settings(max_examples=300, deadline=None)
    @given(field=st.sampled_from([field.name for field in dataclasses.fields(CampaignPoint)]),
           value=JSON_VALUES, transient=st.booleans())
    def test_any_json_value_in_any_field(self, field, value, transient):
        fields = dict(rows=4, cols=4, num_faulty=1, map_seeds=[1, 2])
        if transient:
            fields.update(fault_model="transient",
                          fault_params={"process": "burst", "num_steps": 4})
        fields[field] = value
        try:
            CampaignPoint(**fields)
        except ValueError as exc:
            assert str(exc).startswith("invalid campaign point: ")

    def test_payload_round_trip(self):
        point = CampaignPoint(8, 8, 2, (5, 6), bit_position=3, stuck_type="sa0",
                              label="unit", dataset="mnist")
        payload = point.as_payload()
        assert payload["rows"] == 8 and payload["map_seeds"] == [5, 6]
        assert payload["bit_position"] == 3 and payload["stuck_type"] == "sa0"


class TestCampaignRunner:
    def make_points(self, trials=2):
        return [
            CampaignPoint.for_trials(16, 16, count, trials,
                                     bit_position=FMT.magnitude_msb,
                                     stuck_type="sa1", seed=50 + count,
                                     label="unit", dataset="mnist")
            for count in (2, 6)
        ]

    def test_engines_produce_identical_records(self, trained_tiny_model, eval_loader):
        points = self.make_points()
        fused = CampaignRunner(trained_tiny_model, eval_loader, engine="fused")
        sequential = CampaignRunner(trained_tiny_model, eval_loader, engine="sequential")
        assert fused.run(points) == sequential.run(points)

    def test_records_are_deterministic(self, trained_tiny_model, eval_loader):
        points = self.make_points()
        runner = CampaignRunner(trained_tiny_model, eval_loader)
        assert runner.run(points) == runner.run(points)

    def test_merged_pass_equals_point_at_a_time(self, trained_tiny_model, eval_loader):
        points = self.make_points()
        runner = CampaignRunner(trained_tiny_model, eval_loader)
        merged = runner.run(points)
        individual = [runner.run([point])[0] for point in points]
        assert merged == individual

    def test_unknown_engine_rejected(self, trained_tiny_model, eval_loader):
        with pytest.raises(ValueError):
            CampaignRunner(trained_tiny_model, eval_loader, engine="quantum")

    def test_every_bad_option_named_in_one_error(self):
        # Validation runs before the runner touches its model or loader.
        with pytest.raises(ValueError) as excinfo:
            CampaignRunner(None, None, trial_chunk=0, unit_timeout=0,
                           workers=0, shard="0/2")
        message = str(excinfo.value)
        for problem in ("trial_chunk must be at least 1",
                        "unit_timeout must be positive",
                        "workers must be at least 1", "need a shared cache_dir"):
            assert problem in message

    @pytest.mark.parametrize("option,value", [("dtype", "float32"),
                                              ("lane_threads", 2),
                                              ("lane_threads", 0),
                                              ("backend", "stub")])
    def test_harness_keywords_take_one_value(self, option, value):
        # dtype, lane_threads and backend stay only so the benchmark harness
        # can pass its pinned float64 / single-thread / numpy settings.
        check_runner_options(dtype="float64", lane_threads=1, backend="numpy")
        with pytest.raises(ValueError) as excinfo:
            check_runner_options(**{option: value})
        message = str(excinfo.value)
        assert message.count(f"{option} must be") == 1
        assert f"got {value!r}" in message

    def test_cache_roundtrip_and_hit(self, trained_tiny_model, eval_loader, tmp_path):
        points = self.make_points()
        runner = CampaignRunner(trained_tiny_model, eval_loader, cache_dir=tmp_path)
        first = runner.run(points)
        assert len(list(tmp_path.glob("*.json"))) == len(points)

        # A second runner must answer entirely from the cache: break the
        # simulation path and verify records still come back identical.
        fresh = CampaignRunner(trained_tiny_model, eval_loader, cache_dir=tmp_path)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("cache miss: simulation was invoked")

        fresh._evaluate = boom
        assert fresh.run(points) == first

    def test_cache_key_depends_on_model(self, trained_tiny_model, tiny_model,
                                        eval_loader, tmp_path):
        point = self.make_points()[0]
        trained = CampaignRunner(trained_tiny_model, eval_loader, cache_dir=tmp_path)
        untrained = CampaignRunner(tiny_model, eval_loader, cache_dir=tmp_path)
        trained.run([point])
        untrained.run([point])
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_cache_key_sees_frozen_threshold(self, trained_tiny_model_state,
                                             eval_loader, tmp_path):
        """Copies differing only in a frozen threshold never share a record.

        The model token digests parameters and buffers only; a frozen
        threshold is a plain attribute, so the on-disk key must see it.
        """

        from tests.conftest import build_tiny_mnist_model

        point = CampaignPoint(rows=8, cols=8, num_faulty=0, map_seeds=(1,))
        records = {}
        for threshold in (1.0, 0.3):
            model, _ = build_tiny_mnist_model()
            model.load_state_dict(trained_tiny_model_state["state"])
            for node in model.spiking_layers():
                node.set_threshold(threshold)
            cached = CampaignRunner(model, eval_loader, cache_dir=tmp_path).run([point])
            assert cached == CampaignRunner(model, eval_loader).run([point]), threshold
            records[threshold] = cached
        assert records[1.0] != records[0.3]
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_worker_pool_matches_serial(self, trained_tiny_model, eval_loader):
        points = self.make_points(trials=1)
        serial = CampaignRunner(trained_tiny_model, eval_loader, workers=1)
        pooled = CampaignRunner(trained_tiny_model, eval_loader, workers=2)
        assert serial.run(points) == pooled.run(points)

    def test_baseline_accuracy_cached(self, trained_tiny_model, eval_loader):
        runner = CampaignRunner(trained_tiny_model, eval_loader)
        first = runner.baseline_accuracy()
        assert runner.baseline_accuracy() == first
        assert 0.0 <= first <= 1.0


class TestSweepEquivalence:
    def test_fig5b_sweep_records_identical(self, trained_tiny_model, eval_loader):
        kwargs = dict(rows=16, cols=16, counts=(0, 2, 6), trials=2, seed=5,
                      dataset="mnist")
        sequential = sweep_faulty_pe_count(trained_tiny_model, eval_loader,
                                           engine="sequential", **kwargs)
        fused = sweep_faulty_pe_count(trained_tiny_model, eval_loader,
                                      engine="fused", **kwargs)
        assert fused == sequential
        assert fused[0]["num_faulty_pes"] == 0
        assert fused[0]["accuracy_std"] == 0.0

    def test_fig5a_sweep_records_identical(self, trained_tiny_model, eval_loader):
        kwargs = dict(rows=16, cols=16, bit_positions=(0, FMT.magnitude_msb),
                      trials=2, seed=5, dataset="mnist")
        sequential = sweep_bit_locations(trained_tiny_model, eval_loader,
                                         engine="sequential", **kwargs)
        fused = sweep_bit_locations(trained_tiny_model, eval_loader,
                                    engine="fused", **kwargs)
        assert fused == sequential
        assert {record["stuck_type"] for record in fused} == {"sa0", "sa1"}


def unit_record(cache_dir, payload, compute, required_keys=()):
    """Run one work unit keyed by ``payload``; its record and the report."""

    unit = WorkUnit(0, compute, path=cache_path(cache_dir, payload),
                    required_keys=required_keys)
    result = CampaignOrchestrator().run([unit])
    return result.records[0], result.report


class TestHelpers:
    def test_cached_record(self, tmp_path):
        calls = []

        def compute():
            calls.append(1)
            return {"value": 42}

        payload = {"key": "unit-test"}
        assert unit_record(tmp_path, payload, compute)[0] == {"value": 42}
        assert unit_record(tmp_path, payload, compute)[0] == {"value": 42}
        assert len(calls) == 1
        # No cache dir: compute every time.
        assert unit_record(None, payload, compute)[0] == {"value": 42}
        assert len(calls) == 2

    def test_tokens_change_with_content(self, tiny_mnist_loaders, trained_tiny_model,
                                        tiny_model):
        train_loader, test_loader = tiny_mnist_loaders
        assert loader_token(test_loader) != loader_token(train_loader)
        assert model_token(trained_tiny_model) != model_token(tiny_model)


class TestCacheSelfHealing:
    """A work unit's cache heals damaged entries instead of raising."""

    def _prime(self, cache_dir, payload, calls):
        def compute():
            calls.append(1)
            return {"value": 42, "trials": 1}

        return unit_record(cache_dir, payload, compute,
                           required_keys=("value", "trials"))

    @pytest.mark.parametrize("damage", ["truncate", "garbage", "non-dict",
                                        "missing-key"])
    def test_damaged_entry_quarantined_and_recomputed(self, tmp_path, damage):
        calls = []
        payload = {"key": f"heal-{damage}"}
        self._prime(tmp_path, payload, calls)
        entry = cache_path(tmp_path, payload)
        if damage == "truncate":
            entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])
        elif damage == "garbage":
            entry.write_bytes(b"\x00\xff{{{not json")
        elif damage == "non-dict":
            entry.write_text("[1, 2, 3]")
        else:
            entry.write_text('{"value": 42}')  # parses, but lost "trials"

        record, report = self._prime(tmp_path, payload, calls)
        assert record == {"value": 42, "trials": 1}
        assert len(calls) == 2  # damaged hit recomputed
        assert [event["kind"] for event in report.events] == ["cache-corrupt"]
        assert (report.cache_corrupt, report.computed_units) == (1, 1)
        sidecar = entry.with_name(entry.name + ".quarantined")
        assert sidecar.exists()  # damaged bytes kept for inspection
        # The healed entry is a clean hit again.
        assert self._prime(tmp_path, payload, calls)[0] == record
        assert len(calls) == 2

    def test_load_cached_record_missing_path_is_a_miss(self, tmp_path):
        from repro.faults import load_cached_record

        assert load_cached_record(tmp_path / "absent.json") is None

    def test_store_failure_degrades_to_uncached(self, tmp_path, monkeypatch):
        import errno
        import os as _os

        from repro.faults import store_record_safe

        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, "no space left on device")

        monkeypatch.setattr(_os, "replace", full_disk)
        events = []
        path = tmp_path / "record.json"
        assert store_record_safe({"value": 1}, path,
                                 on_event=events.append) is False
        assert not path.exists()
        assert [event["kind"] for event in events] == ["store-degraded"]
        assert not list(tmp_path.glob("*.tmp*"))  # staged temp cleaned up

    def test_store_record_safe_success_round_trips(self, tmp_path):
        from repro.faults import load_cached_record, store_record_safe

        path = tmp_path / "record.json"
        assert store_record_safe({"value": 3, "trials": 1}, path) is True
        assert load_cached_record(path, required_keys=("value",)) \
            == {"value": 3, "trials": 1}
