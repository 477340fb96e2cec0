"""Tests for the sharded campaign orchestrator.

Covers: shard-spec parsing and exact grid partitioning, trial-chunk work
unit planning, the crash-tolerant work-stealing pool, byte-identity of
orchestrated/sharded/merged records with the single-process
``CampaignRunner``, killed-then-resumed sweeps that skip cached units, and
failure containment (retries, exhausted attempts).  Failures are injected
through the chaos harness and units observed through progress events.
"""

import json
import os

import pytest

from repro.faults import (
    CampaignOrchestrator,
    CampaignPoint,
    CampaignRunner,
    PendingShardError,
    ShardSpec,
    WorkUnit,
    sweep_faulty_pe_count,
)
from repro.faults.campaign import plan_sweep_chunks
from repro.faults.orchestrator import run_tasks
from repro.systolic import DEFAULT_ACCUMULATOR_FORMAT
from repro.testing import clear_plan, install_plan
from repro.utils.blas import blas_threads, set_blas_threads

FMT = DEFAULT_ACCUMULATOR_FORMAT


def canonical(records) -> bytes:
    """Byte representation used for record byte-identity assertions."""

    return json.dumps(records, sort_keys=True).encode("utf-8")


def make_points(trials=2, counts=(2, 4, 6)):
    """A small Fig. 5b-style grid (faulty-PE counts on a fixed array)."""

    return [
        CampaignPoint.for_trials(16, 16, count, trials,
                                 bit_position=FMT.magnitude_msb,
                                 stuck_type="sa1", seed=40 + count,
                                 label="pe_count", dataset="mnist")
        for count in counts
    ]


@pytest.fixture()
def eval_loader(tiny_mnist_loaders):
    return tiny_mnist_loaders[1]


@pytest.fixture()
def fast_backoff(monkeypatch):
    """Shorten the pool's retry backoff to 0.05 s (doubling per attempt)."""

    monkeypatch.setattr("repro.faults.orchestrator.RETRY_BACKOFF", 0.05)


@pytest.fixture()
def chaos(tmp_path):
    """Install chaos rules for one test; the plan is cleared afterwards."""

    def install(*rules):
        return install_plan({"rules": list(rules),
                             "state_dir": str(tmp_path / "chaos-state")})

    clear_plan()
    yield install
    clear_plan()


def done_units(events, field="ordinal"):
    """``field`` of every ``unit-done`` progress event, in arrival order."""

    return [event[field] for event in events if event["kind"] == "unit-done"]


@pytest.fixture(scope="module")
def serial_records(trained_tiny_model_state, tiny_mnist_loaders):
    """Single-process fused records of ``make_points()`` (the oracle)."""

    from conftest import build_tiny_mnist_model

    model, _ = build_tiny_mnist_model()
    model.load_state_dict(trained_tiny_model_state["state"])
    return CampaignRunner(model, tiny_mnist_loaders[1]).run(make_points())


class TestShardSpec:
    def test_parse_round_trip(self):
        spec = ShardSpec.parse("1/3")
        assert (spec.index, spec.total) == (1, 3)
        assert str(spec) == "1/3"
        assert ShardSpec.parse(spec) is spec

    def test_parse_rejects_malformed(self):
        for text in ("", "1", "a/b", "1/2/3", "2/2", "-1/2", "0/0"):
            with pytest.raises(ValueError):
                ShardSpec.parse(text)

    def test_shards_partition_ordinals(self):
        total = 3
        shards = [ShardSpec(index, total) for index in range(total)]
        for ordinal in range(20):
            owners = [shard for shard in shards if shard.owns(ordinal)]
            assert len(owners) == 1


class TestPlanUnits:
    def test_default_is_one_unit_per_point(self):
        points = make_points(trials=4)
        units = plan_sweep_chunks(points)
        assert [unit.ordinal for unit in units] == [0, 1, 2]
        assert all(unit.num_chunks == 1 for unit in units)
        # Unsplit units carry the original points, so their cache keys are
        # exactly the plain per-point campaign keys.
        assert all(unit.point is point for unit, point in zip(units, points))

    def test_trial_chunk_splits_seeds_exactly_once(self):
        points = make_points(trials=5)
        units = plan_sweep_chunks(points, trial_chunk=2)
        assert len(units) == 9  # ceil(5/2) = 3 chunks per point
        assert [unit.ordinal for unit in units] == list(range(9))
        for point_index, point in enumerate(points):
            chunks = [unit for unit in units if unit.point_index == point_index]
            assert [unit.chunk_index for unit in chunks] == [0, 1, 2]
            recombined = tuple(seed for unit in chunks
                               for seed in unit.point.map_seeds)
            assert recombined == point.map_seeds

    def test_shard_union_covers_grid_exactly_once(self):
        units = plan_sweep_chunks(make_points(trials=4), trial_chunk=1)
        ordinals = [unit.ordinal for unit in units]
        total = 2
        shard_sets = [
            {ordinal for ordinal in ordinals if ShardSpec(i, total).owns(ordinal)}
            for i in range(total)
        ]
        assert set(ordinals) == shard_sets[0] | shard_sets[1]
        assert not (shard_sets[0] & shard_sets[1])

    def test_invalid_trial_chunk(self):
        # The runner rejects the option before it touches its model.
        with pytest.raises(ValueError, match="trial_chunk"):
            CampaignRunner(None, None, trial_chunk=0)


class TestWorkStealingPool:
    def test_results_in_task_order(self):
        results = run_tasks(5, lambda index: index * index, workers=2)
        assert [result.value for result in results] == [0, 1, 4, 9, 16]
        assert all(result.ok and result.attempts == 1 for result in results)

    def test_worker_crash_requeues_unit(self, tmp_path):
        latch = tmp_path / "crashed-once"

        def fn(index):
            if index == 1 and not latch.exists():
                latch.touch()
                os._exit(17)  # hard worker death, not an exception
            return index

        events = []
        results = run_tasks(3, fn, workers=2, max_attempts=3,
                            progress=events.append)
        assert [result.value for result in results] == [0, 1, 2]
        assert results[1].attempts == 2
        crashes = [event for event in events if event["kind"] == "worker-crash"]
        assert crashes and crashes[0]["index"] == 1

    def test_exception_retries_then_fails(self):
        def fn(index):
            if index == 0:
                raise ValueError("always broken")
            return index

        results = run_tasks(2, fn, workers=2, max_attempts=2)
        assert not results[0].ok and "always broken" in results[0].error
        assert results[0].attempts == 2
        assert results[1].ok  # surviving tasks still complete

    def test_inline_fallback_matches_pool(self):
        fn = lambda index: index + 10  # noqa: E731
        inline = [result.value for result in run_tasks(4, fn, workers=1)]
        pooled = [result.value for result in run_tasks(4, fn, workers=2)]
        assert inline == pooled == [10, 11, 12, 13]

    def test_forked_workers_run_one_blas_thread(self):
        """Workers share the cores, so each runs one OpenBLAS thread."""

        if blas_threads() is None:
            pytest.skip("no OpenBLAS thread-count getter in this process")
        results = run_tasks(2, lambda index: blas_threads(), workers=2)
        assert [result.value for result in results] == [1, 1]

    def test_inline_units_run_one_blas_thread_and_restore_the_count(self):
        """In-process units compute on one OpenBLAS thread, as forked ones do."""

        previous = blas_threads()
        if previous is None:
            pytest.skip("no OpenBLAS thread-count getter in this process")
        set_blas_threads(2)
        try:
            caller = blas_threads()
            results = run_tasks(2, lambda index: blas_threads(), workers=1)
            assert [result.value for result in results] == [1, 1]
            assert blas_threads() == caller
        finally:
            set_blas_threads(previous)


class TestOrchestratedRecords:
    def test_workers2_byte_identical_to_single_process(self, trained_tiny_model,
                                                       eval_loader, serial_records):
        runner = CampaignRunner(trained_tiny_model, eval_loader, workers=2)
        assert canonical(runner.run(make_points())) == canonical(serial_records)

    def test_trial_chunks_byte_identical_and_prime_point_cache(
            self, trained_tiny_model, eval_loader, serial_records, tmp_path):
        runner = CampaignRunner(trained_tiny_model, eval_loader, workers=2,
                                trial_chunk=1, cache_dir=tmp_path)
        records = runner.run(make_points())
        assert canonical(records) == canonical(serial_records)
        # The merge step materialised full-point records: a plain serial
        # runner with a broken simulation path must answer purely from cache.
        fresh = CampaignRunner(trained_tiny_model, eval_loader, cache_dir=tmp_path)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("cache miss: simulation was invoked")

        fresh._evaluate = boom
        assert canonical(fresh.run(make_points())) == canonical(serial_records)

    def test_two_shard_split_then_merge_byte_identical(
            self, trained_tiny_model, eval_loader, serial_records, tmp_path):
        points = make_points()
        shard0 = CampaignRunner(trained_tiny_model, eval_loader,
                                cache_dir=tmp_path, shard="0/2")
        with pytest.raises(PendingShardError) as excinfo:
            shard0.run(points)
        assert excinfo.value.pending == [1]  # shard 0 owns ordinals 0 and 2
        # Shard 1 computes its own unit, then merges shard 0's cached units.
        shard1 = CampaignRunner(trained_tiny_model, eval_loader,
                                cache_dir=tmp_path, shard="1/2")
        assert canonical(shard1.run(points)) == canonical(serial_records)
        # And an unsharded resume pass answers purely from the shared cache.
        merge = CampaignRunner(trained_tiny_model, eval_loader, cache_dir=tmp_path)
        assert canonical(merge.run(points)) == canonical(serial_records)

    def test_shard_requires_cache_dir(self, trained_tiny_model, eval_loader):
        with pytest.raises(ValueError, match="cache_dir"):
            CampaignRunner(trained_tiny_model, eval_loader, shard="0/2")

    def test_killed_sweep_resumes_without_recompute(
            self, trained_tiny_model, eval_loader, serial_records, tmp_path):
        points = make_points()
        finished = []

        def kill_after_two(event):
            if event["kind"] == "unit-done":
                finished.append(event["ordinal"])
                if len(finished) == 2:
                    raise KeyboardInterrupt  # simulate ^C mid-sweep

        runner = CampaignRunner(trained_tiny_model, eval_loader, cache_dir=tmp_path,
                                progress=kill_after_two)
        with pytest.raises(KeyboardInterrupt):
            runner.orchestrate(points)
        cached_units = len(list(tmp_path.glob("*.json")))
        assert cached_units == 2  # finished units survived the kill

        events = []
        resumed = CampaignRunner(trained_tiny_model, eval_loader,
                                 cache_dir=tmp_path, progress=events.append)
        result = resumed.orchestrate(points)
        assert result.complete
        assert canonical(result.records) == canonical(serial_records)
        # Only the unit lost to the kill was recomputed.
        assert done_units(events) == [2]
        assert result.report.cached_units == 2
        assert result.report.computed_units == 1

    def test_partial_point_cache_skips_units_entirely(
            self, trained_tiny_model, eval_loader, serial_records, tmp_path):
        points = make_points()
        # Prime the cache with one full point via the plain serial runner.
        CampaignRunner(trained_tiny_model, eval_loader,
                       cache_dir=tmp_path).run(points[:1])

        events = []
        runner = CampaignRunner(trained_tiny_model, eval_loader,
                                cache_dir=tmp_path, progress=events.append)
        result = runner.orchestrate(points)
        # Point 0 is answered from the cache.
        assert sorted(done_units(events, "point_index")) == [1, 2]
        assert canonical(result.records) == canonical(serial_records)

    def test_worker_crash_mid_sweep_is_retried(self, trained_tiny_model,
                                               eval_loader, serial_records,
                                               chaos):
        chaos({"site": "unit", "action": "crash", "key": 0})
        runner = CampaignRunner(trained_tiny_model, eval_loader, workers=2)
        result = runner.orchestrate(make_points())
        assert result.complete
        assert result.report.retries >= 1
        assert canonical(result.records) == canonical(serial_records)

    def test_unit_failure_exhausts_attempts_but_keeps_other_work(
            self, trained_tiny_model, eval_loader, tmp_path, chaos,
            fast_backoff):
        chaos({"site": "unit", "action": "raise", "key": 1, "once": False})
        runner = CampaignRunner(trained_tiny_model, eval_loader, cache_dir=tmp_path)
        with pytest.raises(RuntimeError, match="chaos-injected unit failure"):
            runner.orchestrate(make_points())
        # The two healthy units finished and were cached before the raise.
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_progress_events_carry_timing_and_eta(self, trained_tiny_model,
                                                  eval_loader):
        events = []
        runner = CampaignRunner(trained_tiny_model, eval_loader, workers=2,
                                progress=events.append)
        runner.run(make_points())
        done = [event for event in events if event["kind"] == "unit-done"]
        assert len(done) == 3
        assert all(event["seconds"] > 0 for event in done)
        assert all("eta_seconds" in event for event in done)
        assert {event["point_index"] for event in done} == {0, 1, 2}

    def test_report_summary_counts(self, trained_tiny_model, eval_loader, tmp_path):
        runner = CampaignRunner(trained_tiny_model, eval_loader, cache_dir=tmp_path)
        first = runner.orchestrate(make_points()).report
        assert (first.total_units, first.computed_units, first.cached_units) == (3, 3, 0)
        second = runner.orchestrate(make_points()).report
        assert second.computed_units == 0
        summary = first.summary()
        assert summary["computed_units"] == 3
        assert summary["mean_unit_seconds"] > 0


class TestSerialPasses:
    """One worker: units sharing a geometry compute in multi-map passes."""

    @staticmethod
    def count_passes(runner):
        """Record the number of maps of every ``_evaluate`` call of ``runner``."""

        evaluate = runner._evaluate
        passes = []

        def counted(faults):
            passes.append(len(faults))
            return evaluate(faults)

        runner._evaluate = counted
        return passes

    def test_serial_sweep_consults_the_unit_hook(self, trained_tiny_model,
                                                 eval_loader, serial_records,
                                                 chaos, fast_backoff):
        plan = chaos({"site": "unit", "action": "raise", "key": 0})
        events = []
        runner = CampaignRunner(trained_tiny_model, eval_loader,
                                progress=events.append)
        assert canonical(runner.run(make_points())) == canonical(serial_records)
        assert plan.fired() == ["fired-0-unit-raise"]
        assert [(event["ordinal"], event["attempt"]) for event in events
                if event["kind"] == "unit-failed"] == [(0, 1)]
        plan.reset()
        result = runner.orchestrate(make_points())
        assert result.report.retries == 1
        assert canonical(result.records) == canonical(serial_records)

    @pytest.mark.parametrize("trial_chunk", [None, 1])
    def test_one_evaluation_per_pass(self, trained_tiny_model, eval_loader,
                                     serial_records, trial_chunk):
        runner = CampaignRunner(trained_tiny_model, eval_loader,
                                trial_chunk=trial_chunk)
        passes = self.count_passes(runner)
        assert canonical(runner.run(make_points())) == canonical(serial_records)
        assert passes == [6]  # 3 points x 2 trials, one geometry

    def test_passes_hold_at_most_max_maps(self, trained_tiny_model, eval_loader,
                                          serial_records, monkeypatch):
        monkeypatch.setattr("repro.faults.campaign.MAX_MAPS_PER_PASS", 4)
        runner = CampaignRunner(trained_tiny_model, eval_loader, trial_chunk=1)
        passes = self.count_passes(runner)
        assert canonical(runner.run(make_points())) == canonical(serial_records)
        assert passes == [4, 2]

    def test_more_workers_keep_one_unit_per_pass(self, trained_tiny_model,
                                                 eval_loader):
        # Grouping follows the worker count: with two workers every unit is
        # its own pass, so no unit computes another's record.
        runner = CampaignRunner(trained_tiny_model, eval_loader, workers=2)
        chunks = plan_sweep_chunks(make_points())
        passes = runner._plan_passes(chunks)
        assert all(passes[chunk.ordinal] == [chunk] for chunk in chunks)

    def test_shard_pass_holds_only_owned_chunks(self, trained_tiny_model,
                                                eval_loader, tmp_path):
        events = []
        runner = CampaignRunner(trained_tiny_model, eval_loader, trial_chunk=1,
                                shard="0/2", cache_dir=tmp_path,
                                progress=events.append)
        passes = self.count_passes(runner)
        result = runner.orchestrate(make_points())
        assert passes == [3]  # ordinals 0, 2 and 4 of six one-trial chunks
        assert done_units(events) == [0, 2, 4]
        assert not result.complete

    def test_resumed_serial_run_evaluates_only_missing_maps(
            self, trained_tiny_model, eval_loader, serial_records, tmp_path):
        points = make_points()
        CampaignRunner(trained_tiny_model, eval_loader,
                       cache_dir=tmp_path).run(points[::2])
        runner = CampaignRunner(trained_tiny_model, eval_loader, cache_dir=tmp_path)
        passes = self.count_passes(runner)
        result = runner.orchestrate(points)
        assert passes == [2]  # point 1's two maps
        assert (result.report.cached_units, result.report.computed_units) == (2, 1)
        assert canonical(result.records) == canonical(serial_records)


class TestSweepIntegration:
    def test_fig5b_sweep_through_orchestrator_matches_serial(
            self, trained_tiny_model, eval_loader, tmp_path):
        kwargs = dict(rows=16, cols=16, counts=(0, 2, 4), trials=2, seed=9,
                      dataset="mnist")
        serial = sweep_faulty_pe_count(trained_tiny_model, eval_loader, **kwargs)
        orchestrated = sweep_faulty_pe_count(
            trained_tiny_model, eval_loader, workers=2, trial_chunk=1,
            cache_dir=tmp_path, **kwargs)
        assert canonical(orchestrated) == canonical(serial)
        assert orchestrated[0]["num_faulty_pes"] == 0  # baseline row intact


class TestHangTolerance:
    def test_watchdog_kills_sleeping_task(self, fast_backoff):
        import time

        def fn(index):
            if index == 1:
                time.sleep(60)
            return index

        events = []
        results = run_tasks(3, fn, workers=3, task_timeout=1.0,
                            max_attempts=2, progress=events.append)
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert results[1].failure_kind == "hung"
        assert "deadline" in results[1].error
        hangs = [event for event in events if event["kind"] == "worker-hung"]
        assert hangs and hangs[0]["index"] == 1
        assert hangs[0]["reason"] == "hung"

    def test_hung_task_recovers_on_retry(self, tmp_path, fast_backoff):
        import time

        latch = tmp_path / "hung-once"

        def fn(index):
            if index == 1 and not latch.exists():
                latch.touch()
                time.sleep(60)
            return index * 10

        results = run_tasks(3, fn, workers=2, task_timeout=1.5,
                            max_attempts=3)
        assert [result.value for result in results] == [0, 10, 20]
        assert results[1].attempts == 2
        assert results[1].ok and results[1].failure_kind is None

    def test_slow_tasks_after_fast_ones_are_not_killed(self):
        """Without ``task_timeout`` a task may run as long as it needs.

        Fast tasks finishing first must not set a deadline for the slow
        ones: a retraining grid finishes its FaP cells in a fraction of a
        second and then runs FaPIT and FalVolt cells for seconds each.
        """

        import time

        def fn(index):
            time.sleep(0.05 if index < 2 else 6.0)
            return index

        events = []
        results = run_tasks(4, fn, workers=2, progress=events.append)
        assert [result.value for result in results] == [0, 1, 2, 3]
        assert all(result.ok and result.attempts == 1 for result in results)
        assert not [event for event in events
                    if event["kind"] == "worker-hung"]

    def test_stalled_heartbeats_kill_the_worker(self, monkeypatch, fast_backoff):
        """A worker stopped beyond its heartbeat thread is killed as hung."""

        import signal

        monkeypatch.setattr("repro.faults.orchestrator.STALL_TIMEOUT", 1.0)

        def fn(index):
            if index == 1:
                os.kill(os.getpid(), signal.SIGSTOP)
            return index

        results = run_tasks(3, fn, workers=2, max_attempts=1)
        assert results[0].ok and results[2].ok
        assert results[1].failure_kind == "hung"
        assert "heartbeats stalled" in results[1].error

    def test_uninterruptible_hang_is_killed_by_escalation(self):
        import signal
        import time

        def fn(index):
            if index == 1:
                # A worker too wedged to service SIGTERM: only the
                # escalation to SIGKILL can stop it.
                signal.signal(signal.SIGTERM, signal.SIG_IGN)
                time.sleep(60)
            return index

        results = run_tasks(2, fn, workers=2, task_timeout=1.0,
                            max_attempts=1)
        assert results[0].ok
        assert results[1].failure_kind == "hung"

    def test_retry_backoff_grows_exponentially(self, fast_backoff):
        def fn(index):
            raise ValueError("always broken")

        events = []
        run_tasks(2, fn, workers=2, max_attempts=3, progress=events.append)
        delays = [event["retry_delay"] for event in events
                  if event["kind"] == "task-failed" and event.get("index") == 0
                  and event.get("retry_delay") is not None]
        assert delays == [0.05, 0.1]

    def test_raising_progress_callback_is_disabled_not_fatal(self):
        calls = []

        def bad_progress(event):
            calls.append(event)
            raise RuntimeError("observer broke")

        results = run_tasks(4, lambda index: index, workers=2,
                            progress=bad_progress)
        assert all(result.ok for result in results)
        assert len(calls) == 1  # reported once, then disabled

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_unit_is_named_with_its_attempts(self, workers, tmp_path,
                                                     fast_backoff):
        """A unit that always fails raises naming its unit and attempt count.

        The healthy unit still finishes and is cached first.
        """

        def broken():
            raise ValueError("broken cell")

        units = [WorkUnit(0, lambda: {"value": 0}, path=tmp_path / "ok.json"),
                 WorkUnit(1, broken, tags=(("cell", 1), ("method", "falvolt")))]
        orchestrator = CampaignOrchestrator(workers=workers)
        with pytest.raises(RuntimeError) as excinfo:
            orchestrator.run(units)
        message = str(excinfo.value)
        assert ("1 work unit(s) failed after 3 attempt(s): "
                "unit 1 (cell 1, method falvolt): ValueError: broken cell") in message
        assert (tmp_path / "ok.json").exists()


class TestQuarantine:
    def test_raise_mode_still_reports_quarantined_ordinals(
            self, trained_tiny_model, eval_loader, chaos, fast_backoff):
        chaos({"site": "unit", "action": "raise", "key": 0, "once": False})
        runner = CampaignRunner(trained_tiny_model, eval_loader)
        with pytest.raises(RuntimeError,
                           match=r"1 work unit\(s\) failed after 3 attempt\(s\): "
                                 r"unit 0 \(point_index 0, chunk_index 0\)"):
            runner.orchestrate(make_points())

    def test_invalid_policies_rejected(self, trained_tiny_model, eval_loader):
        # The orchestrator takes keyword options only; the runner validates
        # them before they reach it.
        runner = CampaignRunner(trained_tiny_model, eval_loader)
        with pytest.raises(TypeError):
            CampaignOrchestrator(runner, workers=2)
        with pytest.raises(ValueError, match="unit_timeout"):
            CampaignRunner(trained_tiny_model, eval_loader, unit_timeout=0.0)
