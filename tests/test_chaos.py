"""Tests for the deterministic chaos harness and the guarantees it proves.

Covers: plan construction (specs, env installation, seeded sampling),
per-action firing semantics (slow / raise / corrupt / enospc and the
cross-process ``once`` markers), cache-store injection into a work
unit's store, and the tentpole acceptance sweep -- an injected
permanently-hung worker, an injected crash and a pre-corrupted cache entry,
after which the records must be byte-identical to a clean serial run and
the ``SweepReport`` must attribute every failure to its taxonomy class.
"""

import errno
import json
import multiprocessing
import os

import pytest

from repro.faults import CampaignOrchestrator, CampaignRunner, CampaignPoint, WorkUnit
from repro.faults.campaign import cache_path
from repro.testing import (
    CHAOS_ENV_VAR,
    ChaosError,
    ChaosPlan,
    ChaosRule,
    active_plan,
    clear_plan,
    install_plan,
)
from repro.systolic import DEFAULT_ACCUMULATOR_FORMAT

FMT = DEFAULT_ACCUMULATOR_FORMAT


def canonical(records) -> bytes:
    return json.dumps(records, sort_keys=True).encode("utf-8")


def make_points(trials=2, counts=(2, 4, 6)):
    return [
        CampaignPoint.for_trials(16, 16, count, trials,
                                 bit_position=FMT.magnitude_msb,
                                 stuck_type="sa1", seed=40 + count,
                                 label="pe_count", dataset="mnist")
        for count in counts
    ]


@pytest.fixture(autouse=True)
def no_leaked_plan():
    """Every test starts and ends without a process-wide chaos plan."""

    clear_plan()
    yield
    clear_plan()


@pytest.fixture()
def eval_loader(tiny_mnist_loaders):
    return tiny_mnist_loaders[1]


@pytest.fixture()
def fast_backoff(monkeypatch):
    """Shorten the pool's retry backoff to 0.05 s (doubling per attempt)."""

    monkeypatch.setattr("repro.faults.orchestrator.RETRY_BACKOFF", 0.05)


@pytest.fixture(scope="module")
def serial_records(trained_tiny_model_state, tiny_mnist_loaders):
    """Clean single-process records of ``make_points()`` (the oracle)."""

    from conftest import build_tiny_mnist_model

    model, _ = build_tiny_mnist_model()
    model.load_state_dict(trained_tiny_model_state["state"])
    return CampaignRunner(model, tiny_mnist_loaders[1]).run(make_points())


class TestChaosRule:
    def test_rejects_unknown_site_and_action(self):
        with pytest.raises(ValueError, match="site"):
            ChaosRule(site="nope", action="hang")
        with pytest.raises(ValueError, match="not valid"):
            ChaosRule(site="unit", action="corrupt")
        with pytest.raises(ValueError, match="corrupt mode"):
            ChaosRule(site="cache-store", action="corrupt", mode="nibble")

    def test_unit_keys_match_exact_ordinal(self):
        rule = ChaosRule(site="unit", action="slow", key=3)
        assert rule.matches("unit", 3)
        assert not rule.matches("unit", 2)
        assert not rule.matches("cache-store", 3)
        assert ChaosRule(site="unit", action="slow").matches("unit", 7)

    def test_cache_store_keys_match_substring(self):
        rule = ChaosRule(site="cache-store", action="enospc", key="abc1")
        assert rule.matches("cache-store", "deadabc123.json")
        assert not rule.matches("cache-store", "other.json")


class TestChaosPlanSpec:
    def test_round_trips_through_payload(self, tmp_path):
        plan = ChaosPlan(
            [ChaosRule(site="unit", action="crash", key=2),
             ChaosRule(site="cache-store", action="corrupt", mode="garbage")],
            state_dir=tmp_path / "state", hang_seconds=12.0)
        rebuilt = ChaosPlan.from_spec(plan.as_payload())
        assert rebuilt.rules == plan.rules
        assert rebuilt.state_dir == plan.state_dir
        assert rebuilt.hang_seconds == 12.0
        # And through the inline-JSON form used by $REPRO_CHAOS.
        again = ChaosPlan.from_spec(json.dumps(plan.as_payload()))
        assert again.rules == plan.rules

    def test_from_spec_reads_at_file(self, tmp_path):
        spec_path = tmp_path / "plan.json"
        spec_path.write_text(json.dumps({
            "rules": [{"site": "unit", "action": "raise", "key": 0}],
            "state_dir": str(tmp_path / "state"),
        }))
        plan = ChaosPlan.from_spec(f"@{spec_path}")
        assert plan.rules[0].action == "raise"

    def test_from_spec_rejects_rule_less_payload(self):
        with pytest.raises(ValueError, match="rules"):
            ChaosPlan.from_spec({"state_dir": "/tmp/x"})

    def test_sample_is_seed_deterministic_with_distinct_victims(self, tmp_path):
        kwargs = dict(hangs=1, crashes=1, raises=2, corrupt_stores=1)
        one = ChaosPlan.sample(7, range(10), state_dir=tmp_path / "a", **kwargs)
        two = ChaosPlan.sample(7, range(10), state_dir=tmp_path / "b", **kwargs)
        assert [r.as_payload() for r in one.rules] == [r.as_payload()
                                                       for r in two.rules]
        victims = [rule.key for rule in one.rules if rule.site == "unit"]
        assert len(victims) == len(set(victims)) == 4
        other = ChaosPlan.sample(8, range(10), state_dir=tmp_path / "c", **kwargs)
        assert ([r.as_payload() for r in other.rules]
                != [r.as_payload() for r in one.rules])

    def test_sample_rejects_more_victims_than_units(self):
        with pytest.raises(ValueError, match="distinct victim"):
            ChaosPlan.sample(0, [0, 1], hangs=3)

    def test_env_installs_plan_once_per_process(self, monkeypatch, tmp_path):
        spec = {"rules": [{"site": "unit", "action": "slow", "seconds": 0.0}],
                "state_dir": str(tmp_path / "state")}
        monkeypatch.setenv(CHAOS_ENV_VAR, json.dumps(spec))
        clear_plan()
        plan = active_plan()
        assert plan is not None and plan.rules[0].action == "slow"
        # Resolved once: the same object comes back on later consults.
        assert active_plan() is plan

    def test_unparsable_env_spec_is_a_hard_error(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV_VAR, "{not json")
        clear_plan()
        with pytest.raises(json.JSONDecodeError):
            active_plan()

    def test_install_and_clear(self, tmp_path):
        plan = install_plan({"rules": [], "state_dir": str(tmp_path / "s")})
        assert active_plan() is plan
        install_plan(None)
        assert active_plan() is None


class TestChaosActions:
    def test_raise_fires_once_then_stays_claimed(self, tmp_path):
        plan = ChaosPlan([ChaosRule(site="unit", action="raise", key=0)],
                         state_dir=tmp_path / "state")
        with pytest.raises(ChaosError):
            plan.consult("unit", key=0)
        plan.consult("unit", key=0)  # claimed: must not fire again
        assert len(plan.fired()) == 1
        plan.reset()
        with pytest.raises(ChaosError):
            plan.consult("unit", key=0)

    def test_repeatable_rule_fires_every_time(self, tmp_path):
        plan = ChaosPlan(
            [ChaosRule(site="unit", action="raise", key=0, once=False)],
            state_dir=tmp_path / "state")
        for _ in range(2):
            with pytest.raises(ChaosError):
                plan.consult("unit", key=0)
        assert plan.fired() == []  # repeatable rules leave no markers

    def test_once_marker_spans_forked_processes(self, tmp_path):
        plan = ChaosPlan([ChaosRule(site="unit", action="raise", key=0)],
                         state_dir=tmp_path / "state")
        context = multiprocessing.get_context("fork")

        def child():
            try:
                plan.consult("unit", key=0)
            except ChaosError:
                os._exit(1)  # the child claimed the rule
            os._exit(0)

        process = context.Process(target=child)
        process.start()
        process.join()
        assert process.exitcode == 1
        plan.consult("unit", key=0)  # already claimed by the child: no fire

    def test_slow_sleeps_bounded(self, tmp_path):
        import time

        plan = ChaosPlan(
            [ChaosRule(site="unit", action="slow", key=0, seconds=0.05)],
            state_dir=tmp_path / "state")
        start = time.monotonic()
        plan.consult("unit", key=0)
        assert time.monotonic() - start >= 0.05

    def test_enospc_raises_oserror(self, tmp_path):
        plan = ChaosPlan([ChaosRule(site="cache-store", action="enospc")],
                         state_dir=tmp_path / "state")
        with pytest.raises(OSError) as excinfo:
            plan.consult("cache-store", key="anything.json")
        assert excinfo.value.errno == errno.ENOSPC

    @pytest.mark.parametrize("mode", ["truncate", "garbage"])
    def test_corrupt_damages_staged_file(self, tmp_path, mode):
        staged = tmp_path / "record.json.tmp1"
        staged.write_text(json.dumps({"accuracies": [1.0], "trials": 1}))
        plan = ChaosPlan(
            [ChaosRule(site="cache-store", action="corrupt", mode=mode)],
            state_dir=tmp_path / "state")
        plan.consult("cache-store", key="record.json", path=staged)
        with pytest.raises((json.JSONDecodeError, UnicodeDecodeError)):
            json.loads(staged.read_text())


def run_unit(cache, payload, compute):
    """One work unit keyed by ``payload``, through the orchestrator."""

    return CampaignOrchestrator().run([WorkUnit(0, compute,
                                                path=cache_path(cache, payload))])


class TestCacheStoreChaos:
    def test_enospc_store_degrades_to_uncached(self, tmp_path):
        install_plan({"rules": [{"site": "cache-store", "action": "enospc"}],
                      "state_dir": str(tmp_path / "state")})
        calls = []
        payload = {"key": "enospc"}
        compute = lambda: calls.append(1) or {"value": 7}  # noqa: E731
        result = run_unit(tmp_path / "cache", payload, compute)
        assert result.records == [{"value": 7}]
        assert [e["kind"] for e in result.report.events] == ["store-degraded"]
        assert result.report.store_degraded == 1
        assert not list((tmp_path / "cache").glob("*.json"))
        # The rule is claimed, so the next run stores (and caches) fine.
        assert run_unit(tmp_path / "cache", payload, compute).records == [{"value": 7}]
        assert len(calls) == 2
        third = run_unit(tmp_path / "cache", payload, compute)
        assert third.records == [{"value": 7}]
        assert len(calls) == 2  # third run was a clean cache hit
        assert third.report.cached_units == 1

    def test_corrupt_store_quarantines_on_next_read(self, tmp_path):
        install_plan({"rules": [{"site": "cache-store", "action": "corrupt",
                                 "mode": "garbage"}],
                      "state_dir": str(tmp_path / "state")})
        calls = []
        payload = {"key": "corrupt"}
        compute = lambda: calls.append(1) or {"value": 9}  # noqa: E731
        cache = tmp_path / "cache"
        assert run_unit(cache, payload, compute).records == [{"value": 9}]
        # The store landed garbled bytes; the next lookup must quarantine
        # the entry and recompute instead of raising.
        healed = run_unit(cache, payload, compute)
        assert healed.records == [{"value": 9}]
        assert len(calls) == 2
        assert [e["kind"] for e in healed.report.events] == ["cache-corrupt"]
        assert healed.report.cache_corrupt == 1
        assert list(cache.glob("*.quarantined"))


class TestChaosSweepIdentity:
    def test_hang_crash_and_corrupt_cache_sweep_is_byte_identical(
            self, trained_tiny_model, eval_loader, serial_records, tmp_path,
            fast_backoff):
        """The ISSUE's acceptance sweep.

        One cache entry is pre-corrupted on disk; the unit that recomputes
        it first hangs (watchdog kill), then crashes, then succeeds.  The
        sweep must finish on its own, reproduce the clean serial records
        byte-for-byte, and attribute each failure to its taxonomy class.
        """

        points = make_points()
        cache = tmp_path / "cache"
        CampaignRunner(trained_tiny_model, eval_loader, cache_dir=cache).run(points)
        entries = sorted(cache.glob("*.json"))
        assert len(entries) == 3

        # Corrupt the cached records of points 1 and 2: the orchestrator
        # pre-scan quarantines both, leaving unit ordinals 1 and 2 to
        # recompute (two units keep the sweep on the real process pool --
        # the inline fallback could not survive an injected crash).
        runner = CampaignRunner(trained_tiny_model, eval_loader, cache_dir=cache,
                                workers=2, unit_timeout=8.0)
        for victim_point in (points[1], points[2]):
            victim = runner._cache_path(victim_point)
            victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 2])

        install_plan({
            "rules": [
                {"site": "unit", "action": "hang", "key": 1},
                {"site": "unit", "action": "crash", "key": 1},
            ],
            "state_dir": str(tmp_path / "chaos-state"),
            "hang_seconds": 120.0,
        })

        result = runner.orchestrate(points)
        assert result.complete
        assert canonical(result.records) == canonical(serial_records)
        report = result.report
        assert report.cache_corrupt == 2
        assert report.hung == 1
        assert report.crashed == 1
        assert report.quarantined == []
        assert report.retries >= 2
        kinds = {event["kind"] for event in report.events}
        assert {"cache-corrupt", "worker-hung", "worker-crash"} <= kinds
        assert len(list(cache.glob("*.quarantined"))) == 2
        summary = report.summary()
        assert (summary["hung"], summary["crashed"], summary["cache_corrupt"]) \
            == (1, 1, 2)

    def test_seeded_raise_plan_only_adds_retries(
            self, trained_tiny_model, eval_loader, serial_records, tmp_path,
            fast_backoff):
        """A sampled poison mix perturbs scheduling, never the records."""

        plan = ChaosPlan.sample(11, [0, 1, 2], raises=2, seconds=0.0,
                                state_dir=tmp_path / "chaos-state")
        install_plan(plan)
        runner = CampaignRunner(trained_tiny_model, eval_loader, workers=2)
        result = runner.orchestrate(make_points())
        assert canonical(result.records) == canonical(serial_records)
        assert result.report.poisoned == 2
        assert result.report.retries == 2
