"""One sharded, resumable runtime for every work unit.

A :class:`WorkUnit` is one record's worth of work: where the record is
cached (the digest of the unit's payload), the keys a cached record must
carry and the function that computes it.  Both kinds of work the
reproduction repeats are lists of units: a sweep's (grid point, trial
chunk) pieces (planned by :class:`~repro.faults.campaign.CampaignRunner`)
and the retraining cells of the mitigation experiments (planned by
:func:`repro.experiments.retrain_cells`).  :class:`CampaignOrchestrator`
runs any such list on a pool of forked worker processes pulling from a
shared work queue (idle workers steal whatever unit is next, so load
balances itself), and, when interrupted, resumes for free:

* **Cache keys are the coordination protocol.**  A unit whose record is
  already on disk is skipped, so a killed run continues where it stopped
  and concurrent orchestrators sharing a filesystem cooperate instead of
  duplicating work (the cache is re-checked just before each compute).
  Result files are written atomically (temp file + ``os.replace``), so a
  reader never sees a torn record.
* **Shards split one grid across machines.**  :class:`ShardSpec`
  (``--shard i/N``) deterministically assigns each unit ordinal to one of
  ``N`` shards (round-robin), so ``N`` machines pointed at the same cache
  directory partition the grid exactly.  A shard reads its neighbours'
  records from disk once its own units are done; records still missing
  are listed as pending (:class:`PendingShardError` at the caller), and
  once every unit is materialised, any invocation -- or a final
  ``--resume`` pass -- assembles the records purely from disk.
* **Failures are contained.**  A unit that raises is retried (on any
  worker) up to :data:`UNIT_ATTEMPTS` times; a worker process that dies is
  detected, its unit re-queued and a replacement forked.  Workers emit
  heartbeats on the results channel while a unit runs, and a watchdog
  kills a worker (``SIGTERM`` escalating to ``SIGKILL``) in only two more
  cases: its unit runs past an explicit ``unit_timeout``, or its
  heartbeats stall for :data:`STALL_TIMEOUT`.  A busy loop in Python keeps
  heartbeating, so only ``unit_timeout`` catches one; without it a unit
  may run as long as it needs.  A killed worker is replaced exactly like a
  crashed one, with exponential backoff between re-attempts of the same
  unit.  A unit that exhausts its attempts is listed in
  :attr:`SweepReport.quarantined` and the run raises -- after every
  healthy unit has finished and been cached, so a re-run resumes.
  :class:`SweepReport` attributes every failure to a taxonomy class
  (``crashed`` / ``hung`` / ``poisoned`` / ``cache-corrupt``).  Damaged
  cache entries are quarantined and the unit recomputed instead of
  raising, and a failed store degrades to an uncached record.  All of
  these paths are testable deterministically through the chaos harness
  (:mod:`repro.testing.chaos`).

Its options (``workers``, ``shard``, ``unit_timeout``, ``progress``) are
campaign options, validated by :func:`~repro.faults.check_runner_options`
(or, for a retraining grid, :func:`~repro.experiments.check_retrain_options`)
before they get here.  It is not usually constructed by hand: every
``CampaignRunner.run`` and every ``retrain_cells`` call runs on it, at any
worker count, and the CLI exposes the same options (``python -m repro
campaign --workers K --shard i/N --resume``, ``python -m repro run fig7
--shard i/N``).
"""

from __future__ import annotations

import dataclasses
import heapq
import multiprocessing
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..utils.blas import one_blas_thread, set_blas_threads
from ..utils.logging import get_logger
from .campaign import load_cached_record, store_record_safe

__all__ = [
    "CampaignOrchestrator",
    "OrchestratorResult",
    "PendingShardError",
    "ShardSpec",
    "SweepReport",
    "WorkUnit",
    "run_tasks",
]

logger = get_logger("faults.orchestrator")

#: Attempts per work unit; exceptions, worker deaths and watchdog kills all
#: consume one.
UNIT_ATTEMPTS = 3

#: A retry of one task waits ``RETRY_BACKOFF x 2^(attempt-1)`` seconds.
RETRY_BACKOFF = 0.25


def _retry_delay(attempts: int) -> float:
    """Seconds to wait before retrying a task that failed ``attempts`` times."""

    return RETRY_BACKOFF * (2 ** max(0, attempts - 1))

#: A busy worker sends a heartbeat every ``HEARTBEAT_INTERVAL`` seconds; one
#: whose heartbeats stall for ``STALL_TIMEOUT`` seconds counts as hung.
HEARTBEAT_INTERVAL = 0.2
STALL_TIMEOUT = 30.0


# ----------------------------------------------------------------------
# Shards
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ShardSpec:
    """One shard of an ``N``-way grid split (``--shard i/N``, 0-based).

    Units are assigned round-robin by ordinal, so the ``N`` shards of the
    same grid partition its units exactly: every unit belongs to one and
    only one shard, regardless of cache state or timing.
    """

    index: int
    total: int

    def __post_init__(self) -> None:
        if self.total < 1:
            raise ValueError("shard total must be at least 1")
        if not 0 <= self.index < self.total:
            raise ValueError(
                f"shard index must be in [0, {self.total}); got {self.index}")

    @classmethod
    def parse(cls, text: Union[str, "ShardSpec"]) -> "ShardSpec":
        """Parse an ``"i/N"`` string (e.g. ``"0/2"``) into a shard spec."""

        if isinstance(text, ShardSpec):
            return text
        parts = str(text).split("/")
        if len(parts) != 2:
            raise ValueError(f"expected 'i/N' (e.g. '0/2'); got {text!r}")
        try:
            index, total = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"expected integers in 'i/N'; got {text!r}") from None
        return cls(index=index, total=total)

    def owns(self, ordinal: int) -> bool:
        """Whether this shard is responsible for unit ``ordinal``."""

        return ordinal % self.total == self.index

    def __str__(self) -> str:
        return f"{self.index}/{self.total}"


# ----------------------------------------------------------------------
# Work units
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class WorkUnit:
    """One record's worth of work: how to compute it and where it is cached.

    ``ordinal`` is the unit's position in its whole grid: it decides shard
    ownership and is the chaos ``"unit"`` key, so it depends on the grid
    alone, never on cache state.  ``path`` is the cache file (the digest of
    the unit's payload; ``None`` runs uncached), ``required_keys`` the keys
    a cached record must carry to count as a hit, and ``compute`` returns
    the record.  ``tags`` name the unit in progress events and errors
    (e.g. ``(("point_index", 2), ("chunk_index", 0))``).
    ``book_seconds`` maps the unit's measured wall time to the seconds
    booked for it in ``unit-done`` events, the ETA and
    :attr:`SweepReport.unit_seconds`; it is called in the parent process
    once the unit is done (``None``: the measured time).  Units that share
    one computation use it to book each its share.
    """

    ordinal: int
    compute: Callable[[], dict]
    path: Optional[Path] = None
    required_keys: Tuple[str, ...] = ()
    tags: Tuple[Tuple[str, object], ...] = ()
    book_seconds: Optional[Callable[[float], float]] = None

    def labels(self) -> dict:
        """The unit's ordinal, tags and one-line name, for events."""

        name = ", ".join(f"{key} {value}" for key, value in self.tags)
        return {"ordinal": self.ordinal, **dict(self.tags),
                "unit": f"{self.ordinal} ({name})" if name else str(self.ordinal)}


# ----------------------------------------------------------------------
# Generic work-stealing process pool with crash recovery
# ----------------------------------------------------------------------
@dataclasses.dataclass
class TaskResult:
    """Outcome of one pooled task: its value or its final error.

    ``error`` is a human-readable string.  ``failure_kind`` classifies the
    *last* failed attempt: ``"poisoned"`` (the task raised), ``"crashed"``
    (its worker died) or ``"hung"`` (its worker was killed by the
    watchdog).
    """

    value: object = None
    error: Optional[str] = None
    attempts: int = 0
    seconds: float = 0.0
    failure_kind: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _safe_progress(progress: Optional[Callable[[dict], None]]
                   ) -> Optional[Callable[[dict], None]]:
    """Guard around a user progress callback.

    A raising callback must never take down the sweep it is observing: the
    first exception is reported once (with traceback) and the callback is
    disabled for the remainder of the run.
    """

    if progress is None:
        return None
    disabled = False

    def guarded(event: dict) -> None:
        nonlocal disabled
        if disabled:
            return
        try:
            progress(event)
        except Exception:
            disabled = True
            logger.exception(
                "progress callback raised; disabling further progress events")

    return guarded


#: Task callable handed to forked workers via copy-on-write memory (set
#: immediately before the fork, cleared after; never pickled).
_TASK_FN: Optional[Callable[[int], object]] = None


class _WorkerChannel:
    """One worker's result pipe with synchronous, crash-safe sends.

    ``Connection.send`` pickles and writes the whole message before
    returning, so a worker that dies immediately after reporting cannot
    lose the message -- pipe buffers outlive their writer, and
    ``multiprocessing.Queue``'s asynchronous feeder thread would drop it,
    breaking crash attribution.  Each worker owns its *own* pipe: a worker
    killed mid-send (watchdog ``SIGKILL`` can land at any instant) can only
    truncate its own stream, which the parent reads as EOF and moves past
    -- it can never wedge its siblings behind a shared channel lock.  The
    in-process lock only serialises the worker's main thread against its
    heartbeat thread.
    """

    def __init__(self, context) -> None:
        self.reader, self._writer = context.Pipe(duplex=False)
        self._lock = threading.Lock()

    def put(self, item) -> None:
        with self._lock:
            self._writer.send(item)

    def close_parent_end(self) -> None:
        """Drop the parent's copy of the write end (enables EOF detection)."""

        self._writer.close()

    def close(self) -> None:
        try:
            self.reader.close()
        except OSError:  # pragma: no cover - double close is fine
            pass


def _heartbeat_loop(result_queue, index: int, stop: threading.Event) -> None:
    """Emit ``("heartbeat", pid, index, elapsed)`` until ``stop`` is set.

    Runs on a daemon side-thread inside the worker so the parent can tell
    "alive but slow" from "wedged beyond even its heartbeat thread"
    (SIGSTOP, channel deadlock) -- the latter trips the stall watchdog.
    """

    start = time.monotonic()
    while not stop.wait(HEARTBEAT_INTERVAL):
        try:
            result_queue.put(("heartbeat", os.getpid(), index,
                              time.monotonic() - start))
        except Exception:  # parent gone / channel closed: nothing to report to
            return


def _pool_worker(task_queue, channel: _WorkerChannel) -> None:
    """Worker loop: steal task indices until the ``None`` sentinel arrives.

    Workers run side by side, one per core, so each runs one BLAS thread.
    """

    set_blas_threads(1)
    result_queue = channel
    while True:
        index = task_queue.get()
        if index is None:
            return
        result_queue.put(("started", os.getpid(), index))
        stop = threading.Event()
        beat = threading.Thread(
            target=_heartbeat_loop,
            args=(result_queue, index, stop), daemon=True)
        beat.start()
        start = time.perf_counter()
        try:
            value = _TASK_FN(index)
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            elapsed = time.perf_counter() - start
            stop.set()
            beat.join(timeout=1.0)
            result_queue.put(("failed", os.getpid(), index,
                              f"{type(exc).__name__}: {exc}", elapsed))
        except BaseException:
            # KeyboardInterrupt / SystemExit: die visibly -- the parent
            # detects the dead worker and re-queues the task.
            raise
        else:
            elapsed = time.perf_counter() - start
            stop.set()
            beat.join(timeout=1.0)
            result_queue.put(("done", os.getpid(), index, value, elapsed))


def _stop_process(process) -> None:
    """Stop ``process`` for sure: SIGTERM, then escalate to SIGKILL.

    A worker that ignores (or is too wedged to service) SIGTERM must not be
    able to stall teardown or the watchdog: after one second the kill is
    escalated to an uncatchable SIGKILL with its own bounded join.
    """

    process.terminate()
    process.join(timeout=1.0)
    if process.is_alive():
        process.kill()
        process.join(timeout=5.0)


@dataclasses.dataclass
class _PoolState:
    """Mutable bookkeeping shared by the pool's message/watchdog handlers."""

    results: List[TaskResult]
    pending: set
    task_queue: object
    max_attempts: int
    progress: Optional[Callable[[dict], None]]
    num_tasks: int
    in_flight: Dict[int, int] = dataclasses.field(default_factory=dict)
    task_started: Dict[int, float] = dataclasses.field(default_factory=dict)
    last_beat: Dict[int, float] = dataclasses.field(default_factory=dict)
    deferred: List[Tuple[float, int]] = dataclasses.field(default_factory=list)

    def forget_worker(self, pid: int) -> Optional[int]:
        self.task_started.pop(pid, None)
        self.last_beat.pop(pid, None)
        return self.in_flight.pop(pid, None)

    def requeue(self, index: int) -> Optional[float]:
        """Schedule a retry of ``index`` with exponential backoff.

        Returns the backoff delay, or ``None`` when attempts are exhausted
        (the task is then retired as failed; the caller decides what a
        failure means).
        """

        result = self.results[index]
        if result.attempts >= self.max_attempts:
            self.pending.discard(index)
            return None
        delay = _retry_delay(result.attempts)
        heapq.heappush(self.deferred, (time.monotonic() + delay, index))
        return delay

    def release_deferred(self) -> None:
        now = time.monotonic()
        while self.deferred and self.deferred[0][0] <= now:
            _, index = heapq.heappop(self.deferred)
            if index in self.pending:
                self.task_queue.put(index)


def run_tasks(num_tasks: int, fn: Callable[[int], object], *,
              workers: int = 1, max_attempts: int = UNIT_ATTEMPTS,
              progress: Optional[Callable[[dict], None]] = None,
              task_timeout: Optional[float] = None) -> List[TaskResult]:
    """Run ``fn(0..num_tasks-1)`` on a crash- and hang-tolerant pool.

    Task indices are placed on a shared queue; ``workers`` forked processes
    pull from it as they become idle, so long tasks never serialise behind
    short ones.  A task that raises is re-queued (and may land on any
    worker) until it succeeds or ``max_attempts`` is exhausted; a worker
    that dies mid-task is detected, its task re-queued and a replacement
    process forked.  Results are returned in task order; failures are
    recorded per task, never raised -- callers decide the policy.

    **Hang tolerance.**  While a task runs its worker emits heartbeats on
    the results channel every :data:`HEARTBEAT_INTERVAL` seconds.  A worker
    is killed (SIGTERM escalating to SIGKILL) and replaced in only three
    cases: its task runs past ``task_timeout`` (``None``: no deadline), its
    heartbeats stall for :data:`STALL_TIMEOUT` seconds (a process wedged
    beyond even its heartbeat thread), or it dies.  A busy loop in Python
    keeps heartbeating, so only ``task_timeout`` catches one.  The killed
    task is re-queued like a crashed one.  Every retry (exception, crash
    or hang) waits ``RETRY_BACKOFF x 2^(attempt-1)`` seconds before
    re-entering the queue, so a unit that keeps wedging cannot monopolise
    the pool.
    Timings, not arithmetic: none of these constants can change task
    results.

    ``fn`` is installed in a module global before the fork, so workers
    inherit it (and anything it closes over, e.g. a trained model) through
    copy-on-write memory; only integer indices and result payloads travel
    through the queues.  Any state warmed in the parent *before* this call
    -- notably a :class:`~repro.snn.inference.PlanCache` holding the
    lowered inference plan -- is likewise inherited by every worker, and
    because **replacement workers are forked from the same parent**, a
    worker spawned after a crash starts with the warmed cache too; no
    worker ever re-lowers a plan the parent already lowered.  Falls back
    to in-process execution (same retry semantics) when ``workers <= 1``,
    when there is a single task, or on platforms without the ``fork``
    start method.
    """

    results = [TaskResult() for _ in range(num_tasks)]
    if num_tasks <= 0:
        return results
    progress = _safe_progress(progress)
    context = None
    if workers > 1 and num_tasks > 1:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = None
    if context is None:
        _run_tasks_inline(results, fn, max_attempts=max_attempts,
                          progress=progress)
        return results

    global _TASK_FN
    _TASK_FN = fn
    task_queue = context.Queue()
    pending = set(range(num_tasks))
    for index in range(num_tasks):
        task_queue.put(index)
    pool_size = min(workers, num_tasks)

    def spawn() -> Tuple[object, _WorkerChannel]:
        channel = _WorkerChannel(context)
        process = context.Process(
            target=_pool_worker,
            args=(task_queue, channel), daemon=True)
        process.start()
        channel.close_parent_end()
        return process, channel

    state = _PoolState(results=results, pending=pending, task_queue=task_queue,
                       max_attempts=max_attempts, progress=progress,
                       num_tasks=num_tasks)
    processes: List[Optional[object]] = []
    channels: List[Optional[_WorkerChannel]] = []
    for _ in range(pool_size):
        process, channel = spawn()
        processes.append(process)
        channels.append(channel)

    def retire(slot: int) -> None:
        """Replace the worker in ``slot`` (or close it when work is done)."""

        channels[slot].close()
        if pending:
            processes[slot], channels[slot] = spawn()
        else:
            processes[slot], channels[slot] = None, None

    last_check = time.monotonic()
    try:
        while pending:
            state.release_deferred()
            readers = [channel.reader for channel in channels
                       if channel is not None]
            for reader in (multiprocessing.connection.wait(readers, timeout=0.05)
                           if readers else ()):
                _drain_reader(reader, state)
            # Watchdog + liveness sweep on a timer, not on queue idleness:
            # a steady heartbeat stream must never starve hang detection.
            now = time.monotonic()
            if now - last_check < 0.1:
                continue
            last_check = now
            for slot, process in enumerate(processes):
                if process is None:
                    continue
                if not process.is_alive():
                    process.join()
                    # Drain first: a "done" sent just before death must not
                    # be misclassified as a crash of that task.
                    _drain_reader(channels[slot].reader, state)
                    _handle_worker_crash(process, state)
                    retire(slot)
                    continue
                reason = _hang_reason(state, process.pid, now, task_timeout)
                if reason is not None:
                    # Drain and re-check: a completion racing the deadline
                    # wins -- never kill a worker over delivered work.
                    _drain_reader(channels[slot].reader, state)
                    reason = _hang_reason(state, process.pid, time.monotonic(),
                                          task_timeout)
                if reason is not None:
                    _handle_worker_hang(process, state, reason)
                    retire(slot)
    finally:
        _TASK_FN = None
        for process in processes:
            if process is not None and process.is_alive():
                task_queue.put(None)
        shutdown_deadline = time.monotonic() + 5.0
        for slot, process in enumerate(processes):
            if process is None:
                continue
            process.join(timeout=max(0.0, shutdown_deadline - time.monotonic()))
            if process.is_alive():  # pragma: no cover - defensive shutdown
                # SIGTERM escalating to SIGKILL: teardown must never hang
                # behind a worker that ignores the polite signal.
                _stop_process(process)
            if channels[slot] is not None:
                channels[slot].close()
        task_queue.close()
    return results


def _drain_reader(reader, state: _PoolState) -> None:
    """Handle every message already buffered on one worker's pipe.

    EOF / truncated trailing bytes (the worker died or was killed mid-send)
    end the drain quietly -- the liveness sweep owns dead-worker handling.
    """

    while True:
        try:
            if not reader.poll(0):
                return
            message = reader.recv()
        except (EOFError, OSError):
            return
        _handle_pool_message(message, state)


def _hang_reason(state: _PoolState, pid: int, now: float,
                 deadline: Optional[float]) -> Optional[str]:
    """Why worker ``pid`` should be treated as hung (None = healthy)."""

    index = state.in_flight.get(pid)
    started = state.task_started.get(pid)
    if index is None or started is None:
        return None
    elapsed = now - started
    if deadline is not None and elapsed > deadline:
        return (f"task {index} exceeded the {deadline:.2f}s soft deadline "
                f"(ran {elapsed:.2f}s)")
    beat_age = now - max(state.last_beat.get(pid, started), started)
    if beat_age > STALL_TIMEOUT:
        return (f"task {index} heartbeats stalled for {beat_age:.2f}s "
                f"(limit {STALL_TIMEOUT:.2f}s)")
    return None


def _run_tasks_inline(results: List[TaskResult], fn: Callable[[int], object], *,
                      max_attempts: int,
                      progress: Optional[Callable[[dict], None]]) -> None:
    """Serial fallback with the pool's retry-and-continue semantics.

    Timeouts cannot be enforced in-process (there is no worker to kill), but
    retries keep the pool's exponential backoff so failure behaviour stays
    comparable across both paths.  Each unit runs on one OpenBLAS thread,
    as in a pool worker, so its bits do not depend on the worker count;
    the caller's thread count is restored afterwards.
    """

    for index in range(len(results)):
        result = results[index]
        while result.attempts < max_attempts:
            if result.attempts:
                time.sleep(_retry_delay(result.attempts))
            result.attempts += 1
            start = time.perf_counter()
            try:
                with one_blas_thread():
                    result.value = fn(index)
            except Exception as exc:  # noqa: BLE001 - collected per task
                # KeyboardInterrupt / SystemExit propagate: an interrupted
                # serial sweep stops immediately (finished tasks are already
                # cached, so a re-run resumes).
                result.error = f"{type(exc).__name__}: {exc}"
                result.failure_kind = "poisoned"
                result.seconds = time.perf_counter() - start
                delay = (_retry_delay(result.attempts)
                         if result.attempts < max_attempts else None)
                _emit(progress, kind="task-failed", index=index,
                      attempt=result.attempts, error=result.error,
                      reason="poisoned", retry_delay=delay)
            else:
                result.error = None
                result.failure_kind = None
                result.seconds = time.perf_counter() - start
                _emit(progress, kind="task-done", index=index,
                      attempt=result.attempts, seconds=result.seconds)
                break


def _emit(progress: Optional[Callable[[dict], None]], **event) -> None:
    if progress is not None:
        progress(event)


def _handle_pool_message(message: tuple, state: _PoolState) -> None:
    kind, pid, index = message[0], message[1], message[2]
    now = time.monotonic()
    if kind == "heartbeat":
        state.last_beat[pid] = now
        return
    if kind == "started":
        if index in state.pending:
            state.in_flight[pid] = index
            state.task_started[pid] = now
            state.last_beat[pid] = now
            state.results[index].attempts += 1
        return
    state.forget_worker(pid)
    if index not in state.pending:
        return  # duplicate delivery after a defensive re-queue
    result = state.results[index]
    if kind == "done":
        _, _, _, value, seconds = message
        result.value, result.error, result.seconds = value, None, seconds
        result.failure_kind = None
        state.pending.discard(index)
        _emit(state.progress, kind="task-done", index=index,
              attempt=result.attempts, seconds=seconds,
              completed=state.num_tasks - len(state.pending),
              total=state.num_tasks)
    elif kind == "failed":
        _, _, _, result.error, result.seconds = message
        result.failure_kind = "poisoned"
        delay = state.requeue(index)
        _emit(state.progress, kind="task-failed", index=index,
              attempt=result.attempts, error=result.error, reason="poisoned",
              retry_delay=delay)


def _handle_worker_crash(process, state: _PoolState) -> None:
    index = state.forget_worker(process.pid)
    logger.warning("worker %s died (exit %s) while running task %s",
                   process.pid, process.exitcode, index)
    delay = None
    if index is not None and index in state.pending:
        result = state.results[index]
        result.error = f"worker died (exit {process.exitcode})"
        result.failure_kind = "crashed"
        delay = state.requeue(index)
    elif index is None:
        # The worker died between dequeuing a task and announcing it: the
        # task vanished from the queue without a trace.  Re-queue every
        # unresolved task not known to be running; duplicates are harmless
        # because completed indices are ignored on delivery.
        for orphan in sorted(state.pending - set(state.in_flight.values())):
            state.task_queue.put(orphan)
    _emit(state.progress, kind="worker-crash", pid=process.pid,
          exitcode=process.exitcode, index=index, reason="crashed",
          retry_delay=delay)


def _handle_worker_hang(process, state: _PoolState, reason: str) -> None:
    """Kill a wedged worker and reschedule its task like a crashed one."""

    pid = process.pid
    index = state.forget_worker(pid)
    logger.warning("worker %s judged hung (%s); killing and replacing it",
                   pid, reason)
    _stop_process(process)
    delay = None
    attempt = None
    if index is not None and index in state.pending:
        result = state.results[index]
        result.error = f"worker hung: {reason}"
        result.failure_kind = "hung"
        attempt = result.attempts
        delay = state.requeue(index)
    _emit(state.progress, kind="worker-hung", pid=pid, index=index,
          attempt=attempt, error=reason, reason="hung", retry_delay=delay)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclasses.dataclass
class SweepReport:
    """Structured progress/outcome report of one orchestrator run.

    ``owned_units`` counts this shard's units, ``cached_units`` every unit
    answered from disk (other shards' records included) and
    ``computed_units`` the units this run computed.  ``unit_seconds`` holds
    their wall-clock times (keyed by ordinal); ``retries`` counts every
    extra attempt beyond the first, whether caused by an exception or a
    dead worker.

    **Failure taxonomy.**  Every recovery action is attributed to a class
    and tallied: ``poisoned`` (a unit raised), ``crashed`` (a worker died
    mid-unit), ``hung`` (the watchdog killed a wedged worker),
    ``cache_corrupt`` (a damaged cache entry was quarantined and the unit
    recomputed) and ``store_degraded`` (a record could not be written --
    e.g. ``ENOSPC`` -- and the run continued uncached).  ``events``
    preserves the individual occurrences (dicts with at least ``kind`` and,
    where known, ``ordinal``); ``quarantined`` lists unit ordinals retired
    after exhausting :data:`UNIT_ATTEMPTS`.
    """

    total_units: int = 0
    owned_units: int = 0
    cached_units: int = 0
    computed_units: int = 0
    failed_units: List[Tuple[int, str]] = dataclasses.field(default_factory=list)
    retries: int = 0
    elapsed_seconds: float = 0.0
    unit_seconds: Dict[int, float] = dataclasses.field(default_factory=dict)
    poisoned: int = 0
    crashed: int = 0
    hung: int = 0
    cache_corrupt: int = 0
    store_degraded: int = 0
    quarantined: List[int] = dataclasses.field(default_factory=list)
    events: List[dict] = dataclasses.field(default_factory=list)

    def record_event(self, event: dict) -> None:
        """Tally ``event`` into the taxonomy counters and keep it."""

        kind = event.get("kind", "")
        reason = event.get("reason")
        if reason == "poisoned":
            self.poisoned += 1
        elif reason == "crashed":
            self.crashed += 1
        elif reason == "hung":
            self.hung += 1
        elif kind == "cache-corrupt":
            self.cache_corrupt += 1
        elif kind == "store-degraded":
            self.store_degraded += 1
        self.events.append(dict(event))

    def summary(self) -> dict:
        """Flat JSON-friendly summary (suitable for logs and tables)."""

        computed = [self.unit_seconds[key] for key in sorted(self.unit_seconds)]
        return {
            "total_units": self.total_units,
            "owned_units": self.owned_units,
            "cached_units": self.cached_units,
            "computed_units": self.computed_units,
            "failed_units": len(self.failed_units),
            "retries": self.retries,
            "elapsed_seconds": self.elapsed_seconds,
            "mean_unit_seconds": (sum(computed) / len(computed)) if computed else 0.0,
            "poisoned": self.poisoned,
            "crashed": self.crashed,
            "hung": self.hung,
            "cache_corrupt": self.cache_corrupt,
            "store_degraded": self.store_degraded,
            "quarantined": list(self.quarantined),
        }


class PendingShardError(RuntimeError):
    """A sharded run finished its own units but other shards' are missing.

    Raised by :meth:`CampaignRunner.run` and
    :func:`repro.experiments.retrain_cells` when the records cannot be
    assembled yet; ``pending`` lists the indices of the missing records
    (sweep points or retraining cells).  Run the remaining shards against
    the same cache directory, then re-run (any shard, or no shard at all)
    to merge purely from disk.
    """

    def __init__(self, pending: Sequence[int], report: Optional[SweepReport] = None):
        self.pending = list(pending)
        self.report = report
        super().__init__(
            f"{len(self.pending)} record(s) still pending other shards: "
            f"{self.pending}")


@dataclasses.dataclass
class OrchestratorResult:
    """Outcome of a run: ``records`` aligned with the input (units, or a
    sweep's points), ``None`` where other shards have not stored a record
    yet; ``pending`` lists those indices."""

    records: List[Optional[dict]]
    pending: List[int]
    report: SweepReport

    @property
    def complete(self) -> bool:
        return not self.pending


# ----------------------------------------------------------------------
# Orchestrator
# ----------------------------------------------------------------------
class CampaignOrchestrator:
    """Run a list of work units: cache, shard, pool, retry and report.

    ``workers`` is the number of worker processes pulling from the shared
    unit queue (1 executes in-process), ``shard`` this orchestrator's
    round-robin share of the unit ordinals, ``unit_timeout`` the watchdog's
    per-unit soft deadline (``None``: none; see :func:`run_tasks` for the
    three kill rules) and ``progress`` a callable receiving
    structured event dicts -- ``unit-done`` / ``unit-failed`` /
    ``worker-crash`` / ``worker-hung`` / ``cache-corrupt`` /
    ``store-degraded``, labelled with the unit's ordinal, tags and name --
    with per-unit timing and an ETA estimate, in the parent process only;
    a raising callback is reported once and disabled.  Anything a unit's
    ``compute`` closes over (a trained model, a loader) is inherited by
    forked workers through copy-on-write memory.
    """

    def __init__(self, *, workers: int = 1, shard=None,
                 unit_timeout: Optional[float] = None,
                 progress: Optional[Callable[[dict], None]] = None) -> None:
        self.workers = int(workers)
        self.shard = None if shard is None else ShardSpec.parse(shard)
        self.unit_timeout = unit_timeout
        self.progress = _safe_progress(progress)

    # ------------------------------------------------------------------
    # Unit evaluation (runs inside workers)
    # ------------------------------------------------------------------
    def _compute_unit(self, unit: WorkUnit) -> Tuple[str, dict, List[dict]]:
        """Compute one unit, cooperating with concurrent orchestrators.

        Re-checks the cache immediately before computing: on a shared
        filesystem another orchestrator may have stored the record since
        this run planned the unit, in which case it is adopted.  A damaged
        cache entry is quarantined and the unit recomputed; a failed store
        degrades to an uncached record.  Either incident is returned as a
        picklable event dict (third element) so the parent can attribute
        it in the :class:`SweepReport` -- this method runs inside workers,
        where the report does not live.
        """

        from ..testing.chaos import active_plan

        events: List[dict] = []

        def note(event: dict) -> None:
            events.append(dict(event, **unit.labels()))

        plan = active_plan()
        if plan is not None:
            plan.consult("unit", key=unit.ordinal)
        record = load_cached_record(unit.path, required_keys=unit.required_keys,
                                    on_event=note)
        if record is not None:
            return "cached", record, events
        record = unit.compute()
        if unit.path is not None:
            store_record_safe(record, unit.path, on_event=note)
        return "computed", record, events

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _note_event(self, report: SweepReport, event: dict) -> None:
        """Attribute ``event`` in the report and forward it to progress."""

        report.record_event(event)
        if self.progress is not None:
            self.progress(dict(event))

    def run(self, units: Sequence[WorkUnit]) -> OrchestratorResult:
        """Records of ``units`` (this shard's share computed), in unit order.

        Owned units are answered from the cache or computed; afterwards
        the records of other shards' units are read from disk, and those
        still missing are ``None`` and listed in ``pending``.  Units that
        fail after :data:`UNIT_ATTEMPTS` raise a ``RuntimeError`` -- after
        every other unit has finished and been cached, so no work is lost.
        """

        start = time.monotonic()
        units = list(units)
        report = SweepReport(total_units=len(units))
        records: List[Optional[dict]] = [None] * len(units)
        owned = [self.shard is None or self.shard.owns(unit.ordinal)
                 for unit in units]
        report.owned_units = sum(owned)

        def load(index: int) -> None:
            unit = units[index]
            records[index] = load_cached_record(
                unit.path, required_keys=unit.required_keys,
                on_event=lambda event: self._note_event(
                    report, dict(event, **unit.labels())))
            report.cached_units += records[index] is not None

        for index in range(len(units)):
            if owned[index]:
                load(index)
        to_compute = [index for index in range(len(units))
                      if owned[index] and records[index] is None]
        self._execute(units, to_compute, records, report)
        for index in range(len(units)):
            if not owned[index]:  # another shard's unit: read its record
                load(index)

        failures = report.failed_units
        report.quarantined = sorted(ordinal for ordinal, _ in failures)
        report.elapsed_seconds = time.monotonic() - start
        logger.info("orchestrated run: %s", report.summary())
        if failures:
            names = {unit.ordinal: unit.labels()["unit"] for unit in units}
            detail = "; ".join(f"unit {names[ordinal]}: {error}"
                               for ordinal, error in failures)
            raise RuntimeError(
                f"{len(failures)} work unit(s) failed after "
                f"{UNIT_ATTEMPTS} attempt(s): {detail}")
        pending = [index for index, record in enumerate(records)
                   if record is None]
        return OrchestratorResult(records=records, pending=pending, report=report)

    def _execute(self, units: Sequence[WorkUnit], indices: List[int],
                 records: List[Optional[dict]], report: SweepReport) -> None:
        """Run ``units[indices]`` on the pool; fill ``records[indices]``."""

        if not indices:
            return
        to_compute = [units[index] for index in indices]
        seconds_seen: List[float] = []
        booked: Dict[int, float] = {}

        def forward_progress(event: dict) -> None:
            kind = event.get("kind", "")
            index = event.get("index")
            if kind.startswith("task") or index is not None:
                # Translate pool task indices into unit labels -- both for
                # unit events and for worker-crash/worker-hung events that
                # name the task the dead worker was running.
                event = dict(event, kind=kind.replace("task", "unit"))
                if index is not None:
                    event.update(to_compute[index].labels())
                event.pop("index", None)
                if kind == "task-done" and event.get("seconds") is not None:
                    unit = to_compute[index]
                    if unit.book_seconds is not None:
                        event["seconds"] = unit.book_seconds(event["seconds"])
                    booked[unit.ordinal] = event["seconds"]
                    seconds_seen.append(event["seconds"])
                    remaining = len(to_compute) - len(seconds_seen)
                    average = sum(seconds_seen) / len(seconds_seen)
                    event["eta_seconds"] = (remaining * average
                                            / max(1, min(self.workers,
                                                         len(to_compute))))
            if event.get("reason") in ("poisoned", "crashed", "hung"):
                report.record_event(event)
            if self.progress is not None:
                self.progress(event)

        results = run_tasks(
            len(to_compute), lambda index: self._compute_unit(to_compute[index]),
            workers=self.workers, progress=forward_progress,
            task_timeout=self.unit_timeout)

        for unit, index, result in zip(to_compute, indices, results):
            report.retries += max(0, result.attempts - 1)
            if not result.ok:
                report.failed_units.append((unit.ordinal, result.error))
                continue
            status, record, events = result.value
            for event in events:
                self._note_event(report, event)
            records[index] = record
            if status == "cached":
                report.cached_units += 1
            else:
                report.computed_units += 1
                report.unit_seconds[unit.ordinal] = booked.get(unit.ordinal,
                                                               result.seconds)
