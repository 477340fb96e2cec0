"""Fault-injection campaign engine.

The paper's headline results (Fig. 5 vulnerability sweeps, Fig. 7 mitigation
comparison) are *campaigns*: the same trained SNN evaluated under dozens of
fault maps x bit positions x trials.  This module turns that grid into an
explicit object model:

* :class:`CampaignPoint` -- one grid point: array geometry, fault count, bit
  position, stuck-at polarity and the exact per-trial fault-map seeds (derived
  deterministically via :func:`repro.utils.rng.derive_seed`, which is stable
  across processes).
* :class:`CampaignRunner` -- evaluates points against a trained model.  The
  default ``"fused"`` engine lowers the model to the no-autograd inference
  plan (:class:`repro.snn.inference.FusedFaultEngine`): all of a point's
  fault maps run in one vectorised pass with fused elementwise kernels and
  clean-prefix sharing across maps that have not yet diverged.  The
  ``"sequential"`` engine is the one-autograd-inference-per-map oracle;
  both produce bit-identical float64 records.
  Results are cached on disk as JSON keyed by (model key, data hash, grid
  point); a cache hit skips the simulation entirely.

Every sweep runs on :mod:`repro.faults.orchestrator`: the runner
decomposes the grid into (point, trial-chunk) work units, run in-process
with one worker or on a crash-tolerant work-stealing pool with more, with
the cache keys doubling as the resume and multi-machine coordination
protocol.  With one worker the units of a geometry share multi-map passes.
Per-map accuracies do not depend on the pass, so records are
byte-identical at every worker count, shard split and trial chunk.

The Fig. 5 sweep drivers in :mod:`repro.faults.analysis` and the experiment
runners in :mod:`repro.experiments` are thin wrappers over this engine: they
forward their campaign options unchanged as ``**runner_options``, so
:class:`CampaignRunner`'s keyword signature is the one definition of those
options (the orchestrator reads its options off the runner).
:func:`check_runner_options` is their one validation: the runner calls it
first, and the CLI and :func:`repro.experiments.run_scenario` call it
before they train a baseline, so bad options fail fast with every problem
listed.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import json
import math
import numbers
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..snn.training import evaluate
from ..systolic.fixed_point import DEFAULT_ACCUMULATOR_FORMAT, FixedPointFormat
from ..utils.hashing import loader_token, model_key, model_token
from ..utils.logging import get_logger
from ..utils.rng import get_rng
from ..utils.serialization import load_records, save_records
from .fault_map import (SCHEDULE_PROCESSES, FaultMap, FaultSchedule,
                        random_fault_map, random_weight_fault_map,
                        schedule_from_process)
from .fault_model import StuckAtType
from .injection import (BYPASS_OF_TRANSIENT, ENGINES, _engine_problems,
                        evaluate_with_faults)

__all__ = [
    "CampaignPoint",
    "CampaignRunner",
    "ENGINES",
    "FAULT_MODELS",
    "RUNNER_OPTIONS",
    "SweepChunk",
    "cache_path",
    "check_runner_options",
    "load_cached_record",
    "plan_sweep_chunks",
    "store_record_safe",
    "transient_param_problems",
]

logger = get_logger("faults.campaign")

#: Fault models a grid point can carry: permanent datapath stuck-at (the
#: paper's model), weight-SRAM stuck-at, or per-time-step transient
#: schedules.  Stuck-at points keep their historic cache keys; the other
#: models add ``fault_model``/``fault_params`` to the key payload.
FAULT_MODELS = ("stuck_at", "sram", "transient")

#: fault_params keys accepted on a transient point (forwarded to
#: :func:`repro.faults.fault_map.schedule_from_process`).
_TRANSIENT_PARAM_KEYS = ("process", "num_steps", "rate", "burst_length",
                         "cluster_size", "high_order_bits")


def _is_integer(value) -> bool:
    """True for an integer (numpy's included), false for a bool or a float."""

    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _pairs(value, field: str, problems: List[str]) -> Tuple[Tuple[str, object], ...]:
    """``value`` (an object or a list of key/value pairs) as sorted pairs.

    A value of any other shape, or a key given twice, adds to ``problems``
    and yields no pairs.
    """

    items = list(value.items()) if isinstance(value, dict) else value
    if isinstance(items, (list, tuple)) and all(
            isinstance(item, (list, tuple)) and len(item) == 2 for item in items):
        pairs = {str(key): item for key, item in items}
        if len(pairs) == len(items):
            return tuple(sorted(pairs.items()))
    problems.append(f"'{field}' must be an object or a list of [key, value] "
                    f"pairs with distinct keys")
    return ()


def transient_param_problems(params: Dict[str, object], *,
                             need_steps: bool) -> List[str]:
    """What :func:`~repro.faults.fault_map.schedule_from_process` would
    reject in a transient ``fault_params`` mapping, one message per problem.

    ``need_steps`` requires ``num_steps``; a scenario leaves it out and
    resolves it from the dataset config's ``time_steps``.
    """

    problems: List[str] = []
    unknown = [key for key in params if key not in _TRANSIENT_PARAM_KEYS]
    if unknown:
        problems.append(f"unknown transient fault_params key(s) {unknown}; "
                        f"options: {_TRANSIENT_PARAM_KEYS}")
    process = params.get("process", "bernoulli")
    if not (isinstance(process, str) and process in SCHEDULE_PROCESSES):
        problems.append(f"unknown schedule process {process!r}; "
                        f"options: {SCHEDULE_PROCESSES}")
    rate = params.get("rate", 0.5)
    if not (isinstance(rate, numbers.Real) and not isinstance(rate, bool)
            and 0.0 <= rate <= 1.0):
        problems.append(f"transient 'rate' must be a number in [0, 1], got {rate!r}")
    if need_steps and "num_steps" not in params:
        problems.append("transient points need a positive 'num_steps' in "
                        "fault_params (the schedule must cover the model's "
                        "time steps)")
    for key in ("num_steps", "burst_length", "cluster_size", "high_order_bits"):
        if key in params and not (_is_integer(params[key]) and params[key] >= 1):
            problems.append(f"transient '{key}' must be a positive integer, "
                            f"got {params[key]!r}")
    return problems


#: Cache layout version; bump when record contents change incompatibly.
_CACHE_VERSION = 1

#: Upper bound on how many fault maps one multi-map pass of a serial sweep
#: carries (work units are never split).  Fork lanes run one after another
#: on one kernel set, so a pass's activation memory does not grow with its
#: maps.  What still grows is each map's fault array and prepared runners,
#: and the units of a pass get their records only when the whole pass ends.
MAX_MAPS_PER_PASS = 128


# ----------------------------------------------------------------------
# Grid points
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class CampaignPoint:
    """One point of a fault-injection sweep grid.

    ``map_seeds`` pins one seed per trial; together with the geometry and
    fault parameters it fully determines the fault maps, so a point is both
    reproducible and cacheable.
    """

    rows: int
    cols: int
    num_faulty: int
    map_seeds: Tuple[int, ...]
    bit_position: Optional[int] = None
    stuck_type: str = "sa1"
    label: str = ""
    dataset: str = ""
    fault_model: str = "stuck_at"
    fault_params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        problems: List[str] = []
        for name in ("rows", "cols"):
            if not (_is_integer(getattr(self, name)) and getattr(self, name) > 0):
                problems.append(f"'{name}' must be a positive integer")
        if not (_is_integer(self.num_faulty) and self.num_faulty >= 0):
            problems.append("'num_faulty' must be a non-negative integer")
        elif not problems and self.num_faulty > self.rows * self.cols:
            problems.append(f"cannot place {self.num_faulty} faults in a "
                            f"{self.rows}x{self.cols} array")
        seeds = self.map_seeds
        if (isinstance(seeds, (list, tuple)) and seeds
                and all(_is_integer(s) and s >= 0 for s in seeds)):
            object.__setattr__(self, "map_seeds", tuple(int(s) for s in seeds))
        else:
            problems.append("'map_seeds' must be a non-empty list of "
                            "non-negative integer trial seeds")
        if self.bit_position is not None and not (
                _is_integer(self.bit_position) and self.bit_position >= 0):
            problems.append("'bit_position' must be a non-negative integer when given")
        try:
            object.__setattr__(self, "stuck_type",
                               StuckAtType.from_value(self.stuck_type).short_name)
        except (TypeError, ValueError) as exc:
            problems.append(f"'stuck_type': {exc}")
        for name in ("label", "dataset"):
            if not isinstance(getattr(self, name), str):
                problems.append(f"'{name}' must be a string")
        if self.fault_model not in FAULT_MODELS:
            problems.append(f"unknown 'fault_model' {self.fault_model!r}; "
                            f"options: {FAULT_MODELS}")
        normalized = _pairs(self.fault_params, "fault_params", problems)
        if self.fault_model == "transient":
            problems.extend(transient_param_problems(dict(normalized),
                                                     need_steps=True))
        elif normalized:
            problems.append(
                f"fault_params are only meaningful for transient points, "
                f"not fault_model={self.fault_model!r}")
        object.__setattr__(self, "fault_params", normalized)
        if problems:
            raise ValueError("invalid campaign point: " + "; ".join(problems))

    @property
    def trials(self) -> int:
        return len(self.map_seeds)

    @classmethod
    def for_trials(cls, rows: int, cols: int, num_faulty: int, trials: int, *,
                   bit_position: Optional[int] = None,
                   stuck_type: Union[StuckAtType, int, str] = "sa1",
                   seed=None, label: str = "", dataset: str = "",
                   fault_model: str = "stuck_at",
                   fault_params=()) -> "CampaignPoint":
        """Expand one base seed into per-trial map seeds.

        ``get_rng(seed)`` draws one 63-bit seed per trial;
        :meth:`build_fault_maps` and :meth:`build_schedules` build trial
        ``i`` under ``map_seeds[i]``.
        """

        if trials <= 0:
            raise ValueError("trials must be positive")
        base = get_rng(seed)
        seeds = tuple(int(s) for s in base.integers(0, 2**63 - 1, size=trials))
        return cls(rows=rows, cols=cols, num_faulty=num_faulty, map_seeds=seeds,
                   bit_position=bit_position,
                   stuck_type=StuckAtType.from_value(stuck_type).short_name,
                   label=label, dataset=dataset,
                   fault_model=fault_model, fault_params=fault_params)

    def build_fault_maps(self, fmt: FixedPointFormat = DEFAULT_ACCUMULATOR_FORMAT
                         ) -> List[FaultMap]:
        """Materialise the point's fault maps (one per trial seed)."""

        if self.fault_model == "transient":
            raise ValueError(
                "transient points materialise schedules, not fault maps; "
                "use build_schedules()")
        builder = (random_weight_fault_map if self.fault_model == "sram"
                   else random_fault_map)
        return [
            builder(self.rows, self.cols, self.num_faulty,
                    bit_position=self.bit_position,
                    stuck_type=self.stuck_type, fmt=fmt, seed=seed)
            for seed in self.map_seeds
        ]

    def build_schedules(self, fmt: FixedPointFormat = DEFAULT_ACCUMULATOR_FORMAT
                        ) -> List[FaultSchedule]:
        """Materialise a transient point's fault schedules (one per trial)."""

        if self.fault_model != "transient":
            raise ValueError(
                f"fault_model='{self.fault_model}' points materialise fault "
                "maps, not schedules; use build_fault_maps()")
        params = dict(self.fault_params)
        process = params.pop("process", "bernoulli")
        num_steps = int(params.pop("num_steps"))
        return [
            schedule_from_process(process, self.rows, self.cols,
                                  self.num_faulty, num_steps,
                                  bit_position=self.bit_position,
                                  stuck_type=self.stuck_type, fmt=fmt,
                                  seed=seed, **params)
            for seed in self.map_seeds
        ]

    def as_payload(self) -> dict:
        """JSON-stable representation used in records and cache keys."""

        payload = {
            "rows": int(self.rows),
            "cols": int(self.cols),
            "num_faulty": int(self.num_faulty),
            "map_seeds": [int(s) for s in self.map_seeds],
            "bit_position": None if self.bit_position is None else int(self.bit_position),
            "stuck_type": self.stuck_type,
            "label": self.label,
            "dataset": self.dataset,
        }
        if self.fault_model != "stuck_at":
            # Stuck-at points keep their historic cache keys (the payload
            # above is byte-identical to pre-fault-model records); only the
            # new models extend the key.
            payload["fault_model"] = self.fault_model
            payload["fault_params"] = dict(self.fault_params)
        return payload


@dataclasses.dataclass(frozen=True)
class SweepChunk:
    """One (grid point, trial chunk) piece of a sweep: one work unit.

    ``point`` is a :class:`CampaignPoint` restricted to this chunk's trial
    seeds; it is a perfectly ordinary point, so its cache key is a plain
    campaign key and an unchunked :class:`CampaignRunner` would produce (or
    consume) the identical record for it.
    """

    ordinal: int
    point_index: int
    chunk_index: int
    num_chunks: int
    point: CampaignPoint


def plan_sweep_chunks(points: Sequence[CampaignPoint],
                      trial_chunk: Optional[int] = None) -> List[SweepChunk]:
    """Decompose ``points`` into chunks of at most ``trial_chunk`` trials.

    ``trial_chunk=None`` keeps one chunk per point (chunk keys then equal
    the plain per-point campaign cache keys).  The decomposition depends
    only on the grid and ``trial_chunk`` -- never on worker count or cache
    state -- so every shard of a split sweep enumerates identical ordinals.
    """

    chunks: List[SweepChunk] = []
    for point_index, point in enumerate(points):
        seeds = point.map_seeds
        size = len(seeds) if trial_chunk is None else int(trial_chunk)
        num_chunks = max(1, math.ceil(len(seeds) / size))
        for chunk_index in range(num_chunks):
            chunk_seeds = seeds[chunk_index * size:(chunk_index + 1) * size]
            sub_point = (point if num_chunks == 1 else
                         dataclasses.replace(point, map_seeds=chunk_seeds))
            chunks.append(SweepChunk(ordinal=len(chunks), point_index=point_index,
                                     chunk_index=chunk_index, num_chunks=num_chunks,
                                     point=sub_point))
    return chunks


# ----------------------------------------------------------------------
# Record cache (shared with the retraining cells)
# ----------------------------------------------------------------------


def _digest_payload(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode("utf-8")).hexdigest()


def cache_path(cache_dir: Optional[Union[str, Path]], payload: dict) -> Optional[Path]:
    """The cache file of the record keyed by JSON-stable ``payload`` (or ``None``)."""

    if cache_dir is None:
        return None
    return Path(cache_dir) / f"{_digest_payload(payload)}.json"


#: Keys every campaign record must carry to be usable as a cache hit.
#: An entry missing any of them (schema drift, torn write that still
#: parses) is treated as damaged and quarantined.
_REQUIRED_RECORD_KEYS = ("accuracies", "accuracy", "trials")


def _quarantine_cache_entry(path: Path) -> Optional[Path]:
    """Move a damaged cache entry to a ``*.quarantined`` sidecar.

    Keeps the bytes for post-mortem inspection while freeing the key for a
    clean recompute.  Returns the sidecar path (``None`` if even the rename
    failed -- e.g. the entry vanished or the filesystem is read-only, in
    which case the caller still recomputes, it just may re-trip later).
    """

    sidecar = path.with_name(path.name + ".quarantined")
    try:
        os.replace(path, sidecar)
    except OSError:
        return None
    return sidecar


def load_cached_record(path: Optional[Path], *,
                       required_keys: Sequence[str] = (),
                       on_event: Optional[Callable[[dict], None]] = None
                       ) -> Optional[dict]:
    """Validated cache read: a damaged entry quarantines to a miss.

    Returns the parsed record, or ``None`` when ``path`` is ``None``, does
    not exist or holds a damaged entry -- unparsable JSON (truncated or garbage bytes),
    a non-dict payload, or a dict missing any of ``required_keys``.  Damaged
    entries are moved to a ``*.quarantined`` sidecar (so the key recomputes
    cleanly and the bytes survive for inspection), a warning is logged, and
    ``on_event`` (if given) receives a ``{"kind": "cache-corrupt", ...}``
    dict describing the incident.
    """

    if path is None or not Path(path).exists():
        return None
    path = Path(path)
    try:
        record = load_records(path)
    except (json.JSONDecodeError, UnicodeDecodeError, ValueError, OSError) as exc:
        detail = f"{type(exc).__name__}: {exc}"
        record = None
    else:
        if not isinstance(record, dict):
            detail = f"expected a JSON object, found {type(record).__name__}"
            record = None
        else:
            missing = [key for key in required_keys if key not in record]
            if missing:
                detail = f"missing required key(s): {', '.join(missing)}"
                record = None
    if record is not None:
        return record
    sidecar = _quarantine_cache_entry(path)
    logger.warning(
        "damaged cache entry %s (%s); quarantined to %s and recomputing",
        path.name, detail, sidecar.name if sidecar is not None else "<failed>")
    if on_event is not None:
        on_event({"kind": "cache-corrupt", "path": str(path), "detail": detail,
                  "quarantined_to": None if sidecar is None else str(sidecar)})
    return None


def _store_record(record, path: Path) -> None:
    """Write a cache record atomically (temp file + rename).

    An interrupted run must never leave a truncated JSON behind: a partial
    file would satisfy the existence check and poison every later lookup.
    The chaos harness's ``cache-store`` hook sits between the temp write
    and the rename -- exactly where a real torn write or full disk bites.
    """

    from ..testing.chaos import active_plan

    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        save_records(record, temporary)
        plan = active_plan()
        if plan is not None:
            plan.consult("cache-store", key=path.name, path=temporary)
        os.replace(temporary, path)
    except BaseException:
        try:
            os.unlink(temporary)
        except OSError:
            pass
        raise


def store_record_safe(record, path: Path, *,
                      on_event: Optional[Callable[[dict], None]] = None) -> bool:
    """Best-effort atomic store: an ``OSError`` degrades to uncached compute.

    A full disk (``ENOSPC``), a permission flip or a vanished cache mount
    must not fail a sweep that already holds the computed record in memory:
    the failure is logged once per call, reported through ``on_event`` as a
    ``{"kind": "store-degraded", ...}`` dict, and the sweep continues --
    the record is simply recomputed next run.  Returns whether the store
    succeeded.
    """

    try:
        _store_record(record, path)
    except OSError as exc:
        logger.warning(
            "could not store cache record %s (%s); continuing uncached",
            path.name, exc)
        if on_event is not None:
            on_event({"kind": "store-degraded", "path": str(path),
                      "detail": f"{type(exc).__name__}: {exc}"})
        return False
    return True


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
def unit_option_problems(values: dict) -> List[str]:
    """Every problem with the work-unit options in ``values``.

    These are the options a sweep and a retraining grid share: ``workers``,
    ``unit_timeout``, ``shard`` (parsed into a ``ShardSpec`` in place) with
    its ``cache_dir``, and ``trial_chunk`` where present.
    """

    from .orchestrator import ShardSpec

    problems = []
    if values["workers"] < 1:
        problems.append("workers must be at least 1")
    if values.get("trial_chunk") is not None and values["trial_chunk"] < 1:
        problems.append("trial_chunk must be at least 1")
    timeout = values["unit_timeout"]
    if timeout is not None and not 0 < timeout < math.inf:
        problems.append("unit_timeout must be positive and finite")
    if values["shard"] is not None:
        try:
            values["shard"] = ShardSpec.parse(values["shard"])
        except ValueError as exc:
            problems.append(f"shard: {exc}")
        if values["cache_dir"] is None:
            problems.append(
                "sharded runs need a shared cache_dir: the on-disk unit "
                "records are the only channel between shards")
    return problems


def check_runner_options(**options) -> dict:
    """Validate campaign options; return all of them.

    ``options`` are any :class:`CampaignRunner` keywords; the rest take the
    runner's defaults.  Every problem (an unknown option, an unknown
    engine, a ``dtype`` other than ``"float64"``, a ``lane_threads`` other
    than ``None`` or 1, a ``backend`` other than ``None`` or ``"numpy"``,
    or any of :func:`unit_option_problems`) is collected into one
    ``ValueError``.  The result holds ``shard`` as a ``ShardSpec``.
    """

    try:
        bound = inspect.signature(CampaignRunner).bind_partial(**options)
    except TypeError as exc:
        raise ValueError(f"invalid campaign options: {exc}") from None
    bound.apply_defaults()
    values = {name: bound.arguments[name] for name in RUNNER_OPTIONS}
    problems = _engine_problems(values["engine"])
    if values["dtype"] != "float64":
        problems.append(f"dtype must be 'float64', got {values['dtype']!r}")
    if values["lane_threads"] not in (None, 1):
        problems.append(
            f"lane_threads must be None or 1, got {values['lane_threads']!r}")
    if values["backend"] not in (None, "numpy"):
        problems.append(
            f"backend must be None or 'numpy', got {values['backend']!r}")
    problems += unit_option_problems(values)
    if problems:
        raise ValueError("invalid campaign options: " + "; ".join(problems))
    return values


class CampaignRunner:
    """Evaluate fault-injection sweep grids against one trained model.

    The keywords after ``model`` and ``loader`` are the campaign options
    (:data:`RUNNER_OPTIONS`).  Every sweep entry point -- the sweep
    drivers, the Fig. 5 runners, :func:`repro.experiments.run_scenario`
    and the CLI -- forwards them here unchanged, and the constructor
    validates them first, through :func:`check_runner_options`.

    Parameters
    ----------
    model:
        Trained :class:`~repro.snn.network.SpikingClassifier`.
    loader:
        Evaluation data loader (accuracy is measured over all its batches).
    fmt:
        Accumulator fixed-point format of the simulated arrays.
    engine:
        ``"fused"`` (default) lowers the model to the no-autograd inference
        plan and simulates all of a point's fault maps in one pass with
        clean-prefix sharing; ``"sequential"`` runs one autograd inference
        per map.  Both produce bit-identical float64 records.
    bypass:
        Enable the bypass multiplexer of faulty PEs (mitigated hardware).
    cache_dir:
        Optional directory for on-disk JSON result caching.  Keys include the
        model key (:func:`repro.utils.hashing.model_key`: its state and the
        scalars outside it, such as a fixed threshold), the data hash and
        the full grid point, so stale hits are impossible as long as those
        inputs define the result.
    workers:
        Worker processes of the
        :class:`~repro.faults.orchestrator.CampaignOrchestrator` that runs
        every sweep's (point, trial-chunk) units.  1 (default) computes
        them in-process, in multi-map passes; more pull one unit at a time
        from a work-stealing queue.  Either way units get crash retry and
        cache-key resume.
    shard:
        Optional ``"i/N"`` string or
        :class:`~repro.faults.orchestrator.ShardSpec`: run only this
        shard's round-robin share of the work units (requires
        ``cache_dir`` -- the shared filesystem coordinates the shards).
    trial_chunk:
        Maximum trials per work unit, at least 1 (``None``
        keeps one unit per point, whose cache keys equal the plain
        per-point keys).
    unit_timeout:
        Optional positive per-unit soft deadline in seconds for pooled
        sweeps (CLI: ``--unit-timeout``): a worker whose unit
        exceeds it is killed by the watchdog and the unit retried
        elsewhere.  ``None`` (default) sets no deadline: a worker is then
        killed only when its heartbeats stall or it dies, and a busy loop,
        which keeps heartbeating, runs until interrupted.  Timings only --
        it cannot change records.
    progress:
        Optional callable receiving the orchestrator's structured progress
        events (per-unit timing, retries, ETA); parent process only.
    backend:
        Kept only for the benchmark harness, which passes it; the one
        accepted values are ``None`` and ``"numpy"``.
    dtype:
        Kept only for the benchmark harness, which passes it; the one
        accepted value is ``"float64"``.
    lane_threads:
        Kept only for the benchmark harness, which passes it; the one
        accepted values are ``None`` and 1 (the engine is single-threaded).

    The fused engine reads the lowered inference plan from the
    process-wide :func:`repro.snn.inference.default_plan_cache` under the
    model token (see :meth:`warm_plan_cache` for pooled sweeps).
    """

    def __init__(self, model, loader, *,
                 fmt: FixedPointFormat = DEFAULT_ACCUMULATOR_FORMAT,
                 engine: str = "fused",
                 bypass: bool = False,
                 cache_dir: Optional[Union[str, Path]] = None,
                 workers: int = 1,
                 shard=None,
                 trial_chunk: Optional[int] = None,
                 unit_timeout: Optional[float] = None,
                 progress: Optional[Callable[[dict], None]] = None,
                 backend: Optional[str] = None,
                 dtype: str = "float64",
                 lane_threads: Optional[int] = None) -> None:
        resolved = check_runner_options(
            engine=engine, dtype=dtype, workers=workers, cache_dir=cache_dir,
            shard=shard, trial_chunk=trial_chunk, unit_timeout=unit_timeout,
            lane_threads=lane_threads, backend=backend)
        self.model = model
        self.loader = loader
        self.fmt = fmt
        self.engine = engine
        self.bypass = bool(bypass)
        self.cache_dir = None if cache_dir is None else Path(cache_dir)
        self.workers = int(workers)
        self.shard = resolved["shard"]
        self.trial_chunk = None if trial_chunk is None else int(trial_chunk)
        self.unit_timeout = None if unit_timeout is None else float(unit_timeout)
        self.progress = progress
        self._model_token = model_token(model)
        self._model_key = model_key(model, self._model_token)
        self._data_token = loader_token(loader)
        self._baseline: Optional[float] = None

    # ------------------------------------------------------------------
    def warm_plan_cache(self) -> None:
        """Lower the model into the process-wide plan cache now (fused only).

        Runs before the orchestrator forks its worker pool so every worker
        -- including replacements spawned after a crash -- inherits the
        already-lowered plan via copy-on-write instead of re-lowering per
        work unit.
        """

        if self.engine == "fused":
            from ..snn.inference import default_plan_cache

            default_plan_cache().get_plan(self.model, token=self._model_token)

    # ------------------------------------------------------------------
    def baseline_accuracy(self) -> float:
        """Fault-free accuracy of the model (cached).

        The fused engine evaluates through the lowered inference plan; its
        results are bit-identical to the autograd software forward the
        sequential engine uses.
        """

        if self._baseline is None:
            if self.engine == "fused":
                from ..snn.inference import FusedInferenceEngine

                self._baseline = FusedInferenceEngine(
                    self.model, plan_token=self._model_token).evaluate(self.loader)
            else:
                self._baseline = evaluate(self.model, self.loader)
        return self._baseline

    def _cache_payload(self, point: CampaignPoint) -> dict:
        return {
            "version": _CACHE_VERSION,
            "model": self._model_key,
            "data": self._data_token,
            "fmt": [self.fmt.total_bits, self.fmt.frac_bits],
            "bypass": self.bypass,
            "point": point.as_payload(),
        }

    def _cache_path(self, point: CampaignPoint) -> Optional[Path]:
        """Where ``point``'s record is cached (``None`` without a cache_dir)."""

        return cache_path(self.cache_dir, self._cache_payload(point))

    def _record_for(self, point: CampaignPoint, accuracies: Sequence[float]) -> dict:
        record = point.as_payload()
        record.update({
            "trials": point.trials,
            "accuracies": [float(a) for a in accuracies],
            "accuracy": float(np.mean(accuracies)),
            "accuracy_std": float(np.std(accuracies)),
        })
        return record

    def _faults_of(self, point: CampaignPoint) -> list:
        """A point's fault maps, or its schedules when it is transient."""

        if point.fault_model == "transient":
            return point.build_schedules(self.fmt)
        return point.build_fault_maps(self.fmt)

    def _evaluate(self, faults: Sequence[Union[FaultMap, FaultSchedule]]
                  ) -> List[float]:
        return evaluate_with_faults(
            self.model, self.loader, faults, bypass=self.bypass,
            fmt=self.fmt, engine=self.engine, plan_token=self._model_token)

    def _plan_passes(self, chunks: Sequence[SweepChunk]
                     ) -> Dict[int, List[SweepChunk]]:
        """The multi-map pass of each chunk, keyed by chunk ordinal.

        With one worker, this shard's chunks that share an array geometry
        and fault semantics are cut, in grid order, into passes of at most
        :data:`MAX_MAPS_PER_PASS` maps (a chunk is never split), so a whole
        sweep costs a handful of inferences.  Transient schedules need a
        common ``num_steps``, so the fault model and its params join the
        geometry in the group key.  With more workers, or for another
        shard's chunk, a chunk is its own pass.  Each map's result is
        independent of its pass neighbours, so grouping cannot change a
        record.
        """

        passes = {chunk.ordinal: [chunk] for chunk in chunks}
        if self.workers > 1:
            return passes
        groups: Dict[Tuple, List[SweepChunk]] = {}
        for chunk in chunks:
            if self.shard is not None and not self.shard.owns(chunk.ordinal):
                continue
            point = chunk.point
            key = (point.rows, point.cols, point.fault_model, point.fault_params)
            members = groups.get(key)
            if members is None or (sum(member.point.trials for member in members)
                                   + point.trials > MAX_MAPS_PER_PASS):
                members = groups[key] = []
            members.append(chunk)
            passes[chunk.ordinal] = members
        return passes

    def _chunk_record(self, chunk: SweepChunk, members: Sequence[SweepChunk],
                      done: Dict[int, dict], shares: Dict[int, float]) -> dict:
        """``chunk``'s record, computed with the rest of its pass.

        The first member of a pass to be computed evaluates, in one
        :meth:`_evaluate` call, itself and every member that has neither a
        record in ``done`` nor a cache file; their records wait in
        ``done`` (local to one :meth:`orchestrate` call) for their own
        units.  ``shares`` gets the seconds each evaluated member adds to
        its measured time, so that every member books the pass's share of
        its maps and the computing unit gives back the rest.
        """

        if chunk.ordinal not in done:
            paths = [self._cache_path(member.point) for member in members]
            todo = [member for member, path in zip(members, paths)
                    if member is chunk or (member.ordinal not in done
                                           and not (path and path.exists()))]
            faults = [self._faults_of(member.point) for member in todo]
            maps = [item for items in faults for item in items]
            start = time.perf_counter()
            accuracies = iter(self._evaluate(maps))
            elapsed = time.perf_counter() - start
            for member, items in zip(todo, faults):
                done[member.ordinal] = self._record_for(
                    member.point, [next(accuracies) for _ in items])
                shares[member.ordinal] = elapsed * len(items) / len(maps)
            shares[chunk.ordinal] -= elapsed
        return done.pop(chunk.ordinal)

    def orchestrate(self, points: Sequence[CampaignPoint]):
        """Run ``points`` as (point, trial-chunk) units on the orchestrator.

        Every sweep takes this path, whatever its worker count, shard or
        trial chunk: units get the orchestrator's cache checks, retries,
        chaos hooks, one-BLAS-thread compute and :class:`SweepReport`.
        With one worker, units of one multi-map pass (:meth:`_plan_passes`)
        are computed together by the first of them.  Bypass of a transient
        point is rejected here, before any unit runs.  A chunked point
        whose full-point record is cached needs no units (a per-point
        cache primes a chunked sweep); chunk records merge as
        :meth:`_record_for` would, and the merged record is stored.  The
        result's records align with ``points``; points still waiting on
        other shards are ``None`` and listed in ``pending``.
        """

        from .orchestrator import CampaignOrchestrator, OrchestratorResult, WorkUnit

        points = list(points)
        if self.bypass and any(point.fault_model == "transient" for point in points):
            raise ValueError(BYPASS_OF_TRANSIENT)
        chunks = plan_sweep_chunks(points, self.trial_chunk)
        by_point: Dict[int, List[SweepChunk]] = {}
        for chunk in chunks:
            by_point.setdefault(chunk.point_index, []).append(chunk)
        events: List[dict] = []
        records = [load_cached_record(self._cache_path(point),
                                      required_keys=_REQUIRED_RECORD_KEYS,
                                      on_event=events.append)
                   if len(by_point[index]) > 1 else None
                   for index, point in enumerate(points)]
        todo = [chunk for chunk in chunks if records[chunk.point_index] is None]
        passes = self._plan_passes(todo)
        done: Dict[int, dict] = {}
        shares: Dict[int, float] = {}

        def book(ordinal: int, seconds: float) -> float:
            return seconds + shares.pop(ordinal, 0.0)

        units = [WorkUnit(ordinal=chunk.ordinal,
                          compute=functools.partial(self._chunk_record, chunk,
                                                    passes[chunk.ordinal], done,
                                                    shares),
                          path=self._cache_path(chunk.point),
                          required_keys=_REQUIRED_RECORD_KEYS,
                          tags=(("point_index", chunk.point_index),
                                ("chunk_index", chunk.chunk_index)),
                          book_seconds=functools.partial(book, chunk.ordinal))
                 for chunk in todo]
        if self.workers > 1:
            self.warm_plan_cache()
        result = CampaignOrchestrator(
            workers=self.workers, shard=self.shard, unit_timeout=self.unit_timeout,
            progress=self.progress).run(units)
        report = result.report
        for event in events:
            report.record_event(event)
        report.total_units += len(chunks) - len(units)
        report.cached_units += len(chunks) - len(units)

        unit_records = {unit.ordinal: record
                        for unit, record in zip(units, result.records)}
        for index, point in enumerate(points):
            parts = [unit_records.get(chunk.ordinal) for chunk in by_point[index]]
            if records[index] is not None or any(part is None for part in parts):
                continue
            if len(parts) == 1:
                records[index] = parts[0]
                continue
            records[index] = self._record_for(
                point, [accuracy for part in parts for accuracy in part["accuracies"]])
            path = self._cache_path(point)
            if path is not None and not path.exists():
                store_record_safe(records[index], path, on_event=report.record_event)
        pending = [index for index, record in enumerate(records) if record is None]
        return OrchestratorResult(records=records, pending=pending, report=report)

    def run(self, points: Sequence[CampaignPoint]) -> List[dict]:
        """Records for all ``points``, in input order (:meth:`orchestrate`).

        A sharded run whose sibling shards have not finished raises
        :class:`~repro.faults.orchestrator.PendingShardError`.
        """

        from .orchestrator import PendingShardError

        result = self.orchestrate(points)
        if not result.complete:
            raise PendingShardError(result.pending, result.report)
        return list(result.records)


#: The campaign options: :class:`CampaignRunner`'s keywords after the model
#: and loader, read off its signature (the one place they are declared).
RUNNER_OPTIONS = tuple(inspect.signature(CampaignRunner).parameters)[2:]
