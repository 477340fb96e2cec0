"""Campaign engine micro-benchmark: sequential vs fused sweep cost.

Runs the same Fig. 5b-style vulnerability sweep (faulty-PE counts x trials)
through both campaign engines against one trained micro-model and
reports:

* per-engine wall-clock cost and the speedup over the sequential oracle,
* the fused engine's machine-relative ratio for the stuck-at sweep vs
  the same sweep under transient (SEU) schedules,
* the per-call speedup of the cached-index ``im2col`` gather over the
  strided-window reference gather it replaced, at the largest conv
  input perfbench's ``sweep-stuckat`` gathers,
* the per-call speedup of the fused spike kernels (the 6-pass PLIF step
  and tap-add average pooling) over the 9-pass divide step and
  ``reshape -> sum`` pooling they replaced, at the same shape,
* how the fused engine's memory scales with the maps of one pass: the
  ``tracemalloc`` peak of a 32-map evaluation over that of a 128-map one
  (1.0 when memory is flat in the number of maps),
* how much memory backward adds to one training step: the traced size
  of the forward graph over the traced peak during ``backward`` (1.0 when
  backward frees the graph as fast as it allocates gradients),
* that all engines produce **identical** records (same accuracies, same
  seeds -- the float64 bit-identity guarantee), including the transient
  sweep (phase-aware fused engine vs the per-schedule sequential oracle),
* the on-disk cache: a warm re-run answers from JSON without simulating,
* the sharded orchestrator: a 2-worker chunked sweep produces byte-identical
  records and a resumed sweep answers from the unit cache.

Every gated ratio is the median of :data:`ROUNDS` rounds, each of which
alternates the configurations it compares, and the JSON keeps each
ratio's spread (min and max over the rounds) beside it.

The sweep is evaluated in the streaming regime (small evaluation batches),
which is where re-running a full inference per fault map pays the most
per-operation overhead.  The fused engine drops the autograd graph
entirely -- lowered plan, in-place membrane updates, static-prefix caching
and clean-prefix sharing across fault maps that have not yet diverged.
"""

import time
import tracemalloc

import numpy as np
import pytest

from conftest import RESULTS_DIR
from repro.autograd import Tensor
from repro.datasets import DataLoader
from repro.experiments import ExperimentConfig, format_table, prepare_baseline
from repro.faults import build_faulty_array, random_fault_map, sweep_faulty_pe_count
from repro.snn import Adam, Trainer
from repro.snn.inference import FusedFaultEngine
from repro.utils import save_records

#: Micro configuration: trains in seconds, large enough to be above chance.
CAMPAIGN_CONFIG = ExperimentConfig(
    dataset="mnist", num_train=120, num_test=50,
    dataset_kwargs=(("max_shift", 1), ("noise_std", 0.04)),
    channels=6, hidden_units=32, time_steps=3,
    batch_size=12, baseline_epochs=8, baseline_lr=2.5e-2,
    array_rows=32, array_cols=32, seed=13)

COUNTS = (0, 2, 4, 8, 16)
TRIALS = 8
EVAL_BATCH = 2  # streaming regime: many small batches per fault map

#: Rounds behind every gated ratio (the recorded value is their median).
ROUNDS = 5

@pytest.fixture(scope="module")
def campaign_setup():
    baseline = prepare_baseline(CAMPAIGN_CONFIG)
    model = baseline.model_factory()
    loader = DataLoader(baseline.test_loader.dataset, batch_size=EVAL_BATCH)
    return model, loader


def run_sweep(model, loader, engine, cache_dir=None, repeats=1):
    """Run the sweep ``repeats`` times; return (records, best wall time).

    The best-of-N guards the comparison against scheduler noise on loaded
    CI boxes.  Timed comparisons must pass ``cache_dir=None`` (the
    default): with a cache directory, iterations after the first answer
    from disk and measure cache reads, not simulation.
    """

    best = float("inf")
    records = None
    for _ in range(repeats):
        start = time.perf_counter()
        records = sweep_faulty_pe_count(
            model, loader,
            rows=CAMPAIGN_CONFIG.array_rows, cols=CAMPAIGN_CONFIG.array_cols,
            counts=COUNTS, trials=TRIALS, seed=CAMPAIGN_CONFIG.seed,
            dataset="mnist", engine=engine, cache_dir=cache_dir)
        best = min(best, time.perf_counter() - start)
    return records, best


#: Transient-schedule parameters for the transient benchmark rows; the
#: step count matches the micro-model's ``time_steps``.
TRANSIENT_PARAMS = {"process": "bernoulli", "num_steps": 3, "rate": 0.5}


def run_sweep_interleaved(model, loader, configs, rounds=ROUNDS):
    """Per-round sweep cost of every config, measured round-robin.

    ``configs`` maps label -> (engine, fault_model); the result maps label
    -> one time per round.  Interleaving the configurations (instead of
    timing each one back to back) keeps a load spike on a shared CI box
    from billing one configuration only.
    """

    times = {label: [] for label in configs}
    records = {}
    for _ in range(rounds):
        for label, (engine, fault_model) in configs.items():
            params = TRANSIENT_PARAMS if fault_model == "transient" else None
            start = time.perf_counter()
            records[label] = sweep_faulty_pe_count(
                model, loader,
                rows=CAMPAIGN_CONFIG.array_rows, cols=CAMPAIGN_CONFIG.array_cols,
                counts=COUNTS, trials=TRIALS, seed=CAMPAIGN_CONFIG.seed,
                dataset="mnist", engine=engine,
                fault_model=fault_model, fault_params=params)
            times[label].append(time.perf_counter() - start)
    return records, times


def median_spread(values):
    """The median of per-round ``values`` and their ``[min, max]`` spread."""

    return float(np.median(values)), [float(min(values)), float(max(values))]


def round_ratios(numerators, denominators):
    """Per-round ratios of two equally long lists of round measurements."""

    return [n / d for n, d in zip(numerators, denominators)]


#: Input of the gather timing: 80 spike frames of 8x16x16 with a 3x3
#: kernel and padding 1, the largest conv input perfbench's
#: ``sweep-stuckat`` gathers (108 of its 219 calls per sweep).
GATHER_SHAPE = (80, 8, 16, 16)

#: Input of the spike-kernel timing: the same 80 frames of 8x16x16, the
#: conv1 spike map that perfbench's ``sweep-stuckat`` fires and pools.
SPIKE_SHAPE = GATHER_SHAPE


def measure_gather_speedup(repeats=40):
    """One round: median strided-reference gather time over ``im2col``'s.

    The two gathers alternate call by call, so a load spike bills both.
    """

    from repro.autograd.functional import im2col
    from tests.conftest import strided_im2col

    rng = np.random.default_rng(0)
    x = (rng.random(GATHER_SHAPE) < 0.3).astype(np.float64)
    assert im2col(x, (3, 3), 1, 1).tobytes() == \
        strided_im2col(x, (3, 3), 1, 1).tobytes()
    times = {"reference": [], "im2col": []}
    for _ in range(repeats):
        for label, gather in (("reference", strided_im2col),
                              ("im2col", im2col)):
            start = time.perf_counter()
            gather(x, (3, 3), 1, 1)
            times[label].append(time.perf_counter() - start)
    return (float(np.median(times["reference"]))
            / float(np.median(times["im2col"])))


class DivideNeuronStep:
    """The 9-pass PLIF step the fused neuron kernel replaced (hard reset).

    Fires on ``v / V_th - 1 > 0``, as the autograd ``Fire`` node does, and
    re-masks the float spikes for the reset: the "before" side of
    :func:`measure_spike_kernel_speedup`.
    """

    def __init__(self, spec, shape):
        self.spec = spec
        self.v = np.full(shape, spec.v_reset)
        self.t, self.z, self.spike = np.empty(shape), np.empty(shape), np.empty(shape)
        self.mask = np.empty(shape, dtype=bool)

    def run(self, x):
        spec, v, t, z = self.spec, self.v, self.t, self.z
        np.subtract(v, spec.v_reset, out=t)
        np.subtract(x, t, out=t)
        np.multiply(t, spec.inv_tau, out=t)
        np.add(v, t, out=v)
        np.divide(v, spec.v_threshold, out=z)
        np.subtract(z, 1.0, out=z)
        np.greater(z, 0.0, out=self.spike, casting="unsafe")
        np.greater(self.spike, 0.5, out=self.mask)
        np.copyto(v, spec.v_reset, where=self.mask)
        return self.spike


def measure_spike_kernel_speedup(repeats=40):
    """One round: median divide-step + reshape-sum time over the fused kernels'.

    One call is a PLIF step (the shipped models' ``tau = 1.2``, ``V_th =
    1``, hard reset to ``0.0``) on a conv-output drive, then a 2x2 average
    pool of its spikes.  The two sides alternate call by call, so a load
    spike bills both, and their spikes, pooled maps and membranes must
    agree byte for byte.
    """

    from repro.snn.inference.backends.ops_numpy import NeuronKernel, PoolKernel
    from repro.snn.inference.plan import NeuronSpec, PoolSpec
    from tests.conftest import reshape_sum_pool

    spec = NeuronSpec(inv_tau=1.0 / 1.2, v_threshold=1.0, v_reset=0.0)
    rng = np.random.default_rng(0)
    drive = rng.normal(0.5, 1.0, size=SPIKE_SHAPE)
    old_neuron, neuron = DivideNeuronStep(spec, SPIKE_SHAPE), NeuronKernel(spec)
    pool = PoolKernel(PoolSpec("avg", 2))

    def reference():
        return reshape_sum_pool(old_neuron.run(drive), 2)

    def fused():
        return pool.run(neuron.run(drive))

    for _ in range(3):
        assert fused().tobytes() == reference().tobytes()
        assert neuron.v.tobytes() == old_neuron.v.tobytes()
    times = {"reference": [], "fused": []}
    for _ in range(repeats):
        for label, step in (("reference", reference), ("fused", fused)):
            start = time.perf_counter()
            step()
            times[label].append(time.perf_counter() - start)
    return (float(np.median(times["reference"]))
            / float(np.median(times["fused"])))


#: Fault maps of the small and the large pass of the memory-scaling ratio.
MEMORY_MAPS = (32, 128)

#: Samples of the memory-scaling passes (one batch of the test set).
MEMORY_BATCH = 10


def measure_map_memory_scaling(model, dataset, rounds=ROUNDS):
    """Per-round traced peak of a 32-map pass over a 128-map pass.

    A pass is one :meth:`FusedFaultEngine.run` of a fresh engine (built
    untraced) over the first ``MEMORY_BATCH`` test samples; ``tracemalloc``
    sees numpy's buffers.  Every map carries 8 random stuck-at faults, and
    the 32-map pass uses the first 32 maps of the 128.  The two passes
    alternate within each round.
    """

    arrays = [build_faulty_array(random_fault_map(
        CAMPAIGN_CONFIG.array_rows, CAMPAIGN_CONFIG.array_cols, 8,
        bit_position=None, stuck_type="sa1", seed=CAMPAIGN_CONFIG.seed + index))
        for index in range(max(MEMORY_MAPS))]
    inputs, _ = next(iter(DataLoader(dataset, batch_size=MEMORY_BATCH)))
    ratios = []
    for _ in range(rounds):
        peaks = {}
        for num_maps in MEMORY_MAPS:
            engine = FusedFaultEngine(model, arrays[:num_maps])
            tracemalloc.start()
            try:
                engine.run(inputs)
                peaks[num_maps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        ratios.append(peaks[MEMORY_MAPS[0]] / peaks[MEMORY_MAPS[1]])
    return ratios


def measure_train_graph_release(rounds=ROUNDS):
    """Per-round traced forward-graph size over the backward peak of a step.

    One round is one :meth:`Trainer.train_step` of the campaign baseline
    on its first training batch, traced from the step's start, so the
    traced size when ``backward`` starts is the forward graph and the peak
    during ``backward`` is the graph plus what ``backward`` keeps alive.
    An untraced step first fills the optimizer state and index caches.
    """

    baseline = prepare_baseline(CAMPAIGN_CONFIG)
    model = baseline.model_factory()
    trainer = Trainer(model, Adam(model.parameters(), lr=CAMPAIGN_CONFIG.baseline_lr),
                      num_classes=CAMPAIGN_CONFIG.num_classes)
    inputs, labels = next(iter(baseline.fresh_train_loader()))
    trainer.train_step(inputs, labels)
    backward = Tensor.backward
    sizes = {}

    def traced_backward(self, grad=None):
        sizes["graph"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward(self, grad)
        sizes["peak"] = tracemalloc.get_traced_memory()[1]

    ratios = []
    Tensor.backward = traced_backward
    try:
        for _ in range(rounds):
            tracemalloc.start()
            try:
                trainer.train_step(inputs, labels)
            finally:
                tracemalloc.stop()
            ratios.append(sizes["graph"] / sizes["peak"])
    finally:
        Tensor.backward = backward
    return ratios


def test_bench_campaign_engines(campaign_setup):
    model, loader = campaign_setup
    # Warm-up pass so BLAS thread pools / allocators do not bill the first
    # timed engine.
    run_sweep(model, loader, "fused")

    configs = {
        "sequential": ("sequential", "stuck_at"),
        "fused": ("fused", "stuck_at"),
        "sequential-seu": ("sequential", "transient"),
        "fused-seu": ("fused", "transient"),
    }
    records, times = run_sweep_interleaved(model, loader, configs)

    spread = {}
    rows = []
    for engine in configs:
        speedup, spread[f"{engine}_speedup"] = median_spread(
            round_ratios(times["sequential"], times[engine]))
        rows.append({
            "engine": engine, "points": len(COUNTS), "trials": TRIALS,
            "fault_maps": (len(COUNTS) - 1) * TRIALS,
            "seconds": float(np.median(times[engine])),
            "speedup": speedup,
        })
    transient_ratio, spread["transient_overhead"] = median_spread(
        round_ratios(times["fused"], times["fused-seu"]))
    gather_speedup, spread["gather_speedup"] = median_spread(
        [measure_gather_speedup() for _ in range(ROUNDS)])
    spike_kernel_speedup, spread["spike_kernel_speedup"] = median_spread(
        [measure_spike_kernel_speedup() for _ in range(ROUNDS)])
    map_memory_scaling, spread["map_memory_scaling"] = median_spread(
        measure_map_memory_scaling(model, loader.dataset))
    train_graph_release, spread["train_graph_release"] = median_spread(
        measure_train_graph_release())
    identical = (records["fused"] == records["sequential"]
                 # The transient (SEU) schedule sweep: the phase-aware fused
                 # engine must match the per-schedule sequential oracle.
                 and records["fused-seu"] == records["sequential-seu"])
    table = format_table(rows, columns=["engine", "points", "trials", "fault_maps",
                                        "seconds", "speedup"],
                         title="Campaign engines: Fig. 5b sweep cost")
    summary = (f"stuck-at fused vs transient fused: {transient_ratio:.2f}x; "
               f"im2col gather vs strided reference: {gather_speedup:.2f}x; "
               f"spike kernels vs divide step + reshape-sum pool: "
               f"{spike_kernel_speedup:.2f}x; traced peak of a 32-map pass "
               f"over a 128-map pass: {map_memory_scaling:.2f}; traced "
               f"forward graph over backward peak of a training step: "
               f"{train_graph_release:.2f} "
               f"(medians of {ROUNDS} rounds)")
    print("\n" + table + "\n" + summary)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "campaign_engine.txt").write_text(table + "\n" + summary + "\n",
                                                    encoding="utf-8")
    save_records(rows + [{
        "engine": "meta",
        "identical_records": bool(identical),
        "transient_overhead": transient_ratio,
        "gather_speedup": gather_speedup,
        "spike_kernel_speedup": spike_kernel_speedup,
        "map_memory_scaling": map_memory_scaling,
        "train_graph_release": train_graph_release,
        "rounds": ROUNDS,
        "spread": spread,
        "note": "identical_records pins float64 bit-identity across both "
                "engines and the transient (SEU) schedule sweep "
                "(phase-aware fused vs per-schedule sequential); "
                "transient_overhead is the stuck-at fused sweep cost over "
                "the transient-schedule fused sweep cost (a drop means the "
                "transient path got relatively slower); gather_speedup is "
                "the median per-call time of the strided-window reference "
                "gather over im2col's at (80, 8, 16, 16), 3x3, padding 1; "
                "spike_kernel_speedup is the median per-call time of the "
                "9-pass divide PLIF step plus reshape-sum 2x2 average pool "
                "over NeuronKernel plus PoolKernel at (80, 8, 16, 16); "
                "map_memory_scaling is the tracemalloc peak of a 32-map "
                "FusedFaultEngine evaluation over a 128-map one (1.0 when "
                "memory is flat in the maps of a pass); "
                "train_graph_release is the tracemalloc size of one training "
                "step's forward graph over the peak during its backward "
                "(1.0 when backward adds nothing on top of the graph); "
                "every ratio is "
                "measured within this run (machine-relative) as the median "
                "of `rounds` alternating rounds, and `spread` holds each "
                "ratio's [min, max] over those rounds",
    }], RESULTS_DIR / "campaign_engine.json")

    # The acceptance property: identical records across both engines
    # (same accuracies, same seeds -- float64 bit-identity).
    assert identical, "engine records diverged"
    # The fault-free point reports the software baseline.
    assert records["fused"][0]["num_faulty_pes"] == 0
    # Wall-clock: conservative bounds that hold across CI machines; the
    # recorded results document the precise ratios on the reference box.
    # The transient path re-prepares per *phase*, not per step; even with
    # every step in its own phase the fused sweep must stay within a small
    # multiple of the stuck-at sweep.  The recorded ratios are gated
    # machine-relative by check_regression.py.
    assert transient_ratio >= 0.15, \
        f"transient sweep cost {1 / transient_ratio:.2f}x over stuck-at"
    assert gather_speedup >= 1.0, \
        f"im2col only {gather_speedup:.2f}x over the strided reference gather"
    assert spike_kernel_speedup >= 1.0, \
        f"spike kernels only {spike_kernel_speedup:.2f}x over the divide step"
    # Fork lanes run one after another on shared kernels, so a 128-map
    # pass needs about the memory of a 32-map one.
    assert map_memory_scaling >= 0.6, \
        f"a 128-map pass peaks at {1 / map_memory_scaling:.2f}x a 32-map pass"
    # Backward frees each node's saved context once its backward has run,
    # so a step peaks near the size of its forward graph.
    assert train_graph_release >= 0.9, \
        f"backward peaks at {1 / train_graph_release:.2f}x the forward graph"


def test_bench_campaign_cache_hit(campaign_setup, tmp_path):
    model, loader = campaign_setup
    cold_records, cold_time = run_sweep(model, loader, "fused", cache_dir=tmp_path)
    warm_records, warm_time = run_sweep(model, loader, "fused", cache_dir=tmp_path)
    speedup = cold_time / max(warm_time, 1e-9)
    print(f"\ncampaign cache: cold {cold_time:.2f}s, warm {warm_time:.3f}s "
          f"({speedup:.0f}x)")

    assert warm_records == cold_records
    assert list(tmp_path.glob("*.json")), "cache directory is empty"
    # A warm sweep must not re-simulate: >=5x is conservative (typically >50x).
    assert speedup >= 5.0, f"cache-hit speedup only {speedup:.2f}x"


def test_bench_campaign_orchestrator(campaign_setup, tmp_path):
    """Orchestrated sweeps: identical records, and resume skips all work.

    Byte-identity of the orchestrated/sharded records with the serial
    runner is the acceptance property; wall-clock is reported but not
    asserted (on single-core CI boxes the fork pool cannot win, and the
    worker processes re-lower the model once each -- the pool pays off on
    multi-core hosts with larger grids).
    """

    import json

    from repro.faults import CampaignPoint, CampaignRunner

    model, loader = campaign_setup
    points = [
        CampaignPoint.for_trials(
            CAMPAIGN_CONFIG.array_rows, CAMPAIGN_CONFIG.array_cols, count,
            TRIALS, bit_position=None, stuck_type="sa1",
            seed=CAMPAIGN_CONFIG.seed + count, label="bench", dataset="mnist")
        for count in COUNTS if count
    ]

    start = time.perf_counter()
    serial = CampaignRunner(model, loader).run(points)
    serial_time = time.perf_counter() - start

    start = time.perf_counter()
    orchestrated = CampaignRunner(model, loader, workers=2, trial_chunk=2,
                                  cache_dir=tmp_path / "pool").run(points)
    pool_time = time.perf_counter() - start

    start = time.perf_counter()
    resumed = CampaignRunner(model, loader, workers=2, trial_chunk=2,
                             cache_dir=tmp_path / "pool").run(points)
    resume_time = time.perf_counter() - start

    print(f"\norchestrator: serial {serial_time:.2f}s, 2 workers "
          f"{pool_time:.2f}s, resume {resume_time:.3f}s "
          f"({pool_time / max(resume_time, 1e-9):.0f}x)")

    canonical = lambda records: json.dumps(records, sort_keys=True)  # noqa: E731
    assert canonical(orchestrated) == canonical(serial)
    assert canonical(resumed) == canonical(serial)
    # A resumed sweep answers purely from the unit cache.
    assert resume_time < 0.5 * pool_time


def test_bench_campaign_chaos_recovery(campaign_setup, tmp_path):
    """Failure-recovery cost on the heartbeat pool: bounded overhead, zero drift.

    The heartbeat/watchdog machinery is always on in pool mode, so the
    clean 2-worker run prices its steady-state cost against the serial
    oracle (reported by test_bench_campaign_orchestrator).  The chaos run
    then injects one worker crash (SIGKILL-equivalent ``os._exit`` →
    kill + fork replacement + unit redo) and one poisoned attempt
    (in-worker exception → backoff + retry) and must still produce
    byte-identical records on its own.  The watchdog-kill path for a real
    hang waits out the soft deadline by design, so it is priced by the
    tier-1 tests and the CI chaos smoke, not timed here.
    """

    import json

    from repro.faults import CampaignPoint, CampaignRunner
    from repro.testing import clear_plan, install_plan

    model, loader = campaign_setup
    points = [
        CampaignPoint.for_trials(
            CAMPAIGN_CONFIG.array_rows, CAMPAIGN_CONFIG.array_cols, count,
            TRIALS, bit_position=None, stuck_type="sa1",
            seed=CAMPAIGN_CONFIG.seed + count, label="bench-chaos",
            dataset="mnist")
        for count in COUNTS if count
    ]

    serial = CampaignRunner(model, loader).run(points)

    start = time.perf_counter()
    clean = CampaignRunner(model, loader, workers=2, trial_chunk=2).run(points)
    clean_time = time.perf_counter() - start

    install_plan({
        "rules": [{"site": "unit", "action": "crash", "key": 0},
                  {"site": "unit", "action": "raise", "key": 1}],
        "state_dir": str(tmp_path / "chaos-state"),
    })
    try:
        runner = CampaignRunner(model, loader, workers=2, trial_chunk=2)
        start = time.perf_counter()
        result = runner.orchestrate(points)
        chaos_time = time.perf_counter() - start
    finally:
        clear_plan()

    overhead = chaos_time - clean_time
    print(f"\nchaos recovery: clean 2-worker {clean_time:.2f}s, "
          f"crash+poison {chaos_time:.2f}s (overhead {overhead:+.2f}s, "
          f"{result.report.retries} retries)")

    canonical = lambda records: json.dumps(records, sort_keys=True)  # noqa: E731
    assert result.complete
    assert canonical(clean) == canonical(serial)
    assert canonical(result.records) == canonical(serial)
    assert result.report.crashed == 1
    assert result.report.poisoned == 1
    assert result.report.retries >= 2
    # Recovery redoes one unit and respawns one forked worker; it must stay
    # within a small multiple of the clean pooled sweep even on loaded CI.
    assert chaos_time <= 3.0 * clean_time + 10.0, \
        f"chaos recovery cost {chaos_time:.2f}s vs clean {clean_time:.2f}s"


def test_bench_campaign_scaling_with_trials(campaign_setup):
    """Fused cost grows sublinearly in trials versus the sequential path."""

    model, loader = campaign_setup
    times = {}
    for trials in (2, 8):
        start = time.perf_counter()
        sweep_faulty_pe_count(
            model, loader, rows=CAMPAIGN_CONFIG.array_rows,
            cols=CAMPAIGN_CONFIG.array_cols, counts=(4,), trials=trials,
            seed=CAMPAIGN_CONFIG.seed, engine="fused")
        times[trials] = time.perf_counter() - start
    print(f"\nfused sweep point: trials=2 {times[2]:.2f}s, trials=8 {times[8]:.2f}s")
    # 4x the fault maps should cost well under 4x the wall-clock.
    assert times[8] < 3.5 * times[2]
