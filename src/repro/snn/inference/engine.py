"""Fused no-autograd inference engines over a lowered plan.

Two engines execute an :class:`~repro.snn.inference.plan.InferencePlan`:

* :class:`FusedInferenceEngine` -- fault-free evaluation, bit-identical
  to ``model(x)`` in eval mode under ``no_grad`` (same numpy operations,
  same order, same shapes).  It also counts each spiking layer's spikes,
  from which :func:`measure_firing_rates` reads the per-layer firing
  rates FalVolt acts on: pruning the weights mapped to faulty PEs lowers
  every layer's drive and its rate, and a lowered threshold restores it.

* :class:`FusedFaultEngine` -- evaluation under ``F`` systolic-array fault
  maps in one pass, with **clean-prefix sharing**: faults only corrupt
  specific affine layers' GEMMs (a map is corrupted by a layer only when
  one of its faulty PE columns actually holds output features of that
  layer, or a bypassed PE zeroes one of its weights), so each fault map's
  execution is bit-identical to the clean one up to the first affine layer
  its faults touch.  The engine runs a single shared *clean lane* plus
  *fork lanes*: a map is forked out of the clean lane exactly at its first
  corrupted layer.  Corrupted GEMMs run the prepared chain plans of
  :class:`~repro.systolic.array.BatchedSystolicArray`, whose per-map
  arithmetic is bit-identical to the sequential oracle, so float64
  results match the autograd fault-injection paths bit for bit.

Both engines additionally cache the *static prefix* (the stateless ops
before the first spiking layer) per batch: for static inputs those
activations are identical at every time step, so e.g. the spike-encoder
convolution runs once instead of ``T`` times.

**Lane-major order.**  The fault engine runs lane by lane, not step by
step.  The clean lane first runs all ``T`` time steps and keeps, per
step, a *stash* of the shared :class:`ForkEntry` operands of every fork
op: the fork-entry im2col and dense product are computed once per (time
step, fork op), and each entering lane corrects its own copy.  Static
inputs build the prefix entries once and every step's stash shares them.
Then each fork lane runs all ``T`` steps before the next lane starts.
Lanes are independent and each still sees its steps (and live-fault
phases) in order, so the order changes no bits.  All lanes share one
kernel per op (:attr:`_Layout.kernels`); a lane restarts their neuron
state when it starts.  The working set is therefore ``T`` stashes plus
one lane's activations and state, whatever the number of maps.

**Stash ownership.**  A stash outlives the time step that built it, so
its arrays are its own: a convolution's entry holds a fresh im2col
gather, and a linear layer's entry copies its input, which may be a
flatten view of a clean neuron kernel's reused spike buffer.  Likewise a
lane's cached static-prefix output is a copy: the prefix's last kernel
(a shared batch norm) reuses its output buffer when the prefix runs again
for another phase.

**Fork lanes sized for the batch.**  A fork lane stacks consecutive maps
of the fork order that fork at the same op, as many as fit
:data:`LANE_SAMPLES` samples of the evaluation batch.  At the batch sizes
campaigns evaluate that is one map per lane, so a lane's im2col patches,
GEMM output, chain scratch and neuron state cover one map's batch, while
tiny streaming batches keep enough maps per call to amortise numpy's
per-call overhead.  Any split is bit-safe where internal re-batching is
not: a stacked ``(F, batch, k) @ (k, n)`` matmul evaluates each leading
slice as an independent 2D GEMM, every non-affine kernel is elementwise
over the leading axes, and fault chains scatter to disjoint (map, column)
slices -- so splitting the fault-map axis into lanes can never change any
map's bits, whereas folding maps into the BLAS row dimension would.
Prepared runners are keyed by the maps' live-fault signatures
(restricted to the columns holding the layer's outputs), so live sets
that agree there -- across phases or maps -- prepare each layer once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...systolic.array import BatchedSystolicArray, SystolicArray
from ...systolic.mapping import faulty_weight_mask
from ..network import iter_frames
from .backends.ops_numpy import KERNEL_SET, NeuronKernel
from .faulty_gemm import FaultyAffineRunner, ForkEntry
from .plan import AffineSpec, InferencePlan, lower_plan
from .plan_cache import default_plan_cache

__all__ = ["FusedInferenceEngine", "FusedFaultEngine", "activity_drop",
           "measure_firing_rates"]


def _plan_for(model, plan_token: Optional[str]) -> InferencePlan:
    """``model``'s plan: cached under ``plan_token``, else lowered afresh.

    Campaign runners pass the token they hold, so a sweep lowers its model
    once per process.  Hashing a small model costs more than lowering it,
    so untokened engines never cache.
    """

    if plan_token is None:
        return lower_plan(model)
    return default_plan_cache().get_plan(model, token=plan_token)


class FusedInferenceEngine:
    """Fault-free fused evaluation of a lowered spiking classifier.

    Parameters
    ----------
    model:
        A trained :class:`~repro.snn.network.SpikingClassifier` (anything
        with a ``lower_inference`` hook and ``time_steps``).  Weights are
        captured by reference at construction; rebuild the engine after
        loading new parameters.
    plan_token:
        Optional model token (:func:`repro.utils.hashing.model_token`);
        see :func:`_plan_for`.
    """

    def __init__(self, model, plan_token: Optional[str] = None) -> None:
        self.plan = _plan_for(model, plan_token)
        self._kernels = [KERNEL_SET.make_kernel(op, affine_mode="software")
                         for op in self.plan.ops]
        self._prefix = self.plan.static_prefix
        self._neurons = [kernel for kernel in self._kernels
                         if isinstance(kernel, NeuronKernel)]
        # The prefix is stateless, so every neuron op runs after it; each
        # carries its ordinal among the neuron ops (``None`` for the others).
        self._body = [(kernel, self._neurons.index(kernel)
                       if isinstance(kernel, NeuronKernel) else None)
                      for kernel in self._kernels[self._prefix:]]
        #: Spikes each neuron op emitted, and the neuron-steps it ran, summed
        #: over every :meth:`run` (neuron ops in plan order).
        self.spike_counts = np.zeros(len(self._neurons), dtype=np.int64)
        self.neuron_steps = np.zeros(len(self._neurons), dtype=np.int64)

    def run(self, inputs) -> np.ndarray:
        """Output firing rates of shape ``(batch, num_classes)``.

        Adds each neuron op's spikes to :attr:`spike_counts` and its
        neuron-steps to :attr:`neuron_steps`.
        """

        x0 = np.asarray(inputs, dtype=np.float64)
        static = x0.ndim in (4, 2)
        for kernel in self._neurons:
            kernel.reset()
        acc: Optional[np.ndarray] = None
        prefix_out: Optional[np.ndarray] = None
        steps = 0
        for frame in iter_frames(x0, self.plan.time_steps):
            if static and prefix_out is not None:
                x = prefix_out
            else:
                x = frame
                for kernel in self._kernels[:self._prefix]:
                    x = kernel.run(x)
                if static:
                    prefix_out = x
            for kernel, neuron in self._body:
                x = kernel.run(x)
                if neuron is not None:
                    self.spike_counts[neuron] += np.count_nonzero(x)
                    self.neuron_steps[neuron] += x.size
            if acc is None:
                acc = x.copy()
            else:
                np.add(acc, x, out=acc)
            steps += 1
        np.multiply(acc, 1.0 / steps, out=acc)
        return acc

    def evaluate(self, loader) -> float:
        """Classification accuracy over all batches of ``loader``."""

        correct = 0
        total = 0
        for inputs, labels in loader:
            predictions = np.argmax(self.run(inputs), axis=1)
            correct += int(np.sum(predictions == labels))
            total += labels.shape[0]
        return correct / total if total else 0.0


def measure_firing_rates(model, inputs, labelled_only: bool = True) -> Dict[str, float]:
    """Per-layer firing rates of ``model`` over ``inputs``, in [0, 1].

    One fused pass counts each spiking layer's spikes per neuron per time
    step.  Fused spikes are bit-identical to the eval-mode autograd
    forward's, and sums of 0/1 spikes are exact, so these are that
    forward's rates exactly, whatever mode ``model`` is in.  Layers are
    keyed by ``layer_label``, or ``spiking-<i>`` for the ``i``-th spiking
    layer when unlabelled; ``labelled_only`` keeps the labelled ones.
    """

    engine = FusedInferenceEngine(model)
    engine.run(inputs)
    rates: Dict[str, float] = {}
    layers = zip(model.spiking_layers(), engine.spike_counts, engine.neuron_steps,
                 strict=True)
    for index, (node, spikes, steps) in enumerate(layers):
        if node.layer_label or not labelled_only:
            label = node.layer_label or f"spiking-{index}"
            rates[label] = float(spikes / steps) if steps else 0.0
    return rates


def activity_drop(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """Relative drop in firing rate per layer between two measurements.

    Values in [0, 1]; 0 means unchanged, 1 means the layer went completely
    silent.  Layers missing from either measurement are skipped.
    """

    drops: Dict[str, float] = {}
    for label, rate_before in before.items():
        if label not in after:
            continue
        if rate_before <= 0:
            drops[label] = 0.0
        else:
            drops[label] = max(0.0, 1.0 - after[label] / rate_before)
    return drops


#: Samples a fork lane is sized for.  A lane stacks as many consecutive
#: maps of the fork order as fit ``LANE_SAMPLES`` samples of the evaluation
#: batch (at least one, all forking at the same op).  At the batch sizes
#: campaigns evaluate that is one map per lane, so a lane's im2col patches,
#: GEMM output, chain scratch and neuron state cover one map's batch; tiny
#: streaming batches stack maps instead, so per-call overhead stays
#: amortised.
LANE_SAMPLES = 64


class _Lane:
    """A block of maps forking at the same op, executed independently.

    Its affine runners are read-only and may be shared with other lanes
    whose maps have the same live faults.
    """

    __slots__ = ("maps", "start", "runners")

    def __init__(self, maps, start, runners) -> None:
        self.maps = maps          # global map indices, fork order
        self.start = start        # op index of the maps' fork op
        self.runners = runners    # [phase][affine ordinal]: runner or None


class _Layout:
    """The fork lanes for one block size, their fork ops and kernels.

    ``entries`` maps each fork op's index to the runner that builds its
    shared :class:`ForkEntry` and whether the dense product is needed.
    ``kernels`` holds one non-affine kernel per op from the first fork op
    on (``None`` elsewhere); every lane runs on them in turn.
    """

    __slots__ = ("block", "lanes", "entries", "kernels")

    def __init__(self, block, lanes, entries, kernels) -> None:
        self.block = block
        self.lanes = lanes
        self.entries = entries
        self.kernels = kernels


class FusedFaultEngine:
    """Fused evaluation under ``F`` fault maps with clean-prefix sharing.

    Parameters
    ----------
    model:
        Trained spiking classifier (lowered at construction).
    arrays:
        One (possibly faulty, possibly bypassed) :class:`SystolicArray` per
        fault map.  All must share grid dimensions and accumulator format.
        Fault/bypass state is snapshotted when the engine is built.
    plan_token:
        Optional model token; see :func:`_plan_for`.
    schedules:
        One :class:`~repro.faults.fault_map.FaultSchedule` per map for
        *transient* faults, instead of ``arrays`` (exactly one of the two
        must be given).  The per-step live-fault signatures are deduped
        into phases; each map forks at the first layer its fault *union*
        can touch, and the lane runners are swapped per phase, so results
        stay bit-identical to the step-by-step sequential oracle.
    fmt:
        Accumulator format for the transient path; defaults to the
        schedules' pinned format (required when the schedules do not pin
        one).  Ignored with ``arrays``.
    """

    def __init__(self, model, arrays: Optional[Sequence[SystolicArray]] = None,
                 plan_token: Optional[str] = None,
                 schedules=None, fmt=None) -> None:
        if (arrays is None) == (schedules is None):
            raise ValueError(
                "FusedFaultEngine needs exactly one of arrays (permanent "
                "faults) or schedules (transient faults)")
        self.plan = _plan_for(model, plan_token)
        affine_specs = self.plan.affine_specs
        ops = self.plan.ops

        if schedules is not None:
            # Transient path: dedup the joint per-step live-fault signatures
            # into phases.  Fork structure (divergence, lanes, stash points)
            # is computed on each schedule's *union* map -- every fault
            # treated as permanent -- so a map's fork point never moves
            # between phases; within a phase where a fault is dormant, the
            # simulator's per-slice dense product is the sequential clean
            # GEMM, keeping bits identical to the step-by-step oracle.
            from ...faults.fault_map import schedule_phases
            from ...faults.injection import build_faulty_array
            from ...systolic.fixed_point import DEFAULT_ACCUMULATOR_FORMAT

            schedules = list(schedules)
            if not schedules:
                raise ValueError("FusedFaultEngine needs at least one schedule")
            resolved_fmt = fmt if fmt is not None else schedules[0].fmt
            if resolved_fmt is None:
                resolved_fmt = DEFAULT_ACCUMULATOR_FORMAT
            step_phase, phase_maps = schedule_phases(schedules)
            self._step_phase: Optional[List[int]] = step_phase
            first_step: Dict[int, int] = {}
            for step, phase in enumerate(step_phase):
                first_step.setdefault(phase, step)
            # Runners are keyed by each map's own live-fault signature, not
            # by the joint phase (see _layer_key).
            phase_keys = [
                [schedule.signature(first_step[phase])
                 for phase in range(len(phase_maps))]
                for schedule in schedules]
            structure_arrays = [
                build_faulty_array(schedule.union_map(), fmt=resolved_fmt)
                for schedule in schedules]
            self._phase_maps: Optional[List[List[object]]] = phase_maps
            self._fmt = resolved_fmt
        else:
            arrays = list(arrays)
            if not arrays:
                raise ValueError("FusedFaultEngine needs at least one array")
            self._step_phase = None
            phase_keys = [[("map", f)] for f in range(len(arrays))]
            structure_arrays = arrays
            self._phase_maps = None
        self.num_maps = len(structure_arrays)
        self._arrays = structure_arrays
        self._phase_keys = phase_keys

        # First affine ordinal whose GEMM each map's faults corrupt.  Each
        # map is probed through a single-map BatchedSystolicArray so the
        # chain-population rule is the simulator's own, not a re-derivation
        # (a permanent map's probe then backs its single-map runners too).
        probes = [BatchedSystolicArray([array]) for array in structure_arrays]
        self._divergence: List[Optional[int]] = [
            self._first_affected(array, probe, affine_specs)
            for array, probe in zip(structure_arrays, probes)]
        #: Forked maps in fork-lane order (divergence layer, then map index).
        self.fork_order: List[int] = sorted(
            (f for f in range(self.num_maps) if self._divergence[f] is not None),
            key=lambda f: (self._divergence[f], f))
        self._clean_maps = [f for f in range(self.num_maps)
                            if self._divergence[f] is None]

        # Clean-lane bookkeeping: which affine ordinals still need the clean
        # output afterwards.
        self._clean_out_needed: List[bool] = [
            any(d is None or d > spec.index for d in self._divergence)
            for spec in affine_specs]
        self._op_of_affine: Dict[int, int] = {
            op.index: i for i, op in enumerate(ops) if isinstance(op, AffineSpec)}

        # Prepared runners and the subset arrays behind them, shared by every
        # layout; lanes are laid out on the first run (their block size
        # depends on the batch).
        self._subsets: Dict[tuple, BatchedSystolicArray] = {}
        if schedules is None:
            for map_index, probe in enumerate(probes):
                self._subsets[(phase_keys[map_index][0],)] = probe
        self._runners: Dict[tuple, FaultyAffineRunner] = {}
        self._layout: Optional[_Layout] = None

        self._clean = [KERNEL_SET.make_kernel(op, affine_mode="array")
                       for op in ops]
        self._prefix = self.plan.static_prefix

    # ------------------------------------------------------------------
    def _layer_key(self, map_index: int, phase: int, spec: AffineSpec):
        """What a map's runner for ``spec`` in ``phase`` depends on.

        A permanent map's runner is its own.  A transient map's depends on
        its live faults in the columns that hold the layer's outputs only
        (the simulator builds no chain for the others), so live sets that
        agree there -- across phases or across maps -- share one runner.
        """

        key = self._phase_keys[map_index][phase]
        if self._phase_maps is None:
            return key
        out_features = spec.weight_matrix_shape[0]
        return frozenset(site for site in key if site[0][1] < out_features)

    def _runner(self, maps: Sequence[int], phase: int,
                spec: AffineSpec) -> FaultyAffineRunner:
        """The (cached) prepared runner of ``maps`` for ``spec`` in ``phase``."""

        key = (spec.index,) + tuple(self._layer_key(f, phase, spec) for f in maps)
        runner = self._runners.get(key)
        if runner is None:
            subset_key = tuple(self._phase_keys[f][phase] for f in maps)
            subset = self._subsets.get(subset_key)
            if subset is None:
                from ...faults.injection import build_faulty_array

                subset = self._subsets[subset_key] = BatchedSystolicArray([
                    self._arrays[f] if self._phase_maps is None
                    else build_faulty_array(self._phase_maps[phase][f],
                                            fmt=self._fmt)
                    for f in maps])
            # Every runner of a layer reads the float64 matrix of the
            # layer's clean kernel, so a pass keeps one copy per layer.
            clean = self._clean[self._op_of_affine[spec.index]]
            runner = self._runners[key] = FaultyAffineRunner(
                subset, subset.prepare_weight(clean.weight_matrix), spec)
        return runner

    def _layout_for(self, batch: int) -> _Layout:
        """The lane layout for ``batch``-sample inputs.

        The layout is kept while its blocks are no larger than ``batch``
        wants (a short final batch reuses it) and rebuilt when they are.
        """

        block = max(1, LANE_SAMPLES // max(1, batch))
        if self._layout is None or self._layout.block > block:
            self._layout = self._build_layout(block)
        return self._layout

    def _build_layout(self, block: int) -> _Layout:
        """Cut the fork order into lanes of up to ``block`` same-fork maps."""

        ops = self.plan.ops
        order = self.fork_order
        num_phases = len(self._phase_keys[0])
        lanes: List[_Lane] = []
        begin = 0
        while begin < len(order):
            fork = self._divergence[order[begin]]
            end = begin + 1
            while (end < len(order) and end - begin < block
                   and self._divergence[order[end]] == fork):
                end += 1
            maps = order[begin:end]
            # runners[phase][ordinal] is None before the fork op; the fork
            # structure is phase-independent, only the faults behind the
            # runners change.
            runners = [[None if spec.index < fork
                        else self._runner(maps, phase, spec)
                        for spec in self.plan.affine_specs]
                       for phase in range(num_phases)]
            lanes.append(_Lane(maps, self._op_of_affine[fork], runners))
            begin = end

        # Fork ops: the clean pass builds each one's shared entry operands
        # once per step (any entering runner can: they share the weight),
        # with the dense product whenever some entering map multiplies the
        # shared weight rather than its own.
        entries: Dict[int, Tuple[FaultyAffineRunner, bool]] = {}
        for lane in lanes:
            ordinal = ops[lane.start].index
            entering = [row[ordinal] for row in lane.runners]
            runner, dense = entries.get(lane.start, (entering[0], False))
            entries[lane.start] = (
                runner,
                dense or any(r.stacked_weights is None for r in entering))
        # Fork-lane activations keep an explicit leading fault-map axis
        # ((maps, batch, ...)), so the conv outputs never need a re-fold
        # copy.  The lanes run one after another, so they share kernels.
        first = min((lane.start for lane in lanes), default=len(ops))
        kernels = [None if isinstance(op, AffineSpec) or i < first
                   else KERNEL_SET.make_kernel(op, batch_ndim=2)
                   for i, op in enumerate(ops)]
        return _Layout(block, lanes, entries, kernels)

    # ------------------------------------------------------------------
    def _phase_for_step(self, step: int) -> int:
        """Live-fault phase of SNN time step ``step`` (0 when permanent)."""

        if self._step_phase is None:
            return 0
        if step >= len(self._step_phase):
            raise ValueError(
                f"model ran more than {len(self._step_phase)} time steps "
                "but the transient fault schedules only cover "
                f"{len(self._step_phase)}")
        return self._step_phase[step]

    @staticmethod
    def _first_affected(array: SystolicArray, probe: BatchedSystolicArray,
                        affine_specs: Sequence[AffineSpec]) -> Optional[int]:
        """First affine ordinal whose output the map's faults can alter.

        A layer is touched when the simulator would build at least one
        fault chain for it (asked of ``probe`` -- a single-map
        :class:`BatchedSystolicArray` -- so the feature-to-column mapping
        and active-fault filtering stay the simulator's own), when a
        bypassed PE's weight mask covers any weight element, or when a
        weight-SRAM-faulty PE holds any of the layer's weights.  Note a
        populated chain counts even when no fault row falls inside a tile:
        the simulator still *recomputes* those columns through the
        segment-GEMM path, so only maps reported clean here are guaranteed
        bit-identical to the dense product.
        """

        bypassed = array.bypassed_coordinates
        weight_faulty = {(site.row, site.col)
                         for site in array.weight_fault_sites()}
        for spec in affine_specs:
            out_features, in_features = spec.weight_matrix_shape
            if probe._chain_tables(out_features):
                return spec.index
            for coords in (bypassed, weight_faulty):
                if coords:
                    mask = faulty_weight_mask(coords, (out_features, in_features),
                                              array.rows, array.cols)
                    if mask.any():
                        return spec.index
        return None

    # ------------------------------------------------------------------
    def _run_clean(self, x_c: Optional[np.ndarray], start: int, stop: int,
                   stash: Dict[int, ForkEntry], entries: Dict[int, Tuple]
                   ) -> Optional[np.ndarray]:
        """Advance the clean lane, building the fork-entry operands.

        ``stash[i]`` receives the shared :class:`ForkEntry` of every affine
        op ``i`` some map forks at, built from the clean *input* of that
        op; the lanes read it afterwards, never write it.
        """

        ops = self.plan.ops
        for i in range(start, stop):
            op = ops[i]
            if isinstance(op, AffineSpec):
                entry = entries.get(i)
                if entry is not None:
                    runner, dense = entry
                    stash[i] = runner.entry(x_c, dense)
                x_c = (self._clean[i].run(x_c)
                       if self._clean_out_needed[op.index] else None)
            elif x_c is not None:
                x_c = self._clean[i].run(x_c)
        return x_c

    def _run_lane(self, lane: _Lane, kernels: Sequence, x_v: Optional[np.ndarray],
                  start: int, stop: int, stash: Dict[int, ForkEntry], phase: int
                  ) -> Optional[np.ndarray]:
        """Advance one lane's fork activations over ops ``[start, stop)``.

        The lane enters at its fork op with the shared entry operands and
        afterwards carries its own ``(maps, batch, ...)`` activations.
        """

        ops = self.plan.ops
        runners = lane.runners[phase]
        for i in range(max(start, lane.start), stop):
            op = ops[i]
            if not isinstance(op, AffineSpec):
                x_v = kernels[i].run(x_v)
                continue
            runner = runners[op.index]
            x_v = (runner.run_entry(stash[i]) if i == lane.start
                   else runner.run(x_v))
        return x_v

    def _clean_pass(self, frames: Sequence[np.ndarray], static: bool,
                    entries: Dict[int, Tuple]
                    ) -> Tuple[Optional[np.ndarray], List[Dict[int, ForkEntry]]]:
        """Run the clean lane over every time step.

        Returns the summed clean outputs (``None`` when no map stays clean)
        and one stash per step holding the shared :class:`ForkEntry` of
        every fork op.  The prefix is stateless, so for static inputs it
        runs once and every step's stash shares its entries.
        """

        for kernel in self._clean:
            if isinstance(kernel, NeuronKernel):
                kernel.reset()
        acc: Optional[np.ndarray] = None
        stashes: List[Dict[int, ForkEntry]] = []
        prefix: Optional[Tuple] = None
        for frame in frames:
            if prefix is None or not static:
                prefix_stash: Dict[int, ForkEntry] = {}
                prefix = (self._run_clean(frame, 0, self._prefix, prefix_stash,
                                          entries), prefix_stash)
            x_c, stash = prefix[0], dict(prefix[1])
            x_c = self._run_clean(x_c, self._prefix, len(self.plan.ops), stash,
                                  entries)
            stashes.append(stash)
            if x_c is not None:
                if acc is None:
                    acc = x_c.copy()
                else:
                    np.add(acc, x_c, out=acc)
        return acc, stashes

    def _lane_pass(self, lane: _Lane, kernels: Sequence,
                   stashes: Sequence[Dict[int, ForkEntry]],
                   phases: Sequence[int], static: bool) -> np.ndarray:
        """Run one lane over every time step; return its summed outputs.

        The shared kernels' neuron state restarts at rest.  For static
        inputs the lane's prefix output is cached per live-fault phase, as
        a copy (see the module docstring).
        """

        for kernel in kernels:
            if isinstance(kernel, NeuronKernel):
                kernel.reset()
        acc: Optional[np.ndarray] = None
        cached: Dict[int, np.ndarray] = {}
        for stash, phase in zip(stashes, phases):
            x_v = cached.get(phase)
            if x_v is None:
                x_v = self._run_lane(lane, kernels, None, 0, self._prefix,
                                     stash, phase)
                if static and x_v is not None:
                    x_v = cached[phase] = x_v.copy(order="K")
            x_v = self._run_lane(lane, kernels, x_v, self._prefix,
                                 len(self.plan.ops), stash, phase)
            if acc is None:
                acc = x_v.copy()
            else:
                np.add(acc, x_v, out=acc)
        return acc

    def run(self, inputs) -> np.ndarray:
        """Per-map firing rates of shape ``(F, batch, num_classes)``.

        ``result[f]`` is bit-identical to the autograd forward with the
        model's affine layers routed through ``arrays[f]``.
        """

        x0 = np.asarray(inputs, dtype=np.float64)
        static = x0.ndim in (4, 2)
        frames = list(iter_frames(x0, self.plan.time_steps))
        phases = [self._phase_for_step(step) for step in range(len(frames))]
        layout = self._layout_for(frames[0].shape[0])
        acc_c, stashes = self._clean_pass(frames, static, layout.entries)
        scale = 1.0 / len(frames)
        rates: Optional[np.ndarray] = None
        if acc_c is not None:
            np.multiply(acc_c, scale, out=acc_c)
            rates = np.empty((self.num_maps,) + acc_c.shape)
            rates[self._clean_maps] = acc_c
        for lane in layout.lanes:
            acc = self._lane_pass(lane, layout.kernels, stashes, phases, static)
            np.multiply(acc, scale, out=acc)
            if rates is None:
                rates = np.empty((self.num_maps,) + acc.shape[1:])
            rates[lane.maps] = acc
        return rates

    def evaluate(self, loader) -> List[float]:
        """Per-fault-map accuracies over all batches of ``loader``."""

        correct = np.zeros(self.num_maps, dtype=np.int64)
        total = 0
        for inputs, labels in loader:
            rates = self.run(inputs)
            predictions = np.argmax(rates, axis=2)
            correct += np.sum(predictions == labels[None, :], axis=1)
            total += labels.shape[0]
        if not total:
            return [0.0] * self.num_maps
        return [int(c) / total for c in correct]
