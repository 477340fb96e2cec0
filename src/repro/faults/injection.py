"""Attaching faulty systolic arrays to trained SNNs for inference.

The :class:`FaultInjector` temporarily re-routes every convolutional and
fully connected layer of a :class:`~repro.snn.network.SpikingClassifier`
through a (possibly faulty) :class:`~repro.systolic.array.SystolicArray`, so
that the accuracy measured afterwards reflects the accelerator's stuck-at
faults -- the tool-flow of the paper's Fig. 4 ("fault injection" followed by
"fault mapping to systolic array").

Two execution modes are provided:

* The **fused engine** (default for every evaluation helper): the model is
  lowered to a :class:`~repro.snn.inference.FusedFaultEngine` -- a flat
  plan of fused pure-numpy kernels with no autograd graph, clean-prefix
  sharing across fault maps that have not yet diverged, and an optional
  float32 mode.  Float64 results are bit-identical to the oracle below.
* The **sequential oracle** -- :class:`FaultInjector` (``engine="autograd"``
  on :func:`evaluate_with_faults` and :func:`evaluate_with_faults_batched`)
  and :class:`TransientFaultInjector` (``engine="sequential"`` on
  :func:`evaluate_with_transient_faults`): one autograd forward pass per
  fault map, with no fast-path assumptions.
"""

from __future__ import annotations

import contextlib
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..autograd import Tensor, no_grad
from ..snn.layers import Conv2d, Linear
from ..snn.network import SpikingClassifier
from ..systolic.array import SystolicArray
from ..systolic.fixed_point import DEFAULT_ACCUMULATOR_FORMAT, FixedPointFormat
from .fault_map import FaultMap, FaultSchedule, schedule_phases

#: Execution engines accepted by the evaluation helpers: the fused
#: no-autograd plan (default) or the autograd fault-injector reference.
EVAL_ENGINES = ("fused", "autograd")

#: Execution engines accepted by :func:`evaluate_with_transient_faults`:
#: the phase-aware fused plan (default) or the per-schedule sequential
#: oracle.
TRANSIENT_EVAL_ENGINES = ("fused", "sequential")


def _check_eval_engine(engine: str, dtype: str,
                       lane_threads: Optional[int] = None,
                       backend=None, engines=EVAL_ENGINES) -> None:
    if engine not in engines:
        raise ValueError(f"unknown engine '{engine}'; options: {engines}")
    if engine != "fused" and dtype != "float64":
        raise ValueError("dtype overrides require the fused engine")
    if engine != "fused" and lane_threads is not None and int(lane_threads) != 1:
        raise ValueError("lane_threads overrides require the fused engine")
    if engine != "fused" and backend is not None:
        raise ValueError("backend overrides require the fused engine")


class FaultInjector(contextlib.AbstractContextManager):
    """Context manager that runs a model's affine layers on a systolic array.

    Parameters
    ----------
    model:
        Trained spiking classifier.
    array:
        Systolic array carrying the fault map (and, optionally, bypass state).
    layer_filter:
        Optional predicate selecting which affine layers to re-route; by
        default every :class:`Conv2d` and :class:`Linear` layer is mapped to
        the array, matching the paper's accelerator which executes all
        convolutional and fully connected layers on the same PE grid.
    """

    def __init__(self, model: SpikingClassifier, array: SystolicArray,
                 layer_filter=None) -> None:
        self.model = model
        self.array = array
        self.layer_filter = layer_filter or (lambda layer: True)
        self._original_forwards: List[Tuple[object, callable]] = []

    # ------------------------------------------------------------------
    def _target_layers(self) -> List[object]:
        layers = [m for m in self.model.modules() if isinstance(m, (Conv2d, Linear))]
        return [layer for layer in layers if self.layer_filter(layer)]

    def _make_faulty_forward(self, layer):
        array = self.array

        if isinstance(layer, Conv2d):
            def forward(x: Tensor) -> Tensor:
                bias = layer.bias.data if layer.bias is not None else None
                result = array.conv2d(layer.weight.data, x.data, bias=bias,
                                      stride=layer.stride, padding=layer.padding)
                return Tensor(result)
        else:
            def forward(x: Tensor) -> Tensor:
                bias = layer.bias.data if layer.bias is not None else None
                result = array.matmul(layer.weight.data, x.data, bias=bias)
                return Tensor(result)
        return forward

    def __enter__(self) -> "FaultInjector":
        for layer in self._target_layers():
            self._original_forwards.append((layer, layer.forward))
            # Shadow the class-level forward with an instance attribute; the
            # class method reappears untouched once the shadow is removed.
            object.__setattr__(layer, "forward", self._make_faulty_forward(layer))
        return self

    def __exit__(self, *exc_info) -> None:
        for layer, _original in self._original_forwards:
            if "forward" in layer.__dict__:
                object.__delattr__(layer, "forward")
        self._original_forwards = []


class TransientFaultInjector(contextlib.AbstractContextManager):
    """Sequential oracle for one transient fault schedule.

    Every re-routed affine layer is executed once per SNN time step, so a
    per-layer call counter *is* the time step; the layer's GEMM is routed
    through the :class:`SystolicArray` carrying exactly the faults live at
    that step (arrays are shared between steps with identical live sets).
    ``model.forward`` is shadowed too, purely to reset the counters at the
    start of each batch.

    This path makes no fast-path assumptions -- each step runs the full
    per-map array simulation -- which is what makes it the oracle the
    fused transient path is pinned against.
    """

    def __init__(self, model: SpikingClassifier, schedule: FaultSchedule,
                 fmt: FixedPointFormat = DEFAULT_ACCUMULATOR_FORMAT,
                 layer_filter=None) -> None:
        self.model = model
        self.schedule = schedule
        self.layer_filter = layer_filter or (lambda layer: True)
        step_phase, phase_maps = schedule_phases([schedule])
        self._step_phase = step_phase
        self._arrays = [build_faulty_array(maps[0], fmt=fmt)
                        for maps in phase_maps]
        self._counters: dict = {}
        self._original_forwards: List[Tuple[object, callable]] = []

    def _target_layers(self) -> List[object]:
        layers = [m for m in self.model.modules() if isinstance(m, (Conv2d, Linear))]
        return [layer for layer in layers if self.layer_filter(layer)]

    def _make_transient_forward(self, layer):
        arrays = self._arrays
        step_phase = self._step_phase
        counters = self._counters
        key = id(layer)
        is_conv = isinstance(layer, Conv2d)

        def forward(x: Tensor) -> Tensor:
            step = counters.get(key, 0)
            counters[key] = step + 1
            if step >= len(step_phase):
                raise ValueError(
                    f"layer ran more than {len(step_phase)} time steps but "
                    f"the fault schedule only covers {len(step_phase)}")
            array = arrays[step_phase[step]]
            bias = layer.bias.data if layer.bias is not None else None
            if is_conv:
                result = array.conv2d(layer.weight.data, x.data, bias=bias,
                                      stride=layer.stride, padding=layer.padding)
            else:
                result = array.matmul(layer.weight.data, x.data, bias=bias)
            return Tensor(result)
        return forward

    def __enter__(self) -> "TransientFaultInjector":
        for layer in self._target_layers():
            self._original_forwards.append((layer, layer.forward))
            object.__setattr__(layer, "forward", self._make_transient_forward(layer))
        counters = self._counters
        original_forward = self.model.forward

        def reset_forward(*args, **kwargs):
            counters.clear()
            return original_forward(*args, **kwargs)

        object.__setattr__(self.model, "forward", reset_forward)
        return self

    def __exit__(self, *exc_info) -> None:
        for layer, _original in self._original_forwards:
            if "forward" in layer.__dict__:
                object.__delattr__(layer, "forward")
        self._original_forwards = []
        if "forward" in self.model.__dict__:
            object.__delattr__(self.model, "forward")
        self._counters.clear()


def build_faulty_array(fault_map: FaultMap,
                       fmt: FixedPointFormat = DEFAULT_ACCUMULATOR_FORMAT,
                       bypass: bool = False) -> SystolicArray:
    """Construct a :class:`SystolicArray` loaded with ``fault_map``.

    ``bypass=True`` enables the bypass multiplexer of every faulty PE (the
    mitigated hardware of Fig. 3b); ``bypass=False`` models the unmitigated
    chip used in the vulnerability analysis.
    """

    array = SystolicArray(fault_map.rows, fault_map.cols, fmt=fmt)
    array.load_fault_map(fault_map)
    if bypass:
        array.bypass_faulty_pes()
    return array


def evaluate_with_faults(model: SpikingClassifier, loader,
                         fault_map: Optional[FaultMap] = None,
                         array: Optional[SystolicArray] = None,
                         bypass: bool = False,
                         fmt: FixedPointFormat = DEFAULT_ACCUMULATOR_FORMAT,
                         engine: str = "fused",
                         dtype: str = "float64",
                         plan_cache=None,
                         plan_token: Optional[str] = None,
                         lane_threads: Optional[int] = None,
                         backend: Optional[str] = None) -> float:
    """Measure the classification accuracy of ``model`` under fault injection.

    Parameters
    ----------
    model:
        Trained :class:`~repro.snn.network.SpikingClassifier`.
    loader:
        Evaluation data loader; accuracy is measured over all its batches.
    fault_map:
        Fault map to inject; ignored when a prepared ``array`` is given
        (exactly one of the two is required).
    array:
        Prepared faulty :class:`~repro.systolic.array.SystolicArray`.
    bypass:
        Enable the bypass multiplexer of faulty PEs (mitigated hardware).
    fmt:
        Accumulator fixed-point format of the simulated array.
    engine:
        ``"fused"`` (default) lowers the model to the no-autograd inference
        plan; ``"autograd"`` routes through the software forward.  float64
        results are bit-identical across both.
    dtype:
        ``"float64"`` (default) or ``"float32"``; the latter requires the
        fused engine and trades bit-identity for speed.
    plan_cache:
        Optional :class:`~repro.snn.inference.PlanCache` the fused engine
        fetches the lowered inference plan from instead of re-lowering
        (content-keyed, so it cannot go stale across different models).
    plan_token:
        Optional precomputed model token for the cache lookup, skipping
        the per-call state hashing (ignored without ``plan_cache``).
    lane_threads:
        Fork-lane thread count of the fused engine (``None`` resolves
        ``REPRO_LANE_THREADS``, default 1; 0 auto-sizes).  Results are
        bit-identical for every value; non-default values require
        ``engine="fused"``.
    backend:
        Kernel backend of the fused engine (``None`` resolves
        ``REPRO_BACKEND``, default ``"numpy"``).  float64 results are
        byte-identical across backends; requires ``engine="fused"``.

    Returns
    -------
    float
        Accuracy in ``[0, 1]``.
    """

    _check_eval_engine(engine, dtype, lane_threads, backend)
    if array is None:
        if fault_map is None:
            raise ValueError("either fault_map or array must be provided")
        array = build_faulty_array(fault_map, fmt=fmt, bypass=bypass)

    if engine == "fused":
        from ..snn.inference import FusedFaultEngine

        with FusedFaultEngine(model, [array], dtype=dtype,
                              plan_cache=plan_cache,
                              plan_token=plan_token,
                              lane_threads=lane_threads,
                              backend=backend) as fused:
            return fused.evaluate(loader)[0]

    was_training = model.training
    model.eval()
    correct = 0
    total = 0
    try:
        with FaultInjector(model, array), no_grad():
            for inputs, labels in loader:
                rates = model(Tensor(inputs))
                predictions = np.argmax(rates.data, axis=1)
                correct += int(np.sum(predictions == labels))
                total += labels.shape[0]
    finally:
        model.train(was_training)
    return correct / total if total else 0.0


def evaluate_with_faults_batched(model: SpikingClassifier, loader,
                                 fault_maps: Optional[Sequence[FaultMap]] = None,
                                 bypass: bool = False,
                                 fmt: FixedPointFormat = DEFAULT_ACCUMULATOR_FORMAT,
                                 engine: str = "fused",
                                 dtype: str = "float64",
                                 plan_cache=None,
                                 plan_token: Optional[str] = None,
                                 lane_threads: Optional[int] = None,
                                 backend: Optional[str] = None
                                 ) -> List[float]:
    """Measure per-fault-map accuracies of ``model`` in one multi-map pass.

    On the fused engine the whole sweep point -- all ``F`` fault maps --
    costs roughly one (``F``-times wider) inference instead of ``F`` full
    inferences.

    Parameters
    ----------
    model:
        Trained :class:`~repro.snn.network.SpikingClassifier`.
    loader:
        Evaluation data loader; accuracy is measured over all its batches.
    fault_maps:
        Fault maps to evaluate (at least one).
    bypass:
        Enable the bypass multiplexer of faulty PEs (mitigated hardware).
    fmt:
        Accumulator fixed-point format of the simulated arrays.
    engine:
        ``"fused"`` (default) additionally shares the clean activation
        prefix across fault maps that have not yet diverged (see
        :class:`~repro.snn.inference.FusedFaultEngine`); ``"autograd"``
        is the sequential oracle, one :func:`evaluate_with_faults`
        software forward per map.
    dtype:
        ``"float64"`` (default) or ``"float32"`` (fused engine only).
    plan_cache:
        Optional :class:`~repro.snn.inference.PlanCache` the fused engine
        fetches the lowered inference plan from instead of re-lowering.
    plan_token:
        Optional precomputed model token for the cache lookup, skipping
        the per-call state hashing (ignored without ``plan_cache``).
    lane_threads:
        Fork-lane thread count of the fused engine (``None`` resolves
        ``REPRO_LANE_THREADS``, default 1; 0 auto-sizes): the per-step
        fork work of the maps is split into that many thread-parallel
        lanes.  Results are bit-identical for every value; non-default
        values require ``engine="fused"``.
    backend:
        Kernel backend of the fused engine (``None`` resolves
        ``REPRO_BACKEND``, default ``"numpy"``).  float64 results are
        byte-identical across backends; requires ``engine="fused"``.

    Returns
    -------
    list of float
        One accuracy per fault map, in input order.  In float64 the list
        matches ``[evaluate_with_faults(model, loader, fault_map=m) for m
        in fault_maps]`` bit for bit, independent of which maps share the
        pass -- the per-map independence the campaign merge/chunking
        machinery relies on.
    """

    _check_eval_engine(engine, dtype, lane_threads, backend)
    if not fault_maps:
        raise ValueError("at least one fault map is required")
    if engine == "autograd":
        return [evaluate_with_faults(model, loader, fault_map=fault_map,
                                     bypass=bypass, fmt=fmt, engine="autograd")
                for fault_map in fault_maps]

    from ..snn.inference import FusedFaultEngine

    arrays = [build_faulty_array(fault_map, fmt=fmt, bypass=bypass)
              for fault_map in fault_maps]
    with FusedFaultEngine(model, arrays, dtype=dtype,
                          plan_cache=plan_cache,
                          plan_token=plan_token,
                          lane_threads=lane_threads,
                          backend=backend) as fused:
        return fused.evaluate(loader)


def evaluate_with_transient_faults(model: SpikingClassifier, loader,
                                   schedules: Sequence[FaultSchedule], *,
                                   fmt: FixedPointFormat = DEFAULT_ACCUMULATOR_FORMAT,
                                   engine: str = "fused",
                                   dtype: str = "float64",
                                   plan_cache=None,
                                   plan_token: Optional[str] = None,
                                   lane_threads: Optional[int] = None,
                                   backend: Optional[str] = None
                                   ) -> List[float]:
    """Measure per-schedule accuracies of ``model`` under transient faults.

    Parameters
    ----------
    model:
        Trained :class:`~repro.snn.network.SpikingClassifier`.
    loader:
        Evaluation data loader; accuracy is measured over all its batches.
    schedules:
        One :class:`~repro.faults.fault_map.FaultSchedule` per trial.  All
        must share grid dimensions and ``num_steps``; the model must not
        run more time steps than the schedules cover (running fewer is
        fine -- late faults simply never fire).
    fmt:
        Accumulator fixed-point format of the simulated arrays.
    engine:
        ``"fused"`` (default) runs the phase-aware
        :class:`~repro.snn.inference.FusedFaultEngine`; ``"sequential"``
        the per-schedule :class:`TransientFaultInjector` oracle.  float64
        results are bit-identical across both.
    dtype:
        ``"float64"`` (default) or ``"float32"`` (fused engine only).
    plan_cache / plan_token / lane_threads / backend:
        Fused-engine options, as in :func:`evaluate_with_faults_batched`.

    Returns
    -------
    list of float
        One accuracy per schedule, in input order.

    Notes
    -----
    Transient schedules model the unmitigated chip: there is no ``bypass``
    option (bypassing a PE for the whole inference would mask the fault on
    its clean steps too, a different -- permanent -- mitigation model).
    """

    schedules = list(schedules)
    if not schedules:
        raise ValueError("at least one schedule is required")
    _check_eval_engine(engine, dtype, lane_threads, backend,
                       engines=TRANSIENT_EVAL_ENGINES)

    if engine == "fused":
        from ..snn.inference import FusedFaultEngine

        with FusedFaultEngine(model, schedules=schedules, fmt=fmt,
                              dtype=dtype, plan_cache=plan_cache,
                              plan_token=plan_token,
                              lane_threads=lane_threads,
                              backend=backend) as fused:
            return fused.evaluate(loader)

    was_training = model.training
    model.eval()
    try:
        accuracies = []
        for schedule in schedules:
            correct = 0
            total = 0
            with TransientFaultInjector(model, schedule, fmt=fmt), no_grad():
                for inputs, labels in loader:
                    rates = model(Tensor(inputs))
                    predictions = np.argmax(rates.data, axis=1)
                    correct += int(np.sum(predictions == labels))
                    total += labels.shape[0]
            accuracies.append(correct / total if total else 0.0)
        return accuracies
    finally:
        model.train(was_training)
