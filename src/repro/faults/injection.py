"""Attaching faulty systolic arrays to trained SNNs for inference.

:func:`evaluate_with_faults` is the tool flow of the paper's Fig. 4 in
one call: inject a set of fault maps (permanent datapath or weight-SRAM
stuck-at) or transient fault schedules, map them onto the systolic array
that runs every convolutional and fully connected layer, and measure one
accuracy per map or schedule.  Two engines execute it:

* ``"fused"`` (default): the model is lowered to a
  :class:`~repro.snn.inference.FusedFaultEngine` -- a flat plan of fused
  pure-numpy kernels with no autograd graph and clean-prefix sharing
  across fault maps that have not yet diverged.  Its results are
  bit-identical to the oracle below.
* ``"sequential"``: the oracle.  :class:`FaultInjector` re-routes the
  affine layers of the autograd model through a
  :class:`~repro.systolic.array.SystolicArray`, one software forward pass
  per fault map or schedule, with no fast-path assumptions.
"""

from __future__ import annotations

import contextlib
from typing import List, Optional, Sequence, Union

from ..autograd import Tensor
from ..snn.layers import Conv2d, Linear
from ..snn.network import SpikingClassifier
from ..snn.training import evaluate
from ..systolic.array import SystolicArray
from ..systolic.fixed_point import DEFAULT_ACCUMULATOR_FORMAT, FixedPointFormat
from .fault_map import FaultMap, FaultSchedule, schedule_phases

#: Execution engines: the fused no-autograd plan (default) or the
#: sequential autograd oracle.
ENGINES = ("fused", "sequential")

#: Why bypass cannot mitigate a transient schedule.
BYPASS_OF_TRANSIENT = (
    "bypass mitigation is not defined for transient fault schedules "
    "(bypassing a PE for the whole inference would mask its clean steps too)")

#: Marks a module whose ``forward`` was not shadowed before injection.
_UNSHADOWED = object()


def _engine_problems(engine: str) -> List[str]:
    """Every problem with an engine choice."""

    if engine not in ENGINES:
        return [f"unknown engine '{engine}'; options: {ENGINES}"]
    return []


def _is_transient(faults: Sequence[Union[FaultMap, FaultSchedule]],
                  bypass: bool) -> bool:
    """Whether ``faults`` are schedules; rejects empty and mixed inputs."""

    if not faults:
        raise ValueError("at least one fault map or schedule is required")
    transient = isinstance(faults[0], FaultSchedule)
    kind = FaultSchedule if transient else FaultMap
    if not all(isinstance(item, kind) for item in faults):
        raise ValueError("faults must be all FaultMaps or all FaultSchedules")
    if transient and bypass:
        raise ValueError(BYPASS_OF_TRANSIENT)
    return transient


class FaultInjector(contextlib.AbstractContextManager):
    """Sequential oracle: runs a model's affine layers on systolic arrays.

    Every re-routed affine layer is executed once per SNN time step, so a
    per-layer call counter *is* the time step.  A permanent array serves
    every step (the one-phase case); a transient schedule is split into
    phases (runs of steps with the same live faults) and each step's GEMM
    goes through the :class:`SystolicArray` carrying exactly the faults
    live at that step.  ``model.forward`` is shadowed too, purely to
    reset the counters at the start of each batch.  On exit the forwards
    that were in place on entry are restored, so injectors nest.

    This path makes no fast-path assumptions -- each step runs the full
    per-map array simulation -- which is what makes it the oracle the
    fused engine is pinned against.

    Parameters
    ----------
    model:
        Trained spiking classifier.
    faults:
        A :class:`SystolicArray` carrying a permanent fault map (and,
        optionally, bypass state), or a
        :class:`~repro.faults.fault_map.FaultSchedule` of transient faults.
    fmt:
        Accumulator format of the arrays built for a schedule (ignored for
        a prepared array).

    Every :class:`Conv2d` and :class:`Linear` layer is mapped to the array,
    matching the paper's accelerator, which executes all convolutional and
    fully connected layers on the same PE grid.
    """

    def __init__(self, model: SpikingClassifier,
                 faults: Union[SystolicArray, FaultSchedule], *,
                 fmt: FixedPointFormat = DEFAULT_ACCUMULATOR_FORMAT) -> None:
        self.model = model
        if isinstance(faults, FaultSchedule):
            step_phase, phase_maps = schedule_phases([faults])
            self._step_phase: Optional[List[int]] = step_phase
            self._arrays = [build_faulty_array(maps[0], fmt=fmt)
                            for maps in phase_maps]
        else:
            self._step_phase = None
            self._arrays = [faults]
        self._counters: dict = {}
        self._saved: list = []

    def _array_for_step(self, step: int) -> SystolicArray:
        if self._step_phase is None:
            return self._arrays[0]
        if step >= len(self._step_phase):
            raise ValueError(
                f"layer ran more than {len(self._step_phase)} time steps but "
                f"the fault schedule only covers {len(self._step_phase)}")
        return self._arrays[self._step_phase[step]]

    def _make_faulty_forward(self, layer):
        counters = self._counters
        key = id(layer)
        is_conv = isinstance(layer, Conv2d)

        def forward(x: Tensor) -> Tensor:
            step = counters.get(key, 0)
            counters[key] = step + 1
            array = self._array_for_step(step)
            bias = layer.bias.data if layer.bias is not None else None
            if is_conv:
                result = array.conv2d(layer.weight.data, x.data, bias=bias,
                                      stride=layer.stride, padding=layer.padding)
            else:
                result = array.matmul(layer.weight.data, x.data, bias=bias)
            return Tensor(result)
        return forward

    def _shadow(self, module, forward) -> None:
        # An instance attribute shadows the class-level forward; __exit__
        # puts back whatever instance attribute (if any) was there before.
        self._saved.append((module, module.__dict__.get("forward", _UNSHADOWED)))
        object.__setattr__(module, "forward", forward)

    def __enter__(self) -> "FaultInjector":
        for layer in self.model.modules():
            if isinstance(layer, (Conv2d, Linear)):
                self._shadow(layer, self._make_faulty_forward(layer))
        counters = self._counters
        original_forward = self.model.forward

        def reset_forward(*args, **kwargs):
            counters.clear()
            return original_forward(*args, **kwargs)

        self._shadow(self.model, reset_forward)
        return self

    def __exit__(self, *exc_info) -> None:
        for module, saved in reversed(self._saved):
            if saved is _UNSHADOWED:
                object.__delattr__(module, "forward")
            else:
                object.__setattr__(module, "forward", saved)
        self._saved = []
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
                         faults: Sequence[Union[FaultMap, FaultSchedule]], *,
                         bypass: bool = False,
                         fmt: FixedPointFormat = DEFAULT_ACCUMULATOR_FORMAT,
                         engine: str = "fused",
                         plan_token: Optional[str] = None) -> List[float]:
    """Measure one accuracy of ``model`` per fault map or schedule.

    On the fused engine all of ``faults`` run in one multi-map pass, which
    costs roughly one (wider) inference instead of one per map.

    Parameters
    ----------
    model:
        Trained :class:`~repro.snn.network.SpikingClassifier`.
    loader:
        Evaluation data loader; accuracy is measured over all its batches.
    faults:
        A non-empty sequence of either :class:`~repro.faults.fault_map.FaultMap`
        objects (permanent faults) or
        :class:`~repro.faults.fault_map.FaultSchedule` objects (transient
        faults), not a mix.  Schedules must share grid dimensions and
        ``num_steps``; the model must not run more time steps than they
        cover (running fewer is fine -- late faults simply never fire).
    bypass:
        Enable the bypass multiplexer of faulty PEs (mitigated hardware).
        Fault maps only: bypassing a PE for the whole inference would mask
        a transient fault on its clean steps too, so schedules reject it.
    fmt:
        Accumulator fixed-point format of the simulated arrays.
    engine:
        ``"fused"`` (default) lowers the model to the no-autograd inference
        plan; ``"sequential"`` runs the :class:`FaultInjector` oracle, one
        software forward per map.  Results are bit-identical across both.
    plan_token:
        Optional model token: the fused engine then fetches the lowered
        plan from the process-wide plan cache instead of lowering anew.

    Returns
    -------
    list of float
        One accuracy in ``[0, 1]`` per map or schedule, in input order.
        Each entry is independent of which other maps share
        the pass -- the per-map independence the campaign merge/chunking
        machinery relies on.
    """

    faults = list(faults)
    transient = _is_transient(faults, bypass)
    problems = _engine_problems(engine)
    if problems:
        raise ValueError("; ".join(problems))

    if engine == "fused":
        from ..snn.inference import FusedFaultEngine

        if transient:
            targets = dict(schedules=faults, fmt=fmt)
        else:
            targets = dict(arrays=[build_faulty_array(m, fmt=fmt, bypass=bypass)
                                   for m in faults])
        return FusedFaultEngine(model, plan_token=plan_token,
                                **targets).evaluate(loader)

    accuracies = []
    for item in faults:
        target = item if transient else build_faulty_array(item, fmt=fmt,
                                                           bypass=bypass)
        with FaultInjector(model, target, fmt=fmt):
            accuracies.append(evaluate(model, loader))
    return accuracies
