"""Fault-injection framework for systolicSNNs.

Fault models (permanent datapath stuck-at, weight-SRAM stuck-at, transient
per-time-step schedules), per-chip fault maps, ``evaluate_with_faults``
(one accuracy per fault map or schedule, on the fused engine or the
sequential ``FaultInjector`` oracle), the vulnerability sweep drivers
that regenerate the paper's Fig. 5, the campaign engine, and the
sharded orchestrator that scales sweeps and retraining grids across worker
processes and machines (see ``docs/ARCHITECTURE.md``).
"""

from .fault_model import (
    StuckAtFault,
    StuckAtType,
    TransientFault,
    WeightSRAMFault,
)
from .fault_map import (
    FaultMap,
    FaultSchedule,
    SCHEDULE_PROCESSES,
    bernoulli_schedule,
    burst_schedule,
    clustered_schedule,
    fault_map_from_rate,
    random_fault_map,
    random_weight_fault_map,
    schedule_from_process,
    schedule_phases,
)
from .injection import (
    FaultInjector,
    build_faulty_array,
    evaluate_with_faults,
)
from .campaign import (
    CampaignPoint,
    CampaignRunner,
    RUNNER_OPTIONS,
    check_runner_options,
    load_cached_record,
    store_record_safe,
)
from .orchestrator import (
    CampaignOrchestrator,
    OrchestratorResult,
    PendingShardError,
    ShardSpec,
    SweepReport,
    WorkUnit,
)
from .analysis import (
    sweep_array_sizes,
    sweep_bit_locations,
    sweep_faulty_pe_count,
)

__all__ = [
    "StuckAtFault",
    "StuckAtType",
    "TransientFault",
    "WeightSRAMFault",
    "FaultMap",
    "FaultSchedule",
    "SCHEDULE_PROCESSES",
    "bernoulli_schedule",
    "burst_schedule",
    "clustered_schedule",
    "fault_map_from_rate",
    "random_fault_map",
    "random_weight_fault_map",
    "schedule_from_process",
    "schedule_phases",
    "FaultInjector",
    "build_faulty_array",
    "evaluate_with_faults",
    "CampaignPoint",
    "CampaignRunner",
    "RUNNER_OPTIONS",
    "check_runner_options",
    "CampaignOrchestrator",
    "OrchestratorResult",
    "PendingShardError",
    "ShardSpec",
    "SweepReport",
    "WorkUnit",
    "load_cached_record",
    "store_record_safe",
    "sweep_array_sizes",
    "sweep_bit_locations",
    "sweep_faulty_pe_count",
]
