"""Fault-mitigation methods: FaP, FaPIT and FalVolt (the paper's contribution)."""

from typing import Dict, Type

from .pruning import (
    PruningMaskCallback,
    affine_layers,
    find_pruned_weight_indices,
    pruned_fraction,
    set_pruned_weights_to_zero,
)
from .base import FaultMitigation, MitigationResult
from .fap import FaultAwarePruning
from .fapit import FaultAwarePruningWithRetraining
from .falvolt import FalVolt

#: Registry of mitigation strategies by their paper names.
MITIGATIONS: Dict[str, Type[FaultMitigation]] = {
    "fap": FaultAwarePruning,
    "fapit": FaultAwarePruningWithRetraining,
    "falvolt": FalVolt,
}


def get_mitigation(name: str, **kwargs) -> FaultMitigation:
    """Instantiate a mitigation by name (``fap``, ``fapit`` or ``falvolt``)."""

    key = name.lower()
    if key not in MITIGATIONS:
        raise KeyError(f"unknown mitigation '{name}'; options: {sorted(MITIGATIONS)}")
    return MITIGATIONS[key](**kwargs)


__all__ = [
    "PruningMaskCallback",
    "affine_layers",
    "find_pruned_weight_indices",
    "pruned_fraction",
    "set_pruned_weights_to_zero",
    "FaultMitigation",
    "MitigationResult",
    "FaultAwarePruning",
    "FaultAwarePruningWithRetraining",
    "FalVolt",
    "MITIGATIONS",
    "get_mitigation",
]
