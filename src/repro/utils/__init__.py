"""Shared utilities: deterministic RNG management, logging, serialization."""

from .rng import DEFAULT_SEED, derive_seed, get_rng
from .hashing import loader_token, model_token, state_token
from .logging import configure_logging, get_logger
from .serialization import load_records, load_state_dict, save_records, save_state_dict

__all__ = [
    "DEFAULT_SEED",
    "derive_seed",
    "get_rng",
    "loader_token",
    "model_token",
    "state_token",
    "configure_logging",
    "get_logger",
    "load_records",
    "load_state_dict",
    "save_records",
    "save_state_dict",
]
