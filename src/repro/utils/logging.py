"""Lightweight logging helpers for experiments and examples."""

from __future__ import annotations

import logging
import sys
from typing import Optional

_LOGGER_NAME = "repro"


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """Return the package logger (or a child logger for ``name``)."""

    logger = logging.getLogger(_LOGGER_NAME if name is None else f"{_LOGGER_NAME}.{name}")
    return logger


def configure_logging(level: int = logging.INFO, stream=sys.stderr) -> logging.Logger:
    """Configure the package logger once with a concise format."""

    logger = logging.getLogger(_LOGGER_NAME)
    if not logger.handlers:
        handler = logging.StreamHandler(stream)
        handler.setFormatter(logging.Formatter("[%(asctime)s] %(name)s %(levelname)s: %(message)s",
                                                datefmt="%H:%M:%S"))
        logger.addHandler(handler)
    logger.setLevel(level)
    return logger

