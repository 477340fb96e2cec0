"""Deterministic random-number management.

Every stochastic component in the reproduction (dataset synthesis, weight
initialisation, dropout masks, fault-map sampling) draws from a
:class:`numpy.random.Generator` obtained through this module, so experiments
are reproducible bit-for-bit from a single seed.
"""

from __future__ import annotations

import hashlib
from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]

#: Seed used when an experiment does not specify one explicitly.
DEFAULT_SEED = 20230112  # arXiv submission date of the FalVolt paper.


def get_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be an integer, an existing generator (returned unchanged) or
    ``None`` (the module default seed).
    """

    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(int(seed))


def _stable_tag_value(tag: Union[int, str]) -> int:
    """Map a tag to a 63-bit integer that is stable across processes.

    Python's built-in ``hash`` is randomised per process for strings
    (``PYTHONHASHSEED``), which would make every derived seed -- and therefore
    every "seeded" model initialisation and fault map -- different on each
    run.  String tags are digested with BLAKE2b instead, which is stable.
    """

    if isinstance(tag, str):
        digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big") & (2**63 - 1)
    return int(tag) & (2**63 - 1)


def derive_seed(seed: SeedLike, *tags: Union[int, str]) -> int:
    """Derive a child seed deterministically from a parent seed and tags.

    Tags identify the consumer (e.g. ``("fault_map", trial_index)``) so that
    changing one experiment knob does not shift the random stream of another.
    The derivation is stable across processes and platforms, which the
    campaign cache relies on (cache keys embed derived seeds).
    """

    if isinstance(seed, np.random.Generator):
        raise TypeError("derive_seed requires an integer seed, not a Generator")
    if seed is None:
        seed = DEFAULT_SEED
    mix = np.uint64(int(seed))
    for tag in tags:
        tag_value = np.uint64(_stable_tag_value(tag))
        mix = np.uint64((int(mix) * 6364136223846793005 + int(tag_value) + 1442695040888963407)
                        % (2**64))
    return int(mix % (2**63 - 1))
