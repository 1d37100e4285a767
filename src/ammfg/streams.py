"""Keyed, counter-based random streams.

Every stochastic routine in the package draws from a Philox generator whose
128-bit key is derived from (seed, *labels). Results are therefore bitwise
reproducible for a fixed seed no matter how work is batched or how many
workers run, and two routines share noise exactly when they share a key
(the common-random-numbers contract used by the fixed-point iteration and
the paired estimators).
"""
from __future__ import annotations

import hashlib

import numpy as np


def substream(seed: int, *labels: object) -> np.random.Generator:
    """Generator keyed by (seed, *labels). Same key, same stream, always."""
    material = repr((int(seed),) + labels).encode()
    digest = hashlib.sha256(material).digest()
    key = np.frombuffer(digest, dtype=np.uint64)[:2]  # Philox-4x64 keys are 128-bit
    return np.random.Generator(np.random.Philox(key=key))
