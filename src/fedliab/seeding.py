"""Deterministic RNG stream derivation.

Every random draw in the package comes from a Philox counter-based generator
whose key is derived from a user-level seed plus a structural path (domain
tag, node id, epoch, ...). Streams for different paths are independent, and
the same (seed, path) always yields the same stream, regardless of creation
order.
"""

from __future__ import annotations

import hashlib

import numpy as np

_M64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    # splitmix64 finalizer; good avalanche for short structured paths
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return (x ^ (x >> 31)) & _M64


def _encode(part) -> int:
    if isinstance(part, str):
        return int.from_bytes(hashlib.blake2s(part.encode()).digest()[:8], "little")
    return int(part) & _M64


def derive_key(seed: int, *path) -> np.ndarray:
    """Two-word Philox key for (seed, *path)."""
    h = _mix64(_encode(seed))
    for part in path:
        h = _mix64(h ^ _mix64(_encode(part)))
    return np.array([_encode(seed), h], dtype=np.uint64)


def stream(seed: int, *path) -> np.random.Generator:
    """Independent generator for the given seed and derivation path."""
    return np.random.Generator(np.random.Philox(key=derive_key(seed, *path)))


def derive_seed(seed: int, label: str) -> int:
    """Sub-seed for one pipeline stage, independent per label."""
    return _mix64(_encode(seed) ^ _mix64(_encode(label))) & ((1 << 62) - 1)
