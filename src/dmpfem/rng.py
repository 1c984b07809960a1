"""Seeded 64-bit pseudo-random stream for all randomized sampling.

A splitmix-style generator: tiny, portable, and fully determined by the seed
recorded in run outputs, so certificates are reproducible byte for byte.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic uint64 stream with uniform/other derived samplers."""

    def __init__(self, seed: int):
        self.state = int(seed) & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        """Uniform doubles in [low, high) built from the top 53 bits."""
        if size is None:
            return low + (high - low) * (self.next_u64() >> 11) * 2.0 ** -53
        n = int(np.prod(size))
        # the same n draws as n next_u64 calls, in wrapping uint64 arithmetic
        z = np.uint64(self.state) + np.uint64(_GAMMA) * np.arange(1, n + 1, dtype=np.uint64)
        self.state = (self.state + n * _GAMMA) & _MASK
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        vals = ((z ^ (z >> np.uint64(31))) >> np.uint64(11)) * 2.0 ** -53
        return (low + (high - low) * vals).reshape(size)

    def integers(self, low: int, high: int, size=None):
        """Integers in [low, high) by scaling uniforms; fine at desk scale."""
        u = self.uniform(0.0, 1.0, size)
        return (low + np.floor(u * (high - low))).astype(np.int64) \
            if size is not None else int(low + int(u * (high - low)))

    def simplex_barycentric(self, npts: int, size: int) -> np.ndarray:
        """Uniform barycentric coordinates via normalized exponentials."""
        u = self.uniform(0.0, 1.0, (size, npts))
        e = -np.log(1.0 - u)
        return e / e.sum(axis=1, keepdims=True)
