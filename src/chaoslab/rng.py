"""Counter-based random number generation.

Every draw is a pure function of ``(seed, counter)``: the seed is
expanded to a 64-bit key by a SplitMix64 finalizer, the key is XORed
into the counter, and the result is finalized again.  XORing (rather
than adding) the key keeps the counter lattices of different seeds
disjoint, and any slice of a stream can be produced independently of
any other, so partitioning a batch across workers or chunks cannot
change a single value.  That is the reproducibility contract the
samplers rely on.

Gaussians come from Box-Muller applied to two 64-bit uniforms per draw
(the sine partner is discarded to keep one counter per Gaussian).
Reproducibility is bit-exact within this implementation; across
implementations only the distributions agree.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_TWO_NEG53 = 2.0 ** -53


def _mix_int(z: int) -> int:
    """SplitMix64 finalizer on Python integers."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, vectorized over uint64 arrays."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
    return z ^ (z >> np.uint64(31))


def _key(seed: int) -> np.uint64:
    return np.uint64(_mix_int((int(seed) & _MASK) * _GAMMA + _GAMMA))


def _bits_at(seed: int, counters: np.ndarray) -> np.ndarray:
    return _mix((counters ^ _key(seed)) * np.uint64(_GAMMA) + np.uint64(_GAMMA))


def _uniform_at(seed: int, counters: np.ndarray) -> np.ndarray:
    """Uniforms on (0, 1] at the given uint64 counters."""
    bits = _bits_at(seed, counters)
    return ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * _TWO_NEG53


def uniforms(seed: int, start: int, count: int) -> np.ndarray:
    return _uniform_at(seed, np.arange(start, start + count, dtype=np.uint64))


def gaussians(seed: int, start: int, count: int) -> np.ndarray:
    """Standard normals for counters start .. start+count-1.

    Gaussian ``j`` consumes uniform counters ``2j`` and ``2j+1``; it
    depends on nothing else, so chunked generation is exact.
    """
    ctr = np.arange(start, start + count, dtype=np.uint64)
    u1 = _uniform_at(seed, ctr * np.uint64(2))
    u2 = _uniform_at(seed, ctr * np.uint64(2) + np.uint64(1))
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def rademacher(seed: int, start: int, count: int) -> np.ndarray:
    """Independent +-1 draws with equal probability."""
    ctr = np.arange(start, start + count, dtype=np.uint64)
    return np.where(_bits_at(seed, ctr) >> np.uint64(63), 1.0, -1.0)


def discrete(seed: int, start: int, count: int, values, probs) -> np.ndarray:
    """Iid draws from a finite law given by (values, probs)."""
    u = uniforms(seed, start, count)
    edges = np.cumsum(np.asarray(probs, dtype=float))
    edges[-1] = 1.0 + 1e-12
    idx = np.searchsorted(edges, u, side="left")
    return np.asarray(values, dtype=float)[idx]


def derive(seed: int, label: int) -> int:
    """A decorrelated child seed for an auxiliary stream (bootstrap etc.)."""
    return _mix_int(((int(label) & _MASK) ^ int(_key(seed))) * _M1 + _GAMMA)
