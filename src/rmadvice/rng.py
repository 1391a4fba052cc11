"""Counter-based pseudo-random numbers (splitmix64) with Box-Muller normals.

The generator is deterministic and portable across platforms and processes:
draw i of a stream with key k is ``finalize(k + (i + 1) * GOLDEN)`` where
``finalize`` is the splitmix64 output function, so any draw is reproducible
from (seed, stream, index) alone, and ``normals`` computes the draws of
many streams in one array pass.  ``splitmix64`` and ``derive_key`` take
Python ints or numpy ``uint64`` arrays, whose arithmetic wraps mod 2**64.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(z):
    """splitmix64 output function applied to a 64-bit word."""
    z = z & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_key(seed, stream=0):
    """Mix a user seed and a stream index into an independent 64-bit key.

    Used to give every (experiment cell, trial) its own statistically
    independent stream from a single top-level seed.
    """
    return splitmix64((seed & _MASK64) ^ splitmix64((stream + _GOLDEN) & _MASK64))


def _uniforms(keys: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` draws of every stream in ``keys`` as uniforms
    ``((draw >> 11) + 1) * 2**-53`` in (0, 1], one row per key."""
    index = np.arange(1, count + 1, dtype=np.uint64)
    return ((splitmix64(keys[:, None] + index * _GOLDEN) >> 11) + 1) * 2.0 ** -53


def normals(keys: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` standard normals of every stream in ``keys``.

    ``keys`` is a ``uint64`` array; row ``r`` of the ``(len(keys), count)``
    result belongs to stream ``keys[r]``.  Box-Muller turns uniforms
    ``2j`` and ``2j + 1`` into normals ``2j`` (cosine) and ``2j + 1``
    (sine).  ``log``, ``cos`` and ``sin`` are the scalar ``math``
    functions: numpy's differ from them in the last bit on some inputs.
    """
    pairs = (count + 1) // 2
    u = _uniforms(keys, 2 * pairs)
    shape = (len(keys), pairs)
    log_u = np.array(list(map(math.log, u[:, 0::2].ravel().tolist()))).reshape(shape)
    theta = (2.0 * math.pi * u[:, 1::2]).ravel().tolist()
    radius = np.sqrt(-2.0 * log_u)
    z = np.empty((len(keys), 2 * pairs))
    z[:, 0::2] = radius * np.array(list(map(math.cos, theta))).reshape(shape)
    z[:, 1::2] = radius * np.array(list(map(math.sin, theta))).reshape(shape)
    return z[:, :count]
