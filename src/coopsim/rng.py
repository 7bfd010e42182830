"""Counter-based pseudo-random streams for reproducible noise.

The generator is SplitMix64 used in pure counter mode: every variate is a
stateless function of (seed, stream, counter, index), so draws are
reproducible regardless of execution order and parallel runs can share a
master seed with derived per-run streams.  Gaussians come from the basic
Box-Muller transform on two uniform draws.

Draw order convention used by the simulation engine: the noise for actor
``i`` at period ``t`` is ``normal(seed, stream=i, counter=t)``.  Any
reimplementation that follows this convention reproduces the streams
bit for bit.

Array form: ``stream``, ``counter`` and ``index`` may be broadcasting
``np.uint64`` arrays (the engine draws a run's noise as one block, actors
``(1, n)`` by periods ``(H, 1)``); each element has the bits of the scalar
call, as uint64 arithmetic wraps like the masked Python ints.  Box-Muller's
``log`` and ``cos`` go through ``math`` per element: ``np.log`` rounds
differently on a few draws in a thousand.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One SplitMix64 output for the given 64-bit input."""
    x = (x + _GOLDEN) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def _word(seed: int, stream: int, counter: int, index: int) -> int:
    # Small consecutive integers are spread across the word by the golden
    # multiplier before each mixing round, then fully avalanched; three
    # rounds decorrelate the (seed, stream, counter, index) key.
    key = seed & _MASK
    key = splitmix64(key ^ ((stream * _GOLDEN) & _MASK))
    key = splitmix64(key ^ ((counter * _GOLDEN) & _MASK))
    return splitmix64(key ^ ((index * _GOLDEN) & _MASK))


def uniform(seed: int, stream, counter, index=0):
    """Uniform draw in the open interval (0, 1)."""
    # 53-bit mantissa, offset so 0.0 is never returned (log needs > 0).
    return ((_word(seed, stream, counter, index) >> 11) + 0.5) * 2.0**-53


# Elementwise over arrays; a Python float for float inputs.
_box_muller = np.frompyfunc(
    lambda u1, u2: math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2), 2, 1)


def normal(seed: int, stream, counter, index=0):
    """Standard normal draw via Box-Muller on two uniform words."""
    u1 = uniform(seed, stream, counter, 2 * index)
    u2 = uniform(seed, stream, counter, 2 * index + 1)
    z = _box_muller(u1, u2)
    return z if isinstance(z, float) else z.astype(float)


def derive_seed(master_seed: int, config_index: int) -> int:
    """Independent child seed for a numbered run (sweep cell, trial, ...)."""
    return splitmix64((master_seed & _MASK) ^ ((config_index & _MASK) * _GOLDEN & _MASK))
