"""Deterministic pseudo-random streams for data generation and training.

Everything downstream of a seed is produced by SplitMix64 (the 64-bit
splittable mixer of Steele, Lea and Flood) plus Box-Muller for normal
deviates.  The algorithm is short enough to re-implement from this file
alone, so a port in any language reproduces datasets and weight
initializations bit-for-bit at f64 precision.

Draw conventions, fixed forever:

* ``uniform()`` is ``(next_u64() >> 11) * 2**-53`` in ``[0, 1)``.
* Gaussians come in Box-Muller pairs from two consecutive u64 draws,
  ``u1 = ((a >> 11) + 1) * 2**-53`` in ``(0, 1]`` and
  ``u2 = (b >> 11) * 2**-53``; the cosine variate is returned first and
  the sine variate is cached for the next call.
* ``below(n)`` is ``next_u64() % n`` (the modulo bias at 2**-64 is
  irrelevant at these ranges and keeps the recipe one line).
* ``permutation(n)`` is a backward Fisher-Yates using ``below``.
* ``split()`` seeds a child stream with one u64 from the parent.

Array draws come from uint64 blocks and equal the scalar sequence bit
for bit.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# values (uniform_array) or Box-Muller pairs (gauss_array) per uint64 block;
# bounds the temporaries of an array draw whatever its size
_BLOCK = 4096


class SplitMix64:
    """Splittable 64-bit generator; one instance per independent stream."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._spare_gauss: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def split(self) -> "SplitMix64":
        """Derive an independent child stream."""
        return SplitMix64(self.next_u64())

    def uniform(self) -> float:
        """f64 in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def gauss(self) -> float:
        """Standard normal deviate (Box-Muller, pair-cached)."""
        if self._spare_gauss is not None:
            z = self._spare_gauss
            self._spare_gauss = None
            return z
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53  # (0, 1], keeps log finite
        u2 = (self.next_u64() >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_gauss = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def _u64_block(self, k: int) -> np.ndarray:
        """The next ``k`` outputs of ``next_u64`` as a uint64 array.

        The state after ``j`` steps is ``state + j * GOLDEN`` and the mix is
        pure, so a block is one wrapping uint64 product plus three vector
        mix steps; ``_state`` advances by ``k * GOLDEN`` mod 2**64.
        """
        z = np.arange(1, k + 1, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self._state)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        self._state = (self._state + _GOLDEN * k) & _MASK64
        return z

    def gauss_array(self, shape) -> np.ndarray:
        """``gauss()`` repeated over ``shape``, row-major, spare included.

        ``log``, ``cos`` and ``sin`` stay the ``math`` ones, applied per
        value: numpy's versions may differ from them in the last bit.
        ``sqrt`` and the products are correctly rounded either way.
        """
        out = np.empty(int(np.prod(shape)), dtype=np.float64)
        pos = 0
        if out.size and self._spare_gauss is not None:
            out[0] = self._spare_gauss
            self._spare_gauss = None
            pos = 1
        while pos < out.size:
            pairs = min(_BLOCK, (out.size - pos + 1) // 2)
            z = self._u64_block(2 * pairs) >> np.uint64(11)
            u1 = ((z[0::2] + np.uint64(1)) * 2.0**-53).tolist()
            angle = ((2.0 * math.pi) * (z[1::2] * 2.0**-53)).tolist()
            log_u1 = np.fromiter(map(math.log, u1), np.float64, pairs)
            r = np.sqrt(-2.0 * log_u1)
            pair_values = np.empty(2 * pairs)
            pair_values[0::2] = r * np.fromiter(map(math.cos, angle), np.float64, pairs)
            pair_values[1::2] = r * np.fromiter(map(math.sin, angle), np.float64, pairs)
            take = min(2 * pairs, out.size - pos)
            out[pos : pos + take] = pair_values[:take]
            if take < 2 * pairs:  # odd tail: cache the sine variate
                self._spare_gauss = float(pair_values[-1])
            pos += take
        return out.reshape(shape)

    def uniform_array(self, low: float, high: float, shape) -> np.ndarray:
        """``low + (high - low) * uniform()`` repeated over ``shape``, row-major."""
        out = np.empty(int(np.prod(shape)), dtype=np.float64)
        span = high - low
        for start in range(0, out.size, _BLOCK):
            k = min(_BLOCK, out.size - start)
            out[start : start + k] = low + span * ((self._u64_block(k) >> np.uint64(11)) * 2.0**-53)
        return out.reshape(shape)

    def below(self, n: int) -> int:
        """Integer in [0, n)."""
        return self.next_u64() % n

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n), as int64.

        The ``below(i + 1)`` draws for ``i = n-1 .. 1`` do not depend on
        the swaps, so they come from one block; the swaps stay sequential.
        """
        idx = list(range(n))
        if n > 1:
            js = self._u64_block(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)
            for i, j in zip(range(n - 1, 0, -1), js.tolist()):
                idx[i], idx[j] = idx[j], idx[i]
        return np.array(idx, dtype=np.int64)
