"""Deterministic pseudo-random streams for data generation and training.

Everything downstream of a seed is produced by SplitMix64 (the 64-bit
splittable mixer of Steele, Lea and Flood) plus Box-Muller for normal
deviates.  The algorithm is short enough to re-implement from this file
alone, so a port in any language reproduces datasets and weight
initializations bit-for-bit at f64 precision.

Draw conventions, fixed forever.  Every value is defined by the u64
sequence of ``next_u64``, which is all a port has to follow:

* A uniform value is ``(next_u64() >> 11) * 2**-53`` in ``[0, 1)``, and
  ``uniform_array(low, high, shape)`` holds ``low + (high - low) * u`` for
  successive uniform values ``u``.
* Gaussians come in Box-Muller pairs from two consecutive u64 draws
  ``a`` and ``b``: ``u1 = ka * 2**-53`` in ``(0, 1]`` with
  ``ka = (a >> 11) + 1``, and ``u2 = kb * 2**-53`` in ``[0, 1)`` with
  ``kb = b >> 11``.  The pair is ``R cos(2 pi u2)``, ``R sin(2 pi u2)``
  with ``R = sqrt(-2 log u1)``, computed by recipe v2 below; the cosine
  variate comes first.  A ``gauss_array`` call of odd length caches its
  last sine variate, and the next call returns it first.
* ``permutation(n)`` is a backward Fisher-Yates: for ``i = n-1 .. 1`` it
  swaps entries ``i`` and ``next_u64() % (i + 1)`` (the modulo bias at
  2**-64 is irrelevant at these ranges and keeps the recipe one line).
* ``split()`` seeds a child stream with one u64 from the parent.

Box-Muller recipe v2.  ``log``, ``cos`` and ``sin`` do not come from the
platform's libm, which need not be correctly rounded.  A pair is built
only from binary64 ``+ - * /`` and ``sqrt`` (each correctly rounded,
ties to even), exact scaling by powers of two, ``frexp``, integer bit
operations and a sign-and-swap table.  The steps, in this order and with
these parentheses (the constants are the hex literals below the imports):

* Radius.  ``(m, e) = frexp(u1)``, so ``u1 = m * 2**e`` with ``m`` in
  ``[0.5, 1)``; if ``m < SQRT_HALF`` then ``m = m + m`` and ``e = e - 1``,
  so ``m`` lies in ``[sqrt(1/2), sqrt(2))``.  Then ``f = m - 1`` (exact),
  ``s = f / (2 + f)``, ``z = s * s``, ``hfsq = (0.5 * f) * f``,
  ``P = z * (LG1 + z * (LG2 + ... + z * LG7))`` by Horner, and
  ``log u1 = e * LN2_HI - ((hfsq - (s * (hfsq + P) + e * LN2_LO)) - f)``.
  ``LN2_HI`` has 32 significant bits, so ``e * LN2_HI`` is exact.
  Finally ``R = sqrt(-2 * log u1)``.
* Angle.  ``u2`` is dyadic, so the reduction to an octant is exact:
  ``q = kb >> 50`` is ``floor(8 u2)``, and ``j = kb & (2**50 - 1)`` gives
  ``r = j * 2**-50 = 8 u2 - q``.  In odd octants ``j = 2**50 - j``, that
  is ``r = 1 - r``.  Then ``x = j * (PIO4 * 2**-50)``, which is
  ``r * PIO4`` rounded once, lies in ``[0, pi/4]``.  With ``z = x * x``,
  ``sin x = x + (z * x) * (S1 + z * (S2 + ... + z * S6))``, and with
  ``hz = 0.5 * z`` and ``w = 1 - hz``,
  ``cos x = w + (((1 - w) - hz) + z * (z * (C1 + z * (C2 + ... + z * C6))))``.
* Octant.  With ``rc = R * cos x`` and ``rs = R * sin x``, the (cosine,
  sine) variates for ``q = 0 .. 7`` are ``(rc, rs)``, ``(rs, rc)``,
  ``(-rs, rc)``, ``(-rc, rs)``, ``(-rc, -rs)``, ``(-rs, -rc)``,
  ``(rs, -rc)`` and ``(rc, -rs)``, each computed as ``rc * t + rs * t'``
  with ``t, t'`` in ``{-1, 0, 1}`` (``_OCTANT``), which is exact.

The coefficients and the ``LN2_HI``/``LN2_LO`` split are fdlibm's
(``e_log.c``, ``k_sin.c``, ``k_cos.c``).  The pair differs from the
``math`` module's Box-Muller of the same ``u1`` and ``u2`` by a few units
in the last place.  A port needs IEEE binary64 arithmetic without fused
multiply-add contraction (C: ``-ffp-contract=off``); numpy does not
contract.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# values (uniform_array) or Box-Muller pairs (gauss_array) per uint64 block;
# bounds the temporaries of an array draw whatever its size
_BLOCK = 4096

# Box-Muller v2 constants, named as in the module docstring
_F = float.fromhex
_SQRT_HALF = _F("0x1.6a09e667f3bcdp-1")
_LN2_HI = _F("0x1.62e42fee00000p-1")
_LN2_LO = _F("0x1.a39ef35793c76p-33")
_LG = tuple(map(_F, (  # LG1 .. LG7
    "0x1.5555555555593p-1", "0x1.999999997fa04p-2", "0x1.2492494229359p-2",
    "0x1.c71c51d8e78afp-3", "0x1.7466496cb03dep-3", "0x1.39a09d078c69fp-3",
    "0x1.2f112df3e5244p-3")))
_PIO4_2M50 = _F("0x1.921fb54442d18p-51")  # PIO4 = 0x1.921fb54442d18p-1, times 2**-50
_SIN = tuple(map(_F, (  # S1 .. S6
    "-0x1.5555555555549p-3", "0x1.111111110f8a6p-7", "-0x1.a01a019c161d5p-13",
    "0x1.71de357b1fe7dp-19", "-0x1.ae5e68a2b9cebp-26", "0x1.5d93a5acfd57cp-33")))
_COS = tuple(map(_F, (  # C1 .. C6
    "0x1.555555555554cp-5", "-0x1.6c16c16c15177p-10", "0x1.a01a019cb1590p-16",
    "-0x1.27e4f809c52adp-22", "0x1.1ee9ebdb4b1c4p-29", "-0x1.8fae9be8838d4p-37")))
_MASK50 = (1 << 50) - 1
# column q: (t, t') of the cosine variate rc * t + rs * t', then those of the sine variate
_OCTANT = np.array([[1, 0, 0, -1, -1, 0, 0, 1],
                    [0, 1, -1, 0, 0, -1, 1, 0],
                    [0, 1, 1, 0, 0, -1, -1, 0],
                    [1, 0, 0, 1, -1, 0, 0, -1]], dtype=np.float64)


def _horner(z, coefficients):
    """``c[0] + z * (c[1] + z * (... + z * c[-1]))``."""
    acc = coefficients[-1]
    for c in coefficients[-2::-1]:
        acc = c + z * acc
    return acc


def _box_muller(ka, kb):
    """The (cosine, sine) variates of ``u1 = ka * 2**-53`` and ``u2 = kb * 2**-53``.

    ``ka`` and ``kb`` are equal-length int64 arrays, a block of pairs; they
    take the operations of recipe v2.
    """
    m, e = np.frexp(ka * 2.0**-53)
    low = m < _SQRT_HALF
    m = m + m * low
    e = e - low
    f = m - 1.0
    s = f / (2.0 + f)
    z = s * s
    hfsq = 0.5 * f * f
    log_u1 = e * _LN2_HI - ((hfsq - (s * (hfsq + z * _horner(z, _LG)) + e * _LN2_LO)) - f)
    radius = np.sqrt(-2.0 * log_u1)

    q = kb >> 50
    odd = q & 1
    x = (((kb & _MASK50) ^ (_MASK50 * odd)) + odd) * _PIO4_2M50
    z = x * x
    hz = 0.5 * z
    w = 1.0 - hz
    rc = radius * (w + (((1.0 - w) - hz) + z * (z * _horner(z, _COS))))
    rs = radius * (x + z * x * _horner(z, _SIN))
    cc, cs, sc, ss = _OCTANT.take(q, axis=1)
    return rc * cc + rs * cs, rc * sc + rs * ss


class SplitMix64:
    """Splittable 64-bit generator; one instance per independent stream."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64  # a numpy integer too
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
        """Standard normal deviates over ``shape``, row-major: the cached spare
        first, if any, then Box-Muller pairs, whose odd tail caches its sine variate."""
        out = np.empty(int(np.prod(shape)), dtype=np.float64)
        pos = 0
        if out.size and self._spare_gauss is not None:
            out[0] = self._spare_gauss
            self._spare_gauss = None
            pos = 1
        while pos < out.size:
            pairs = min(_BLOCK, (out.size - pos + 1) // 2)
            k = (self._u64_block(2 * pairs) >> np.uint64(11)).view(np.int64)  # < 2**53
            pair_values = np.empty(2 * pairs)
            pair_values[0::2], pair_values[1::2] = _box_muller(k[0::2] + 1, k[1::2])
            take = min(2 * pairs, out.size - pos)
            out[pos : pos + take] = pair_values[:take]
            if take < 2 * pairs:  # odd tail: cache the sine variate
                self._spare_gauss = float(pair_values[-1])
            pos += take
        return out.reshape(shape)

    def uniform_array(self, low: float, high: float, shape) -> np.ndarray:
        """``low + (high - low) * u`` for successive uniform ``u``, over ``shape``, row-major."""
        out = np.empty(int(np.prod(shape)), dtype=np.float64)
        span = high - low
        for start in range(0, out.size, _BLOCK):
            k = min(_BLOCK, out.size - start)
            out[start : start + k] = low + span * ((self._u64_block(k) >> np.uint64(11)) * 2.0**-53)
        return out.reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n), as int64, for ``n >= 0``;
        ``DomainError`` before any draw otherwise.

        The ``next_u64() % (i + 1)`` draws for ``i = n-1 .. 1`` do not depend on
        the swaps, so they come from one block; the swaps stay sequential.
        """
        if n < 0:
            raise DomainError(f"permutation(n) needs n >= 0, got {n!r}")
        idx = list(range(n))
        if n > 1:
            js = self._u64_block(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)
            for i, j in zip(range(n - 1, 0, -1), js.tolist()):
                idx[i], idx[j] = idx[j], idx[i]
        return np.array(idx, dtype=np.int64)
