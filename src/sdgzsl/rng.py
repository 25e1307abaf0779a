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

import math
import numbers

import numpy as np

from .errors import DomainError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# values (uniform_array) or Box-Muller pairs (gauss_array) per uint64 block;
# bounds the temporaries of an array draw whatever its size.  The work rows of
# 2**14 pairs stay inside a 2 MB L2 cache, where those of 2**16 do not
_BLOCK = 2**14

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


def _dims(shape) -> tuple:
    """``shape`` as a tuple of integers ``>= 0``: one integer, or a sequence
    of them; ``DomainError`` otherwise."""
    try:
        dims = tuple(shape)
    except TypeError:
        dims = (shape,)
    if not all(isinstance(d, numbers.Integral) and not isinstance(d, bool) and d >= 0
               for d in dims):
        raise DomainError(f"shape needs integers >= 0, got {shape!r}")
    return tuple(map(int, dims))


def _horner(z, coefficients, out):
    """``c[0] + z * (c[1] + z * (... + z * c[-1]))`` into ``out``, one product
    and one sum per step in place: ``z * acc + c`` has the bits of ``c + z * acc``."""
    acc = np.multiply(z, coefficients[-1], out=out)
    acc += coefficients[-2]
    for c in coefficients[-3::-1]:
        acc *= z
        acc += c
    return acc


# (C_k, S_k) columns: one Horner pass gives cos x's polynomial in row 0, sin x's in row 1
_COS_SIN = tuple(np.array([[c], [s]]) for c, s in zip(_COS, _SIN))
# float64 rows of a block's length that ``_box_muller`` works in
_BOX_MULLER_ROWS = 7


def _box_muller(ka, kb, cos_out, sin_out, work=None) -> None:
    """Write the (cosine, sine) variates of ``u1 = ka * 2**-53`` and
    ``u2 = kb * 2**-53`` into ``cos_out`` and ``sin_out``.

    ``ka`` and ``kb`` are equal-length int64 arrays, a block of pairs, and
    are left as they are; the outputs are float64 arrays of their length,
    strided views too.  Every step of recipe v2 takes the operands the module
    docstring gives, in place in a row of ``work``, a C-contiguous float64
    array of shape ``(_BOX_MULLER_ROWS, len(ka))``: a caller that draws block
    after block allocates it once, since each fresh temporary costs a page
    fault per 4 KiB.  Integer steps write into rows viewed as integers, and
    the polynomials of cos x and sin x, their products by ``R`` and the octant
    step each run once over two or four rows.
    """
    n = ka.shape[0]
    if work is None:
        work = np.empty((_BOX_MULLER_ROWS, n))
    f, z, s, log_u1, rc, rs, ints = work
    pair = work[4:6]  # rc, then rs

    # the exponents and the m < SQRT_HALF mask share a row: n int32, then n bools
    e = np.frexp(np.multiply(ka, 2.0**-53, out=f), out=(f, ints.view(np.int32)[:n]))[1]
    low = np.less(f, _SQRT_HALF, out=ints.view(np.bool_)[4 * n : 5 * n])
    f += np.multiply(f, low, out=s)  # m + m where m < SQRT_HALF, else m + 0
    e -= low
    f -= 1.0
    np.divide(f, np.add(f, 2.0, out=s), out=s)
    np.multiply(s, s, out=z)
    hfsq = np.multiply(f, 0.5, out=rc)
    hfsq *= f
    _horner(z, _LG, out=log_u1)
    log_u1 *= z
    log_u1 += hfsq
    log_u1 *= s
    log_u1 += np.multiply(e, _LN2_LO, out=s)
    np.subtract(hfsq, log_u1, out=log_u1)
    log_u1 -= f
    np.subtract(np.multiply(e, _LN2_HI, out=s), log_u1, out=log_u1)
    log_u1 *= -2.0
    radius = np.sqrt(log_u1, out=log_u1)

    q = np.right_shift(kb, 50, out=ints.view(np.int64))
    odd = np.bitwise_and(q, 1, out=f.view(np.int64))
    j = np.bitwise_and(kb, _MASK50, out=s.view(np.int64))
    j ^= np.multiply(odd, _MASK50, out=z.view(np.int64))
    j += odd
    x = np.multiply(j, _PIO4_2M50, out=f)
    np.multiply(x, x, out=z)
    _horner(z, _COS_SIN, out=pair)
    rs *= np.multiply(z, x, out=s)
    rs += x
    rc *= z
    rc *= z
    hz = np.multiply(z, 0.5, out=s)
    w = np.subtract(1.0, hz, out=z)
    one_minus_w = np.subtract(1.0, w, out=f)
    one_minus_w -= hz
    rc += one_minus_w
    rc += w
    pair *= radius

    signs = _OCTANT.take(q, axis=1, out=work[:4], mode="clip")  # rows cc, cs, sc, ss
    products = signs.reshape(2, 2, n)
    products *= pair
    np.add(signs[0], signs[1], out=cos_out)
    np.add(signs[2], signs[3], out=sin_out)


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
        first, if any, then Box-Muller pairs, whose odd tail caches its sine
        variate.  ``shape`` is an integer ``>= 0`` or a sequence of them, else
        ``DomainError`` before any draw."""
        dims = _dims(shape)
        out = np.empty(math.prod(dims))
        pos = 0
        if out.size and self._spare_gauss is not None:
            out[0] = self._spare_gauss
            self._spare_gauss = None
            pos = 1
        pairs = (out.size - pos + 1) // 2
        cosines, sines = out[pos::2], out[pos + 1 :: 2]
        space = np.empty(_BOX_MULLER_ROWS * min(pairs, _BLOCK))
        for first in range(0, pairs, _BLOCK):
            n = min(_BLOCK, pairs - first)
            k = (self._u64_block(2 * n) >> np.uint64(11)).view(np.int64)  # < 2**53
            ka = k[0::2]
            ka += 1
            sin_out = sines[first : first + n]
            if sin_out.size < n:  # odd tail: its last sine variate becomes the spare
                sin_out = np.empty(n)
            work = space[: _BOX_MULLER_ROWS * n].reshape(_BOX_MULLER_ROWS, n)
            _box_muller(ka, k[1::2], cosines[first : first + n], sin_out, work)
        if sines.size < pairs:
            sines[first:] = sin_out[:-1]
            self._spare_gauss = float(sin_out[-1])
        return out.reshape(dims)

    def uniform_array(self, low: float, high: float, shape) -> np.ndarray:
        """``low + (high - low) * u`` for successive uniform ``u``, over ``shape``,
        row-major; ``shape`` as for ``gauss_array``."""
        dims = _dims(shape)
        out = np.empty(math.prod(dims))
        span = high - low
        for start in range(0, out.size, _BLOCK):
            k = min(_BLOCK, out.size - start)
            out[start : start + k] = low + span * ((self._u64_block(k) >> np.uint64(11)) * 2.0**-53)
        return out.reshape(dims)

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
