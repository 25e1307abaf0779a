"""Dense linear-algebra and statistics substrate shared by every module.

Matrices are 2-D float64 numpy arrays (row-major), vectors are 1-D
float64 arrays.  Public operations validate shapes on the way in and
guarantee finite entries on the way out.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError

# Rows projected by one evaluation product.  A product's last bits depend
# on how many rows it multiplies at once, so every evaluation projection
# is a ROW_BLOCK-row product whatever the split size.
ROW_BLOCK = 32

# Rows screened together by ``nearest``: one BLAS product and a few
# (SCREEN_BLOCK, table rows) arrays of a few hundred kB per block.
SCREEN_BLOCK = 256


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting anything else."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name}: expected 2-D, got shape {m.shape}")
    return m

def as_vector(v, name: str = "vector") -> np.ndarray:
    m = np.asarray(v, dtype=np.float64)
    if m.ndim != 1:
        raise ShapeError(f"{name}: expected 1-D, got shape {m.shape}")
    return m

def as_table(emb, dim: int, name: str = "embedding table") -> np.ndarray:
    """Coerce to a nonempty 2-D float64 table whose rows have length ``dim``."""
    t = as_matrix(emb, name)
    if t.shape[0] == 0:
        raise DomainError(f"{name}: empty embedding table")
    if t.shape[1] != dim:
        raise ShapeError(f"{name}: row length {t.shape[1]} != {dim}")
    return t

def check_finite(a: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{name}: non-finite entries")
    return a


def matmul(a, b) -> np.ndarray:
    """Matrix product with explicit conformance checking."""
    a = as_matrix(a, "matmul lhs")
    b = as_matrix(b, "matmul rhs")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} x {b.shape} do not conform")
    return check_finite(a @ b, "matmul result")


def l2_norm(v) -> float:
    """Euclidean norm of a nonempty vector."""
    v = as_vector(v, "l2_norm input")
    if v.size == 0:
        raise ShapeError("l2_norm: empty vector")
    return float(np.sqrt(v @ v))


def sq_dist(a, b) -> float:
    """Squared Euclidean distance; exactly 0 for elementwise-equal inputs."""
    a = as_vector(a, "sq_dist lhs")
    b = as_vector(b, "sq_dist rhs")
    if a.shape != b.shape:
        raise ShapeError(f"sq_dist: lengths {a.size} and {b.size} differ")
    d = a - b
    return float(d @ d)


def nearest(points: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``points``: smallest squared distance to a ``table`` row, and
    the first row index attaining it (ties go to the lowest index).

    Every returned distance is the plain sum ``np.add.reduce((p - e)**2)``
    over the last axis, so a row's result is bit-for-bit the same whichever
    rows share the call.  Only candidate table rows are summed that way.
    A screen, ``SCREEN_BLOCK`` points at a time, computes every
    ``a = |p|^2 - 2 p.e + |e|^2`` with one product and keeps table row ``j``
    unless ``a_j - m_j > min_k (a_k + m_k)``, with the margin
    ``m = g (|p| + |e|)^2 + 4 (S+4) 2^-1074`` and ``g = 4 (S+4) eps``.

    Why the plain minimum survives the screen: the plain sum adds
    nonnegative terms, so it lies within about ``(S+2) u D`` of the exact
    distance ``D <= (|p| + |e|)^2``; the screen's three inner products err
    by at most about ``S u`` times ``|p|^2``, ``2 |p| |e|`` and ``|e|^2``, so
    ``a`` lies within about ``(S+2) u (|p| + |e|)^2`` of ``D`` too (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., sec. 3.1).
    Underflow adds at most half a subnormal ulp per product, which the
    absolute term covers.  So ``m`` bounds ``|a - b|`` four times over for
    the plain sum ``b``: every row attaining ``min b`` passes, and every
    dropped row has ``b > min b``.  A row is dropped only when
    ``a_j - m_j > min_k (a_k + m_k)`` holds, so a NaN on either side keeps
    it: a row whose norm or inner product overflows (its ``m`` is inf, so
    ``a - m`` is NaN or -inf) is summed even when the inputs are finite, and
    a point whose bound is NaN or inf, as NaN or inf entries make it, keeps
    every row, which reproduces the plain sum's NaN and inf results.
    """
    n, dim = points.shape[0], table.shape[1]
    dist, index = np.empty(n), np.empty(n, dtype=np.intp)
    g = 4.0 * (dim + 4) * 2.0 ** -52  # 4 (S+4) eps
    floor = 4.0 * (dim + 4) * 2.0 ** -1074
    with np.errstate(all="ignore"):
        e2 = np.add.reduce(table * table, axis=1)
        e_norm = np.sqrt(e2)
    for start in range(0, n, SCREEN_BLOCK):
        rows = slice(start, start + SCREEN_BLOCK)
        p = points[rows]
        # the screen's own overflow and inf - inf only keep more rows
        with np.errstate(all="ignore"):
            p2 = np.add.reduce(p * p, axis=1)[:, None]
            a = p @ table.T
            a *= -2.0
            a += p2
            a += e2
            m = np.sqrt(p2) + e_norm
            m *= m
            m *= g
            m += floor
            bound = np.minimum.reduce(a + m, axis=1)
            a -= m
            keep = ~(a > bound[:, None])  # NaN on either side keeps the row
        r, k = np.divmod(np.flatnonzero(keep), keep.shape[1])  # faster than 2-D nonzero
        d = np.full(keep.shape, np.inf)
        d[r, k] = np.add.reduce((p[r] - table[k]) ** 2, axis=1)
        dist[rows], index[rows] = d.min(axis=1), d.argmin(axis=1)
    return dist, index


def mean_and_popstd(xs) -> tuple[float, float]:
    """Mean and population (1/N) standard deviation of a nonempty sample."""
    xs = as_vector(xs, "mean_and_popstd input")
    if xs.size == 0:
        raise DomainError("mean_and_popstd: empty input")
    m = float(np.mean(xs))
    std = float(np.sqrt(np.mean((xs - m) ** 2)))
    return m, std
