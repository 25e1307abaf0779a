"""Dense linear-algebra and statistics substrate shared by every module.

Matrices are 2-D float64 numpy arrays (row-major), vectors are 1-D
float64 arrays.  Public operations validate shapes on the way in and
guarantee finite entries on the way out.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError

# Rows handled together by the batched evaluation: it bounds the
# (ROW_BLOCK, C, S) distance broadcast and a projected block to a few
# hundred kB whatever the split size, while one product and one broadcast
# per block already remove nearly all per-row overhead.
ROW_BLOCK = 32


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

    Distances come from the ``(ROW_BLOCK, table rows, dim)`` broadcast, one
    block of points at a time, not from the ``|p|^2 - 2 p.e + |e|^2``
    expansion, so each row's result is bit-for-bit the same whichever rows
    share the call.
    """
    n = points.shape[0]
    dist, index = np.empty(n), np.empty(n, dtype=np.intp)
    for start in range(0, n, ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        diff = points[rows, None, :] - table[None, :, :]
        d = np.sum(diff * diff, axis=2)
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
