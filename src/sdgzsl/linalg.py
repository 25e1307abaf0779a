"""Dense linear-algebra and statistics substrate shared by every module.

Matrices are 2-D float64 numpy arrays (row-major), vectors are 1-D
float64 arrays.  Public operations validate shapes on the way in.
``matmul`` and ``check_finite`` refuse non-finite results with
``DomainError``; ``nearest`` returns the plain sums' NaN and inf for
non-finite or overflowing inputs, by design, and leaves the check to its
caller.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError

# Rows projected by one product of ``mlp.forward_batch``.  A product's last
# bits depend on how many rows it multiplies at once, so every projection
# outside training is a ROW_BLOCK-row product whatever the split size.
ROW_BLOCK = 32

# Values in each (rows, table rows) array of one ``nearest`` screen block: a
# block is one BLAS product and a few such arrays of up to 512 kB.  The
# benchmark's 20- to 80-row tables screen a whole statistics chunk at a time,
# a 1000-row table 65 rows at a time.
_SCREEN_VALUES = 2**16


def _screen_rows(table_rows: int) -> int:
    """Points screened together against a table of ``table_rows`` rows."""
    return max(1, _SCREEN_VALUES // table_rows)


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
    # the ufunc reduction skips the Python wrappers of both ``np.all`` and
    # ``ndarray.all`` (numpy's ``_methods._all``): 1.84 against 2.69 us on 64x32
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise DomainError(f"{name}: non-finite entries")
    return a


def matmul(a, b) -> np.ndarray:
    """Matrix product with explicit conformance checking."""
    a = as_matrix(a, "matmul lhs")
    b = as_matrix(b, "matmul rhs")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} x {b.shape} do not conform")
    return check_finite(a @ b, "matmul result")


def nearest(points: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``points``: smallest squared distance to a ``table`` row, and
    the first row index attaining it (ties go to the lowest index).

    Every returned distance is the plain sum ``np.add.reduce((p - e)**2)``
    over the last axis, so a row's result is bit-for-bit the same whichever
    rows share the call; a sum that overflows is inf, without a warning.
    Only candidate table rows are summed that way.
    A screen, ``_screen_rows(table rows)`` points at a time, computes
    ``q_j = p.(-2 e_j) + |e_j|^2`` for every table row with one product
    (``-2 table.T``, ``|e|^2`` and ``E`` below are formed once per table,
    by ``_prepare``) and keeps row
    ``j`` unless ``q_j > min_k q_k + m``.  The margin is one number per
    point, ``m = g (|p| + E)^2 + 3 (S+2) 2^-1074`` with ``E = max_j |e_j|``
    and ``g = 4 (S+4) eps``.  Its ``|p|`` is ``_row_norms``' plain sum
    ``sqrt(add.reduce(p * p))``, which ``_screen`` takes as an argument: the
    statistics pass computes it once per chunk, takes ``d_l`` from it and
    hands it to the screen of each table.

    Why the plain minimum survives the screen.  The exact squared distance
    is ``D_j = |p|^2 + q_j``, and ``|p|^2`` is the same for every row of a
    point, so ``D_j - D_k = q_j - q_k``: leaving it out changes no
    comparison and only saves its rounding error.  The plain sum ``b_j``
    adds ``S`` nonnegative rounded squares, so it lies within
    ``gamma_{S+2} D_j`` of ``D_j``, and ``D_j <= (|p| + E)^2``.  The product
    and ``|e|^2`` err by at most ``gamma_S`` times ``2 |p| |e_j|`` and
    ``|e_j|^2``, so with the last addition the computed ``q_j`` lies within
    ``gamma_{S+1} (|p| + E)^2`` of the exact one (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., sec. 3.1).  Below the
    underflow threshold a product or square errs by up to half a subnormal
    ulp ``2^-1074`` and sums are exact: ``S`` ulps for a ``q``, ``S/2`` for
    a ``b``.  If row ``j`` attains ``min b`` and row ``k`` attains
    ``min q``, then ``q_j - q_k`` is ``b_j - b_k <= 0`` plus the errors of
    ``b_j``, ``b_k``, ``q_j`` and ``q_k``: at most
    ``4 gamma_{S+2} (|p| + E)^2``, under half the first term of ``m``, plus
    ``3 S`` ulps, under its second.  The spare room absorbs the rounding of
    ``m`` itself and of its ``|p|``: that plain sum of ``S`` squares errs by
    at most ``gamma_S |p|^2``, so the computed ``(|p| + E)^2`` is at least
    ``1 - gamma_{S+2}`` times the exact one (below the underflow threshold
    the ulp term alone covers the errors).  So every row attaining
    ``min b`` passes, and every dropped row has ``b > min b``.  The ulp
    term is nearly sharp: points and rows on a ``2^-537`` grid reach a
    ``q`` gap of ``2 S`` ulps between rows whose plain sums tie.

    Every point keeps at least one row, since the row attaining ``min q``
    passes (``m > 0``).  So when a block keeps as many rows as it has
    points, each point keeps just that row and its plain sum is the answer,
    with no scatter into a (points, rows) array.  Those winning rows,
    ``min q`` and the candidate rows of a block that keeps more are
    gathered with ``ndarray.take``, which reads the same values as fancy
    indexing and, on two threads, holds the interpreter lock for less time.
    A row is dropped only when ``q_j > min q + m`` holds, so a NaN keeps
    it: a point whose margin or ``min q`` is NaN or inf, as NaN or inf
    entries or an overflowing norm or product make it, keeps every row,
    which reproduces the plain sum's NaN and inf results.
    """
    return _screen(points, _prepare(table), _row_norms(points))


def _row_norms(points: np.ndarray) -> np.ndarray:
    """``|p|`` of each row, as the plain sum ``sqrt(add.reduce(p * p))``; a row
    whose squares overflow gets inf, without a warning."""
    with np.errstate(over="ignore"):
        return np.sqrt(np.add.reduce(points * points, axis=1))


def _prepare(table: np.ndarray) -> tuple:
    """What ``_screen`` needs of ``table``: (table, -2 table.T, |e|^2, max |e|)."""
    # the screen's own overflow and inf - inf only keep more rows
    with np.errstate(all="ignore"):
        e2 = np.add.reduce(table * table, axis=1)
        e_max = np.sqrt(e2.max())  # NaN if any row is NaN
        w = table.T * -2.0
    return table, w, e2, e_max


def _screen(points: np.ndarray, prepared: tuple,
            norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``nearest(points, table)`` against a table ``_prepare`` made, given the
    points' ``_row_norms``."""
    table, w, e2, e_max = prepared
    n, dim = points.shape[0], table.shape[1]
    dist, index = np.empty(n), np.empty(n, dtype=np.intp)
    g = 4.0 * (dim + 4) * 2.0 ** -52  # 4 (S+4) eps
    floor = 3.0 * (dim + 2) * 2.0 ** -1074
    block = _screen_rows(table.shape[0])
    # a plain sum that overflows is the infinite distance it stands for
    with np.errstate(over="ignore"):
        for start in range(0, n, block):
            rows = slice(start, start + block)
            p = points[rows]
            with np.errstate(all="ignore"):
                q = p @ w
                q += e2
                k = q.argmin(axis=1)  # a NaN row yields the NaN, as min would
                m = norms[rows] + e_max
                m *= m
                m *= g
                m += floor
                m += q.take(k + np.arange(0, q.size, q.shape[1]))  # q[arange, k], by flat index
                drop = q > m[:, None]  # NaN on either side keeps the row
            del q
            if np.count_nonzero(drop) == drop.size - k.size:
                # one row per point, so it is the one attaining min q
                d = table.take(k, axis=0)
                np.subtract(p, d, out=d)
                d *= d  # the same bits as ** 2
                dist[rows], index[rows] = np.add.reduce(d, axis=1), k
                continue
            r, c = np.divmod(np.flatnonzero(~drop), drop.shape[1])  # faster than 2-D nonzero
            d = p.take(r, axis=0)
            d -= table.take(c, axis=0)
            d *= d
            b = np.full(drop.shape, np.inf)
            b[r, c] = np.add.reduce(d, axis=1)
            dist[rows], index[rows] = b.min(axis=1), b.argmin(axis=1)
    return dist, index


def mean_and_popstd(xs) -> tuple[float, float]:
    """Mean and population (1/N) standard deviation of a nonempty sample; inf on overflow."""
    xs = as_vector(xs, "mean_and_popstd input")
    if xs.size == 0:
        raise DomainError("mean_and_popstd: empty input")
    with np.errstate(over="ignore"):
        m = float(np.mean(xs))
        std = float(np.sqrt(np.mean((xs - m) ** 2)))
    return m, std
