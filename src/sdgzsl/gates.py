"""Seen/unseen gating in semantic space: statistics, calibration, rules.

Two statistics of each projected row drive every rule:

* ``d_l`` - absolute gap between the projected vector's norm and the
  unified embedding norm ``l``.
* ``msd`` - minimum squared distance from the projection to any
  seen-class embedding.

One statistics pass, ``_split_stats``, computes both for calibration,
evaluation and ``predict``.  It projects a split in chunks sized by
``_CHUNK_VALUES`` over the network's widest layer, never under
``_CHUNK_MIN_BLOCKS`` row blocks, each through ``mlp.forward_batch``, the
one projection, and screens each embedding table it is given once per
chunk: the seen table for ``calibrate``, both tables for evaluation.  One
pass takes every split of a call, so ``_evaluate`` makes one pass over both
test splits, and the call's chunks form one queue in row order.  When some
split has two chunks or more and ``_threads.second_thread`` gives the pass
a second thread (see that module for when), the caller and that thread
each take the next untaken chunk until none is left.  Each chunk writes
only its own rows, and neither the chunk size nor the thread changes a bit.
``gate_statistics`` gives the same two vectors for rows already projected,
so ``gate_statistics(forward_batch(mapper, x), seen_emb, l)`` is the pass's
bits for the same matrix ``x``: a row's ``d_l`` and ``msd`` are the same
wherever they are read.  A ``ThresholdSet`` holds the mean and population
standard deviation of each statistic over seen instances alone, and derives
its thresholds from them, so no manual tuning is involved.

Each rule (``gate_ol`` / ``gate_dl`` / ``gate_ws``, by strategy tag in
``GATE_FUNCTIONS``) is ``(d_l, msd, thresholds) -> seen``, one comparison
written once for scalars and arrays alike: vectors of statistics give a
boolean mask.  All three rules use strict ``<`` for SEEN; a statistic
exactly on its threshold gates UNSEEN.
"""

from __future__ import annotations

import threading
from dataclasses import astuple, dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

from ._threads import second_thread
from .data import GzslDataset, _is_finite
from .errors import CalibrationError, ConfigError, DatasetLoadError, DomainError
from .linalg import (ROW_BLOCK, _prepare, _row_norms, _screen, as_matrix, as_table,
                     as_vector, mean_and_popstd, nearest)
from .mlp import MlpParams, forward_batch

# Values per chunk of a statistics pass, over the network's widest layer: a
# chunk is the largest ``ROW_BLOCK`` multiple of rows whose widest activation
# holds at most this many, but at least ``_CHUNK_MIN_BLOCKS`` blocks: 2048
# rows at width 32, 256 at width 256.  A chunk holds only its own
# projections: projecting each whole split at once raised eval_heavy's peak
# RSS by about 3 MB, and 2**16 values per chunk hold it about 1.2 MB (2.6%)
# above 2**15.  Each chunk costs about 50 numpy calls whatever its rows, and
# on two threads those contend for the interpreter lock.  While each chunk
# summed its row norms once more per table and gathered rows by fancy
# indexing, which runs slower on two threads than on one, 2**16 gained
# eval_heavy's ``eval_rows_per_s`` only 4.6% and 2**15 was kept.  With one
# norm per chunk and ``take`` gathers a chunk holds the lock less, and 2**16
# gains it about 9%.  The floor keeps the calls a small share of a wide
# network's chunk.
_CHUNK_VALUES = 2**16
_CHUNK_MIN_BLOCKS = 8


class Domain(Enum):
    SEEN = "seen"
    UNSEEN = "unseen"


@dataclass(frozen=True)
class ThresholdSet:
    """Calibration statistics, with the gate thresholds derived from them.

    ``r_ol``, ``r_0``, ``r_1`` and ``r_ws`` are each a mean plus one or two
    standard deviations, computed when read, so no threshold can disagree
    with the statistics it is defined by.  Checked when made,
    ``dataclasses.replace`` included, else ``CalibrationError``.
    """

    lam: float
    m_dl: float
    std_dl: float
    m_msd: float
    std_msd: float
    m_ws: float
    std_ws: float
    l: float

    @property
    def r_ol(self) -> float:
        return self.m_dl + self.std_dl

    @property
    def r_0(self) -> float:
        return self.m_msd + 2.0 * self.std_msd

    @property
    def r_1(self) -> float:
        return self.m_msd + self.std_msd

    @property
    def r_ws(self) -> float:
        return self.m_ws + self.std_ws

    def __post_init__(self) -> None:
        """Finite fields, ``lam >= 0``, ``l > 0`` and each std ``>= 0``, so
        ``r_0 >= r_1`` (rounded addition is monotone); then finite thresholds,
        which a sum can overflow."""
        bad = [f.name for f in fields(self) if not _is_finite(getattr(self, f.name))]
        if bad:
            raise CalibrationError(f"non-finite threshold fields {bad}")
        if self.lam < 0:
            raise CalibrationError(f"lam must be >= 0, got {self.lam!r}")
        if not self.l > 0:
            raise CalibrationError(f"unified norm l must be > 0, got {self.l!r}")
        negative = [name for name in ("std_dl", "std_msd", "std_ws") if getattr(self, name) < 0]
        if negative:
            raise CalibrationError(f"standard deviations must be >= 0, got {negative}")
        bad = [name for name in _DERIVED if not _is_finite(getattr(self, name))]
        if bad:
            raise CalibrationError(f"non-finite thresholds {bad}")


def length_gaps(proj: np.ndarray, l: float) -> np.ndarray:
    """Absolute difference between each projected row's norm and ``l``; a row
    whose squared norm overflows gets an infinite gap, without a warning."""
    if not l > 0:
        raise DomainError(f"unified norm must be > 0, got {l}")
    return np.abs(_row_norms(proj) - l)


def min_semantic_distance(proj, seen_emb) -> np.ndarray:
    """Minimum squared distance from each projected row to any seen embedding row."""
    p = as_matrix(proj, "projected rows")
    return nearest(p, as_table(seen_emb, p.shape[1], "seen embeddings"))[0]


def gate_statistics(proj, seen_emb, l: float) -> tuple[np.ndarray, np.ndarray]:
    """``(d_l, msd)`` of each projected row, as two vectors."""
    p = as_matrix(proj, "projected rows")
    return length_gaps(p, l), min_semantic_distance(p, seen_emb)


def _tables(mapper: MlpParams, *embs) -> tuple:
    """Seen, then (if given) unseen embedding table, checked and prepared for ``_screen``."""
    return tuple(_prepare(as_table(emb, mapper.out_dim, f"{side} embeddings"))
                 for emb, side in zip(embs, ("seen", "unseen")))


def _chunk_rows(mapper: MlpParams) -> int:
    """Rows per chunk of a statistics pass through ``mapper``."""
    width = max(mapper.layer_sizes())
    return max(_CHUNK_MIN_BLOCKS, _CHUNK_VALUES // (width * ROW_BLOCK)) * ROW_BLOCK


def _split_stats(mapper: MlpParams, l: float, splits, *tables) -> list[tuple[np.ndarray, ...]]:
    """The statistics pass over each matrix of feature rows in ``splits``:
    for each, ``d_l``, then the nearest distance and index in each
    ``_tables`` table, so ``(d_l, msd, nearest seen index[, nearest unseen
    distance, its index])``.

    Each split is chunked on its own, and each chunk writes only its own rows
    of its split's preallocated vectors.  The call's chunks are one queue in
    row order: the caller and, with a second thread, the pool's one thread
    each take the next untaken chunk until none is left.  A chunk that fails
    is recorded, and once one is, neither thread starts another: every chunk
    before the first that fails in row order has run, and that one raises.
    """
    step = _chunk_rows(mapper)
    out, chunks = [], []
    for xs in splits:
        n = xs.shape[0]
        d_l = np.empty(n)
        scans = [(np.empty(n), np.empty(n, dtype=np.intp)) for _ in tables]
        out.append((d_l, *(v for scan in scans for v in scan)))
        chunks += [(xs, slice(start, start + step), d_l, scans) for start in range(0, n, step)]

    def chunk(xs: np.ndarray, rows: slice, d_l: np.ndarray, scans) -> None:
        proj = forward_batch(mapper, xs[rows])
        norms = _row_norms(proj)
        d_l[rows] = np.abs(norms - l)  # length_gaps, on the norms the screens take
        for (dist, index), table in zip(scans, tables):
            dist[rows], index[rows] = _screen(proj, table, norms)

    untaken, failed, lock = iter(enumerate(chunks)), {}, threading.Lock()

    def drain() -> None:
        while True:
            with lock:
                if failed:
                    return
                k, c = next(untaken, (None, None))
            if c is None:
                return
            try:
                chunk(*c)
            except BaseException as exc:  # an interrupt too: it stops the other thread
                with lock:
                    failed[k] = exc

    with second_thread("sdgzsl-stats", any(xs.shape[0] > step for xs in splits)) as submit:
        pending = None if submit is None else submit(drain)
        drain()
        if pending is not None:
            pending.result()
    if failed:
        raise failed[min(failed)]
    return out


def calibrate_from_samples(d_l_samples, msd_samples, lam: float, l: float) -> ThresholdSet:
    """Build a ThresholdSet from raw per-instance statistic samples, which must
    be finite, as must each ``d_l + lam * msd``, else ``CalibrationError``."""
    if not (_is_finite(lam) and lam >= 0):
        raise CalibrationError(f"lam must be a finite number >= 0, got {lam!r}")
    d_l_samples = as_vector(d_l_samples, "d_l samples")
    msd_samples = as_vector(msd_samples, "msd samples")
    if d_l_samples.size == 0 or d_l_samples.shape != msd_samples.shape:
        raise CalibrationError(
            f"calibration needs matching nonempty samples, got {d_l_samples.size} and {msd_samples.size}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # refused below if not finite
        ws_samples = d_l_samples + lam * msd_samples
    for name, xs in (("d_l", d_l_samples), ("msd", msd_samples), ("d_l + lam * msd", ws_samples)):
        if not np.isfinite(xs).all():
            raise CalibrationError(f"non-finite {name} calibration samples")
    m_dl, std_dl = mean_and_popstd(d_l_samples)
    m_msd, std_msd = mean_and_popstd(msd_samples)
    m_ws, std_ws = mean_and_popstd(ws_samples)
    return ThresholdSet(lam, m_dl, std_dl, m_msd, std_msd, m_ws, std_ws, l)


def calibrate(mapper: MlpParams, dataset: GzslDataset, lam: float = 1.0,
              split: str = "seen_train") -> ThresholdSet:
    """Calibrate all thresholds from the statistics pass over ``split``'s rows.

    ``split`` is ``"seen_train"`` (default) or ``"seen_test"`` for
    held-out calibration.
    """
    if split not in ("seen_train", "seen_test"):
        raise ConfigError(f"unknown calibration split {split!r}")
    xs = getattr(dataset, f"{split}_x")
    if xs.shape[0] == 0:
        raise CalibrationError(f"calibration split {split!r} is empty")
    l = dataset.unified_norm
    d_l, msd, _ = _split_stats(mapper, l, [xs], *_tables(mapper, dataset.seen_emb))[0]
    return calibrate_from_samples(d_l, msd, lam, l)


def gate_ol(d_l, msd, th: ThresholdSet):
    """Length-only rule: SEEN iff d_l is strictly below the length threshold.

    Zero-variance calibration: a constant sample gives std 0, so every
    threshold equals its mean (``r_ol == m_dl``, ``r_0 == r_1 == m_msd``,
    ``r_ws == m_ws``), and because the comparison is strict an instance
    exactly at the mean gates UNSEEN under ``ol``, ``dl`` and ``ws``.
    This is kept on purpose: a non-strict rule would move reports.
    """
    return d_l < th.r_ol


def gate_dl(d_l, msd, th: ThresholdSet):
    """Length rule refined by minimum distance, four exhaustive cases.

    A small msd rescues an instance the length rule would reject, and a
    large msd overrules a length-based accept:

        d_l <  r_ol and msd <  r_0  -> SEEN
        d_l >= r_ol and msd <  r_1  -> SEEN
        d_l <  r_ol and msd >= r_0  -> UNSEEN
        d_l >= r_ol and msd >= r_1  -> UNSEEN
    """
    return np.where(d_l < th.r_ol, msd < th.r_0, msd < th.r_1)


def gate_ws(d_l, msd, th: ThresholdSet):
    """Weighted-sum rule: SEEN iff d_l + lam * msd is strictly below r_ws."""
    return d_l + th.lam * msd < th.r_ws


# strategy -> rule over statistics: scalars give a bool, arrays a boolean mask
GATE_FUNCTIONS = {"ol": gate_ol, "dl": gate_dl, "ws": gate_ws}

# the file keys of ``save_thresholds``: the derived thresholds, then the
# ``ThresholdSet`` fields in order
_DERIVED = ("r_ol", "r_0", "r_1", "r_ws")
_THRESHOLD_FIELDS = _DERIVED + (
    "lambda", "m_dl", "std_dl", "m_msd", "std_msd", "m_ws", "std_ws", "l")


def save_thresholds(th: ThresholdSet, path) -> Path:
    """Audit file: one ``key=value`` line per statistic/threshold."""
    values = [getattr(th, name) for name in _DERIVED] + list(astuple(th))
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    # float() first: a numpy float's repr is ``np.float64(0.5)``, which no loader parses
    out.write_text("".join(f"{k}={float(v)!r}\n" for k, v in zip(_THRESHOLD_FIELDS, values)))
    return out


def load_thresholds(path) -> ThresholdSet:
    """A ``save_thresholds`` file: each key once, and the statistics, whose
    thresholds must match the file's to 1e-12."""
    p = Path(path)
    if not p.is_file():
        raise DatasetLoadError(f"{p}: missing thresholds file")
    values, line_of = {}, {}
    for lineno, line in enumerate(p.read_text().splitlines(), 1):
        if not line.strip():
            continue
        key, _, raw = line.partition("=")
        key = key.strip()
        if key in line_of:
            raise DatasetLoadError(f"{p}:{lineno}: key {key!r} repeats line {line_of[key]}")
        line_of[key] = lineno
        try:
            values[key] = float(raw)
        except ValueError as exc:
            raise DatasetLoadError(f"{p}:{lineno}: unparsable value {raw!r}") from exc
    missing = [f for f in _THRESHOLD_FIELDS if f not in values]
    if missing:
        raise DatasetLoadError(f"{p}: missing keys {missing}")
    th = ThresholdSet(*(values[k] for k in _THRESHOLD_FIELDS[len(_DERIVED):]))
    for name in _DERIVED:
        have, want = values[name], getattr(th, name)
        if not abs(have - want) <= 1e-12:  # NaN included
            raise CalibrationError(f"{p}: {name}={have!r} breaks its defining identity ({want!r})")
    return th
