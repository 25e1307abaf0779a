"""Seen/unseen data model, synthetic generator, and dataset directory I/O.

A dataset directory holds:

* ``meta.json`` - dimensions, per-split counts, the unified embedding
  norm ``l``, and an endianness tag.
* ``seen_train.f32`` / ``seen_test.f32`` / ``unseen_test.f32`` - feature
  rows as little-endian float32, row-major, preceded by two little-endian
  uint64 (rows, cols).
* ``seen_train.labels`` / ``seen_test.labels`` / ``unseen_test.labels`` -
  one little-endian uint32 per feature row.
* ``seen_emb.f64`` / ``unseen_emb.f64`` - per-class embedding rows in the
  same binary matrix layout, as little-endian float64.

Features are stored as 32-bit floats on disk and widened to 64-bit in
memory.  Embeddings are stored at full width, so loading only checks their
norms and never re-normalizes them.  Labels are dense integers 0..C-1 per
side; the seen/unseen domain is carried by which split an instance sits
in, so the two class vocabularies can never collide.

``SyntheticSpec`` and ``GzslDataset`` are frozen and check themselves when
made, so ``generate_synthetic`` and the readers of a dataset check neither
again.  A dataset checks each embedding row's norm as the norm of
``row / l`` against 1, which no row on its norm can overflow.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DatasetLoadError, DomainError, ValidationError
from .linalg import as_matrix
from .rng import SplitMix64

_HEADER = struct.Struct("<QQ")
# cosine cap for sampled unseen directions, relative to every seen embedding
_MAX_UNSEEN_COS = 0.95

FEATURE_FILES = {
    "seen_train": "seen_train.f32",
    "seen_test": "seen_test.f32",
    "unseen_test": "unseen_test.f32",
}
LABEL_FILES = {
    "seen_train": "seen_train.labels",
    "seen_test": "seen_test.labels",
    "unseen_test": "unseen_test.labels",
}
EMBEDDING_FILES = {"seen": "seen_emb.f64", "unseen": "unseen_emb.f64"}


def _is_integer(v) -> bool:  # a bool is no count, size or seed
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:  # nor is it a rate, spread or norm
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _is_finite(v) -> bool:  # a real that a float holds: no NaN, no infinity, no 10**400
    try:
        return _is_real(v) and math.isfinite(v)
    except OverflowError:  # an integer (or fraction) beyond the float range
        return False


def _integer_problems(obj, lows) -> list[str]:
    """A problem for each ``(name, low)`` of ``lows`` whose field is not an integer >= ``low``."""
    problems = []
    for name, low in lows:
        v = getattr(obj, name)
        if not _is_integer(v):
            problems.append(f"{name} must be an integer, got {v!r}")
        elif v < low:
            problems.append(f"{name} must be >= {low}, got {v}")
    return problems


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape of a synthetic benchmark at desk scale, checked when made
    (``dataclasses.replace`` too), else ``ValidationError`` listing every problem."""

    n_seen_classes: int
    n_unseen_classes: int
    feature_dim: int
    semantic_dim: int
    per_class_train: int
    per_class_test: int
    cluster_spread: float
    seed: int
    unified_norm: float = 1.0

    def __post_init__(self) -> None:
        problems = _integer_problems(self, (
            ("n_seen_classes", 2), ("n_unseen_classes", 1), ("feature_dim", 1), ("semantic_dim", 1),
            ("per_class_train", 1), ("per_class_test", 1), ("seed", -math.inf)))
        if not (_is_finite(self.cluster_spread) and self.cluster_spread >= 0.0):
            problems.append(f"cluster_spread must be finite and >= 0, got {self.cluster_spread!r}")
        if not (_is_finite(self.unified_norm) and self.unified_norm > 0.0):
            problems.append(f"unified_norm must be finite and > 0, got {self.unified_norm!r}")
        if not problems:
            # every generated array must be addressable: its float64 byte size fits np.intp
            # (counted in Python ints, which numpy integer fields would overflow)
            n_s, n_u, train, test, d, s = map(int, (
                self.n_seen_classes, self.n_unseen_classes, self.per_class_train,
                self.per_class_test, self.feature_dim, self.semantic_dim))
            rows = n_s * (train + test) + n_u * test
            for what, count in (("feature", rows * d), ("embedding", (n_s + n_u) * s),
                                ("feature map", d * s)):
                if count * 8 > np.iinfo(np.intp).max:
                    problems.append(f"{what} element count {count} is too large to allocate")
        if problems:
            raise ValidationError("invalid SyntheticSpec: " + "; ".join(problems))


@dataclass(frozen=True)
class GzslDataset:
    """Immutable seen/unseen split with norm-unified class embeddings, checked when
    made (``dataclasses.replace`` too); the checks make its arrays read-only."""

    seen_train_x: np.ndarray
    seen_train_y: np.ndarray
    seen_test_x: np.ndarray
    seen_test_y: np.ndarray
    unseen_test_x: np.ndarray
    unseen_test_y: np.ndarray
    seen_emb: np.ndarray
    unseen_emb: np.ndarray
    unified_norm: float

    @property
    def feature_dim(self) -> int:
        return self.seen_train_x.shape[1]

    @property
    def semantic_dim(self) -> int:
        return self.seen_emb.shape[1]

    @property
    def n_seen_classes(self) -> int:
        return self.seen_emb.shape[0]

    @property
    def n_unseen_classes(self) -> int:
        return self.unseen_emb.shape[0]

    def __post_init__(self) -> None:
        """Stores matrices as float64, labels as int64 and ``unified_norm`` as a float."""
        l = self.unified_norm
        if not (_is_finite(l) and l > 0):
            raise ValidationError(f"unified_norm must be a finite number > 0, got {l!r}")
        l = float(l)
        object.__setattr__(self, "unified_norm", l)
        s = None  # the semantic dim of seen_emb
        for side in ("seen", "unseen"):
            emb = as_matrix(getattr(self, f"{side}_emb"), f"{side}_emb")
            s = emb.shape[1] if s is None else s
            if emb.shape[1] != s:
                raise ValidationError(f"{side}_emb: semantic dim {emb.shape[1]} != {s}")
            # the norms of emb / l, which are 1 on a row that passes, so no row on its
            # norm overflows; a row far off it may, and is refused all the same
            with np.errstate(over="ignore"):
                unit = emb / l
                norms = np.sqrt((unit * unit).sum(axis=1))
            off = np.abs(norms - 1.0)
            if off.size and not off.max() <= 1e-9:  # a NaN norm fails too
                bad = int(off.argmax())
                # within a factor 1e100 of l the norm of emb / l is exact to rounding;
                # past it, where it over- or underflows, take the row's norm scale-free
                r = float(norms[bad])
                shown = r * l if 1e-100 <= r <= 1e100 else math.hypot(*emb[bad])
                raise ValidationError(
                    f"{side}_emb: row {bad} has norm {shown!r}, expected {l!r}")
            object.__setattr__(self, f"{side}_emb", emb)
        d = None  # the feature dim of seen_train_x
        for name in ("seen_train", "seen_test", "unseen_test"):
            x = as_matrix(getattr(self, f"{name}_x"), name)
            y = np.asarray(getattr(self, f"{name}_y"))
            d = x.shape[1] if d is None else d
            if x.shape[1] != d:
                raise ValidationError(f"{name}: feature dim {x.shape[1]} != {d}")
            # a float label would index nothing, or be truncated; np.asarray([]) is
            # float64, and an empty split casts to int64 safely
            if y.size and y.dtype.kind not in "iu":
                raise ValidationError(f"{name}: labels must be integers, got dtype {y.dtype}")
            if y.shape != (x.shape[0],):
                raise ValidationError(f"{name}: labels of shape {y.shape} for {x.shape[0]} rows")
            finite = np.isfinite(x).all(axis=1)
            if not finite.all():
                raise ValidationError(f"{name}: non-finite feature at row {int(finite.argmin())}")
            n_classes = self.n_unseen_classes if name == "unseen_test" else self.n_seen_classes
            outside = (y < 0) | (y >= n_classes)
            if outside.any():
                bad = int(outside.argmax())
                raise ValidationError(
                    f"{name}: label {y[bad]} at row {bad} outside 0..{n_classes - 1}")
            object.__setattr__(self, f"{name}_x", x)
            object.__setattr__(self, f"{name}_y", y.astype(np.int64, copy=False))
        # loaded/generated datasets are shared read-only across threads
        for arr in (
            self.seen_train_x, self.seen_train_y, self.seen_test_x, self.seen_test_y,
            self.unseen_test_x, self.unseen_test_y, self.seen_emb, self.unseen_emb,
        ):
            arr.setflags(write=False)


def normalize_embeddings(raw, l: float) -> np.ndarray:
    """Rescale every row to norm ``l``, preserving directions."""
    raw = as_matrix(raw, "embeddings")
    if not l > 0:
        raise DomainError(f"unified norm must be > 0, got {l}")
    norms = np.sqrt((raw * raw).sum(axis=1))
    finite = np.isfinite(norms)
    if not finite.all():
        raise DomainError(f"embedding row {int(finite.argmin())} has no finite norm")
    if not norms.all():  # the first zero is the first minimum of these finite norms >= 0
        raise DomainError(f"embedding row {int(norms.argmin())} is the zero vector and has no direction")
    return raw * (l / norms)[:, None]


def generate_synthetic(spec: SyntheticSpec) -> GzslDataset:
    """Deterministic Gaussian-cluster benchmark with genuine domain shift.

    Per class, a random unit direction in semantic space (scaled to the
    unified norm) is the class embedding; a fixed random linear map sends
    embeddings to feature-space class centers; instances are center plus
    isotropic Gaussian noise.  Unseen directions are resampled until
    their cosine to every seen embedding is at most 0.95, so the unseen
    domain never collapses onto the seen one.
    """
    root = SplitMix64(spec.seed)
    emb_rng = root.split()
    map_rng = root.split()
    noise_rng = root.split()

    l = spec.unified_norm
    s_dim = spec.semantic_dim
    seen_emb = normalize_embeddings(emb_rng.gauss_array((spec.n_seen_classes, s_dim)), l)

    unseen_rows = []
    for _ in range(spec.n_unseen_classes):
        for _attempt in range(10_000):
            cand = normalize_embeddings(emb_rng.gauss_array((1, s_dim)), l)[0]
            # on unit rows: l * l underflows or overflows at an extreme l
            cos = (seen_emb / l) @ (cand / l)
            if cos.max() <= _MAX_UNSEEN_COS:
                unseen_rows.append(cand)
                break
        else:
            raise DomainError(
                "could not sample an unseen embedding direction with cosine "
                f"<= {_MAX_UNSEEN_COS} to all seen embeddings; semantic_dim "
                f"{s_dim} is too small for {spec.n_seen_classes} seen classes"
            )
    unseen_emb = np.array(unseen_rows)

    # ground-truth linear map semantic -> feature space, drawn row-major
    w_true = map_rng.gauss_array((spec.feature_dim, s_dim))
    with np.errstate(over="ignore"):  # an overflow is refused as a non-finite feature
        seen_centers = seen_emb @ w_true.T
        unseen_centers = unseen_emb @ w_true.T
        centers32 = np.vstack([seen_centers, unseen_centers]).astype(np.float32)

    def draw_split(centers: np.ndarray, per_class: int) -> tuple[np.ndarray, np.ndarray]:
        n_classes = centers.shape[0]
        # one draw per split (its classes are consecutive in the stream), scaled and
        # shifted in place: the same values as center + spread * noise, no temporaries
        x = noise_rng.gauss_array((n_classes, per_class, spec.feature_dim))
        with np.errstate(over="ignore"):  # an overflow is refused as a non-finite feature
            x *= spec.cluster_spread
            x += centers[:, None, :]
            # features live on the f32 grid so disk round-trips are exact; rounded
            # in place, with one float32 copy of the split
            x = x.reshape(-1, spec.feature_dim)
            x[...] = x.astype(np.float32)
        return x, np.repeat(np.arange(n_classes), per_class)

    seen_train_x, seen_train_y = draw_split(seen_centers, spec.per_class_train)
    seen_test_x, seen_test_y = draw_split(seen_centers, spec.per_class_test)
    unseen_test_x, unseen_test_y = draw_split(unseen_centers, spec.per_class_test)

    ds = GzslDataset(
        seen_train_x=seen_train_x,
        seen_train_y=seen_train_y,
        seen_test_x=seen_test_x,
        seen_test_y=seen_test_y,
        unseen_test_x=unseen_test_x,
        unseen_test_y=unseen_test_y,
        seen_emb=seen_emb,
        unseen_emb=unseen_emb,
        unified_norm=l,
    )
    # features live on the float32 grid, where a tiny unified norm flushes every
    # center to 0: classes whose centers coincide there share one distribution.
    # Checked after the dataset's own checks, which name a zero embedding row
    # or a non-finite feature.  Sorted rows put equal centers side by side
    # (``np.unique(axis=0)`` would import ``numpy.ma``, 1.3 MB of RSS)
    centers32 = centers32[np.lexsort(centers32.T)]
    if (centers32[1:] == centers32[:-1]).all(axis=1).any():
        raise DomainError(f"unified_norm {l!r}: two classes' float32 feature centers coincide, "
                          "so their features carry no class signal")
    return ds


def _write_matrix(path: Path, m: np.ndarray, dtype: str) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(m.shape[0], m.shape[1]))
        fh.write(np.ascontiguousarray(m, dtype=dtype).tobytes())


def _read_matrix(path: Path, shape: tuple[int, int], dtype: str) -> np.ndarray:
    """The matrix file at ``path``, of little-endian ``dtype`` entries, whose header
    must read ``shape``; widened to float64."""
    if not path.is_file():
        raise DatasetLoadError(f"{path}: missing file")
    blob = path.read_bytes()
    if len(blob) < _HEADER.size:
        raise DatasetLoadError(
            f"{path}: truncated header, expected {_HEADER.size} bytes, got {len(blob)}"
        )
    rows, cols = _HEADER.unpack_from(blob)
    width = np.dtype(dtype).itemsize
    expected = _HEADER.size + rows * cols * width
    if len(blob) != expected:
        raise DatasetLoadError(
            f"{path}: expected {expected} bytes for {rows}x{cols} f{8 * width} matrix, "
            f"got {len(blob)}"
        )
    if (rows, cols) != shape:
        raise DatasetLoadError(
            f"{path}: header shape {(rows, cols)} does not match meta.json's {shape}")
    data = np.frombuffer(blob, dtype=dtype, offset=_HEADER.size)
    return data.reshape(rows, cols).astype(np.float64)


def _write_labels(path: Path, y: np.ndarray) -> None:
    path.write_bytes(np.ascontiguousarray(y, dtype="<u4").tobytes())


def _read_labels(path: Path, rows: int) -> np.ndarray:
    if not path.is_file():
        raise DatasetLoadError(f"{path}: missing file")
    blob = path.read_bytes()
    if len(blob) != rows * 4:
        raise DatasetLoadError(
            f"{path}: expected {rows * 4} bytes for {rows} u32 labels, got {len(blob)}"
        )
    return np.frombuffer(blob, dtype="<u4").astype(np.int64)


def save_dataset(ds: GzslDataset, path) -> Path:
    """Write the dataset directory format; returns the directory path."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    meta = {
        "d": int(ds.feature_dim),
        "S": int(ds.semantic_dim),
        "C_s": int(ds.n_seen_classes),
        "C_u": int(ds.n_unseen_classes),
        "n_seen_train": int(ds.seen_train_x.shape[0]),
        "n_seen_test": int(ds.seen_test_x.shape[0]),
        "n_unseen_test": int(ds.unseen_test_x.shape[0]),
        "l": float(ds.unified_norm),
        "endianness": "little",
    }
    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    for split, fname in FEATURE_FILES.items():
        _write_matrix(out / fname, getattr(ds, f"{split}_x"), "<f4")
        _write_labels(out / LABEL_FILES[split], getattr(ds, f"{split}_y"))
    for side, fname in EMBEDDING_FILES.items():
        _write_matrix(out / fname, getattr(ds, f"{side}_emb"), "<f8")
    return out


# meta.json count keys and their smallest valid value
_META_COUNTS = {"d": 1, "S": 1, "C_s": 1, "C_u": 1,
                "n_seen_train": 0, "n_seen_test": 0, "n_unseen_test": 0}


def load_dataset(path) -> GzslDataset:
    """Read and fully validate a dataset directory.

    ``meta.json`` is checked here; each matrix file is checked by
    ``_read_matrix`` against the shape ``meta.json`` gives it, and each
    labels file by ``_read_labels`` against its split's row count.
    Embedding rows are read as stored and never re-normalized, so a row whose
    norm is off the header's unified norm ``l`` by more than ``1e-9 * l`` is
    refused, as ``GzslDataset`` refuses it when made.  A format error, or a
    value that ``GzslDataset`` refuses, raises ``DatasetLoadError``.
    """
    root = Path(path)
    meta_path = root / "meta.json"
    if not meta_path.is_file():
        raise DatasetLoadError(f"{meta_path}: missing file")
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise DatasetLoadError(f"{meta_path}: invalid JSON ({exc})") from exc
    if not isinstance(meta, dict):
        raise DatasetLoadError(f"{meta_path}: expected a JSON object")
    for key in (*_META_COUNTS, "l"):
        if key not in meta:
            raise DatasetLoadError(f"{meta_path}: missing key {key!r}")
    for key, low in _META_COUNTS.items():
        v = meta[key]
        if not _is_integer(v) or v < low:
            raise DatasetLoadError(f"{meta_path}: {key!r} must be an integer >= {low}, got {v!r}")
    l = meta["l"]
    if not (_is_finite(l) and l > 0):
        raise DatasetLoadError(f"{meta_path}: 'l' must be a finite number > 0, got {l!r}")
    if meta.get("endianness", "little") != "little":
        raise DatasetLoadError(f"{meta_path}: unsupported endianness {meta['endianness']!r}")

    arrays = {}
    for split, fname in FEATURE_FILES.items():
        x = _read_matrix(root / fname, (meta[f"n_{split}"], meta["d"]), "<f4")
        arrays[f"{split}_x"] = x
        arrays[f"{split}_y"] = _read_labels(root / LABEL_FILES[split], x.shape[0])

    for side, fname in EMBEDDING_FILES.items():
        arrays[f"{side}_emb"] = _read_matrix(
            root / fname, (meta["C_s"] if side == "seen" else meta["C_u"], meta["S"]), "<f8")

    try:
        return GzslDataset(**arrays, unified_norm=l)
    except ValidationError as exc:
        raise DatasetLoadError(f"{root}: {exc}") from exc


def summarize(ds: GzslDataset) -> str:
    """One-paragraph human summary used by the CLI."""
    return (
        f"{ds.n_seen_classes} seen / {ds.n_unseen_classes} unseen classes, "
        f"feature dim {ds.feature_dim}, semantic dim {ds.semantic_dim}, "
        f"unified embedding norm {ds.unified_norm}; "
        f"{ds.seen_train_x.shape[0]} seen-train, {ds.seen_test_x.shape[0]} seen-test, "
        f"{ds.unseen_test_x.shape[0]} unseen-test instances"
    )
