"""Seen/unseen data model, synthetic generator, and dataset directory I/O.

A dataset directory holds:

* ``meta.json`` - dimensions, per-split counts, the unified embedding
  norm ``l``, and an endianness tag.
* ``seen_train.f32`` / ``seen_test.f32`` / ``unseen_test.f32`` - feature
  rows as little-endian float32, row-major, preceded by two little-endian
  uint64 (rows, cols).
* ``seen_train.labels`` / ``seen_test.labels`` / ``unseen_test.labels`` -
  one little-endian uint32 per feature row.
* ``seen_emb.f32`` / ``unseen_emb.f32`` - per-class embedding rows in the
  same binary matrix layout.

Features are stored as 32-bit floats on disk and widened to 64-bit in
memory.  Labels are dense integers 0..C-1 per side; the seen/unseen
domain is carried by which split an instance sits in, so the two class
vocabularies can never collide.
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
EMBEDDING_FILES = {"seen": "seen_emb.f32", "unseen": "unseen_emb.f32"}


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


@dataclass
class SyntheticSpec:
    """Shape of a synthetic benchmark at desk scale."""

    n_seen_classes: int
    n_unseen_classes: int
    feature_dim: int
    semantic_dim: int
    per_class_train: int
    per_class_test: int
    cluster_spread: float
    seed: int
    unified_norm: float = 1.0

    def validate(self) -> None:
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
        d = self.feature_dim
        s = self.semantic_dim
        for name in ("seen_train", "seen_test", "unseen_test"):
            x = getattr(self, f"{name}_x")
            y = getattr(self, f"{name}_y")
            as_matrix(x, name)
            if x.shape[1] != d:
                raise ValidationError(f"{name}: feature dim {x.shape[1]} != {d}")
            if y.shape != (x.shape[0],):
                raise ValidationError(f"{name}: {y.shape[0]} labels for {x.shape[0]} rows")
            finite = np.isfinite(x).all(axis=1)
            if not finite.all():
                raise ValidationError(f"{name}: non-finite feature at row {int(finite.argmin())}")
            n_classes = self.n_unseen_classes if name == "unseen_test" else self.n_seen_classes
            outside = (y < 0) | (y >= n_classes)
            if outside.any():
                bad = int(outside.argmax())
                raise ValidationError(
                    f"{name}: label {y[bad]} at row {bad} outside 0..{n_classes - 1}")
        for side, emb in (("seen", self.seen_emb), ("unseen", self.unseen_emb)):
            as_matrix(emb, f"{side}_emb")
            if emb.shape[1] != s:
                raise ValidationError(f"{side}_emb: semantic dim {emb.shape[1]} != {s}")
            norms = np.sqrt((emb * emb).sum(axis=1))
            off = np.abs(norms - self.unified_norm)
            # relative to l, so any norm in (0, inf) can pass; a NaN norm fails too
            if off.size and not off.max() <= 1e-9 * self.unified_norm:
                bad = int(off.argmax())
                raise ValidationError(
                    f"{side}_emb: row {bad} has norm {float(norms[bad])!r}, "
                    f"expected {float(self.unified_norm)!r}"
                )
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


def _settle_creeping_row(row: np.ndarray, l: float) -> None:
    """Move a float32 row, in place, to a float32 fixed point of norm ``l``.

    Its coordinates, largest first, each move by whole float32 ulps to the
    value that brings the norm nearest ``l``, until the norm error is below
    the smallest relative half-ulp of the row, where quantizing the
    normalized row gives the row back.  The largest coordinate alone is too
    coarse when it holds nearly all of the norm (3-dimensional rows, say);
    each smaller one refines the norm in finer steps.
    """
    for k in np.argsort(-np.abs(row), kind="stable"):
        if not row[k] or np.array_equal(normalize_embeddings(row[None], l).astype(np.float32)[0], row):
            return
        others = np.delete(row, k).astype(np.float64)
        row[k] = math.copysign(math.sqrt(max(l * l - others @ others, 0.0)), row[k])


def _f32_stable_unit_rows(raw: np.ndarray, l: float) -> np.ndarray:
    """Normalize rows to norm l such that float32 storage round-trips exactly.

    Iterates quantize -> ``normalize_embeddings`` until every row is a fixed
    point, which is what ``load_dataset`` rebuilds from the file bit for bit.
    A row still moving after 64 rounds creeps: its float32 image misses norm
    ``l`` by more than the smallest relative half-ulp of its coordinates,
    and each round moves one small coordinate by one ulp.  Such a row is
    settled by ``_settle_creeping_row``; rows already fixed stay where they
    are.  Raises ``DomainError`` when a row is still no fixed point.
    """
    v = normalize_embeddings(raw, l)
    for _ in range(64):
        with np.errstate(over="ignore"):  # a row past the float32 range has no finite norm
            w = normalize_embeddings(v.astype(np.float32).astype(np.float64), l)
        if np.array_equal(w, v):
            return v
        v = w
    v32 = v.astype(np.float32)
    for i in np.flatnonzero((normalize_embeddings(v32, l) != v).any(axis=1)):
        _settle_creeping_row(v32[i], l)
    v = normalize_embeddings(v32, l)
    if np.array_equal(normalize_embeddings(v.astype(np.float32), l), v):
        return v
    raise DomainError(
        f"an embedding row reaches no float32 fixed point at unified norm {l}; "
        "try another seed or norm"
    )


def generate_synthetic(spec: SyntheticSpec) -> GzslDataset:
    """Deterministic Gaussian-cluster benchmark with genuine domain shift.

    Per class, a random unit direction in semantic space (scaled to the
    unified norm) is the class embedding; a fixed random linear map sends
    embeddings to feature-space class centers; instances are center plus
    isotropic Gaussian noise.  Unseen directions are resampled until
    their cosine to every seen embedding is at most 0.95, so the unseen
    domain never collapses onto the seen one.
    """
    spec.validate()
    root = SplitMix64(spec.seed)
    emb_rng = root.split()
    map_rng = root.split()
    noise_rng = root.split()

    l = spec.unified_norm
    s_dim = spec.semantic_dim
    seen_emb = _f32_stable_unit_rows(
        emb_rng.gauss_array((spec.n_seen_classes, s_dim)), l
    )

    unseen_rows = []
    for _ in range(spec.n_unseen_classes):
        for _attempt in range(10_000):
            cand = _f32_stable_unit_rows(emb_rng.gauss_array((1, s_dim)), l)[0]
            cos = seen_emb @ cand / (l * l)
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
    seen_centers = seen_emb @ w_true.T
    unseen_centers = unseen_emb @ w_true.T

    def draw_split(centers: np.ndarray, per_class: int) -> tuple[np.ndarray, np.ndarray]:
        n_classes = centers.shape[0]
        # one draw per split (its classes are consecutive in the stream), scaled and
        # shifted in place: the same values as center + spread * noise, no temporaries
        x = noise_rng.gauss_array((n_classes, per_class, spec.feature_dim))
        with np.errstate(over="ignore"):  # an overflow is refused as a non-finite feature
            x *= spec.cluster_spread
            x += centers[:, None, :]
            # features live on the f32 grid so disk round-trips are exact
            x = x.reshape(-1, spec.feature_dim).astype(np.float32).astype(np.float64)
        return x, np.repeat(np.arange(n_classes), per_class)

    seen_train_x, seen_train_y = draw_split(seen_centers, spec.per_class_train)
    seen_test_x, seen_test_y = draw_split(seen_centers, spec.per_class_test)
    unseen_test_x, unseen_test_y = draw_split(unseen_centers, spec.per_class_test)

    return GzslDataset(
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


def _write_matrix(path: Path, m: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(m.shape[0], m.shape[1]))
        fh.write(np.ascontiguousarray(m, dtype="<f4").tobytes())


def _read_matrix(path: Path, shape: tuple[int, int]) -> np.ndarray:
    """The matrix file at ``path``, whose header must read ``shape``."""
    if not path.is_file():
        raise DatasetLoadError(f"{path}: missing file")
    blob = path.read_bytes()
    if len(blob) < _HEADER.size:
        raise DatasetLoadError(
            f"{path}: truncated header, expected {_HEADER.size} bytes, got {len(blob)}"
        )
    rows, cols = _HEADER.unpack_from(blob)
    expected = _HEADER.size + rows * cols * 4
    if len(blob) != expected:
        raise DatasetLoadError(
            f"{path}: expected {expected} bytes for {rows}x{cols} f32 matrix, got {len(blob)}"
        )
    if (rows, cols) != shape:
        raise DatasetLoadError(
            f"{path}: header shape {(rows, cols)} does not match meta.json's {shape}")
    data = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size)
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
        _write_matrix(out / fname, getattr(ds, f"{split}_x"))
        _write_labels(out / LABEL_FILES[split], getattr(ds, f"{split}_y"))
    for side, fname in EMBEDDING_FILES.items():
        _write_matrix(out / fname, getattr(ds, f"{side}_emb"))
    return out


# meta.json count keys and their smallest valid value
_META_COUNTS = {"d": 1, "S": 1, "C_s": 1, "C_u": 1,
                "n_seen_train": 0, "n_seen_test": 0, "n_unseen_test": 0}


def load_dataset(path) -> GzslDataset:
    """Read and fully validate a dataset directory.

    ``meta.json`` is checked here; each matrix file is checked by
    ``_read_matrix`` against the shape ``meta.json`` gives it, and each
    labels file by ``_read_labels`` against its split's row count.
    Embedding rows are re-normalized to the header's unified norm after
    the float32 widening.  A format error, or a value that ``GzslDataset``
    refuses when made, raises ``DatasetLoadError``.
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
        x = _read_matrix(root / fname, (meta[f"n_{split}"], meta["d"]))
        arrays[f"{split}_x"] = x
        arrays[f"{split}_y"] = _read_labels(root / LABEL_FILES[split], x.shape[0])

    for side, fname in EMBEDDING_FILES.items():
        fpath = root / fname
        e = _read_matrix(fpath, (meta["C_s"] if side == "seen" else meta["C_u"], meta["S"]))
        try:
            arrays[f"{side}_emb"] = normalize_embeddings(e, meta["l"])
        except DomainError as exc:
            raise DatasetLoadError(f"{fpath}: {exc}") from exc

    try:
        return GzslDataset(**arrays, unified_norm=float(meta["l"]))
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
