import dataclasses
import json
import math
import re
import struct
import warnings

import numpy as np
import pytest

from sdgzsl import (
    DatasetLoadError,
    DomainError,
    SyntheticSpec,
    TrainConfig,
    ValidationError,
    generate_synthetic,
    load_dataset,
    normalize_embeddings,
    save_dataset,
    train,
)
from sdgzsl.data import _MAX_UNSEEN_COS

SMALL_SPEC = SyntheticSpec(
    n_seen_classes=10, n_unseen_classes=3, feature_dim=32, semantic_dim=16,
    per_class_train=5, per_class_test=3, cluster_spread=0.05, seed=7,
)


class TestNormalizeEmbeddings:
    def test_three_four_row(self):
        out = normalize_embeddings([[3.0, 4.0]], 1.0)
        assert out == pytest.approx(np.array([[0.6, 0.8]]), abs=1e-15)

    def test_already_normalized_row_is_fixed_point(self):
        row = np.array([[0.6, 0.8]])
        out = normalize_embeddings(row, 1.0)
        assert out == pytest.approx(row, abs=1e-12)

    def test_random_rows_hit_requested_norm(self, np_rng):
        raw = np_rng.normal(size=(10, 6))
        out = normalize_embeddings(raw, 2.0)
        norms = np.sqrt((out**2).sum(axis=1))
        assert np.abs(norms - 2.0).max() < 1e-9

    def test_idempotent(self, np_rng):
        raw = np_rng.normal(size=(8, 5))
        once = normalize_embeddings(raw, 1.5)
        twice = normalize_embeddings(once, 1.5)
        assert twice == pytest.approx(once, abs=1e-12)

    @pytest.mark.parametrize("row, what", [
        ([0.0, 0.0], "is the zero vector"), ([np.nan, 1.0], "has no finite norm"),
        ([0.0, -np.inf], "has no finite norm"),
    ])
    def test_zero_or_non_finite_row_names_class_index(self, row, what):
        raw = np.array([[1.0, 0.0], row, [0.0, 1.0]])
        with pytest.raises(DomainError, match=f"row 1 {what}"):
            normalize_embeddings(raw, 1.0)

    def test_direction_preserved(self, np_rng):
        raw = np_rng.normal(size=(4, 7))
        out = normalize_embeddings(raw, 3.0)
        for r_in, r_out in zip(raw, out):
            cos = (r_in @ r_out) / (np.linalg.norm(r_in) * np.linalg.norm(r_out))
            assert cos == pytest.approx(1.0, abs=1e-12)


class TestGenerateSynthetic:
    def test_sigma_zero_instances_equal_their_center(self):
        spec = SyntheticSpec(3, 2, 8, 4, 6, 2, 0.0, seed=5)
        ds = generate_synthetic(spec)
        for c in range(3):
            rows = ds.seen_train_x[ds.seen_train_y == c]
            assert np.all(rows == rows[0])
            test_rows = ds.seen_test_x[ds.seen_test_y == c]
            assert np.all(test_rows == rows[0])

    def test_same_seed_identical_datasets(self, tmp_path):
        a = generate_synthetic(SMALL_SPEC)
        b = generate_synthetic(SMALL_SPEC)
        save_dataset(a, tmp_path / "a")
        save_dataset(b, tmp_path / "b")
        for f in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()

    def test_embedding_norms_unified(self):
        ds = generate_synthetic(SMALL_SPEC)
        for emb in (ds.seen_emb, ds.unseen_emb):
            norms = np.sqrt((emb**2).sum(axis=1))
            assert np.abs(norms - ds.unified_norm).max() < 1e-9

    def test_unseen_directions_rejected_near_seen(self):
        ds = generate_synthetic(SMALL_SPEC)
        cos = ds.unseen_emb @ ds.seen_emb.T / ds.unified_norm**2
        assert cos.max() <= _MAX_UNSEEN_COS + 1e-12

    def test_split_sizes_and_labels(self):
        ds = generate_synthetic(SMALL_SPEC)
        assert ds.seen_train_x.shape == (50, 32)
        assert ds.seen_test_x.shape == (30, 32)
        assert ds.unseen_test_x.shape == (9, 32)
        assert set(ds.seen_train_y) == set(range(10))
        assert set(ds.unseen_test_y) == set(range(3))

    def test_invalid_spec_lists_every_violation(self):
        with pytest.raises(ValidationError) as err:
            SyntheticSpec(1, 0, 8, 4, 6, 2, -1.0, seed=5)
        msg = str(err.value)
        for fragment in ("n_seen_classes", "n_unseen_classes", "cluster_spread"):
            assert fragment in msg

    @pytest.mark.parametrize("field, value", [
        ("cluster_spread", float("inf")), ("cluster_spread", float("nan")),
        ("unified_norm", float("inf")), ("unified_norm", float("nan")),
        ("cluster_spread", "0.1"), ("cluster_spread", False), ("unified_norm", None),
        ("cluster_spread", 10**400), ("unified_norm", 10**400),  # beyond the float range
    ])
    def test_non_finite_spread_or_norm_is_rejected(self, field, value):
        spec = SyntheticSpec(3, 2, 8, 4, 6, 2, 0.1, seed=5)
        with pytest.raises(ValidationError, match=field):
            dataclasses.replace(spec, **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("n_seen_classes", 2.5), ("n_unseen_classes", True), ("feature_dim", 8.0),
        ("per_class_test", "2"), ("seed", 5.0), ("seed", None),
    ])
    def test_non_integer_count_or_seed_is_rejected(self, field, value):
        spec = SyntheticSpec(3, 2, 8, 4, 6, 2, 0.1, seed=5)
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            dataclasses.replace(spec, **{field: value})

    @pytest.mark.parametrize("counts, what", [
        (dict(n_seen_classes=10**23), "feature element count"),
        (dict(per_class_test=2**40, feature_dim=2**30), "feature element count"),
        (dict(n_unseen_classes=2**40, semantic_dim=2**30), "embedding element count"),
        (dict(feature_dim=2**31, semantic_dim=2**31), "feature map element count"),
        (dict(per_class_test=np.int64(2**40), feature_dim=np.int64(2**30)), "feature element count"),
    ])
    def test_counts_beyond_np_intp_are_rejected(self, counts, what):
        # construction only: a spec that got through would try to allocate
        spec = SyntheticSpec(3, 2, 8, 4, 6, 2, 0.1, seed=5)
        with pytest.raises(ValidationError, match=what):
            dataclasses.replace(spec, **counts)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("field, value, error, message", [
        ("cluster_spread", 1e300, ValidationError, "^seen_train: non-finite feature at row 0$"),
        ("cluster_spread", 1.7e308, ValidationError, "^seen_train: non-finite feature at row 0$"),
        ("unified_norm", 1e300, ValidationError, "^seen_train: non-finite feature at row 0$"),
        ("unified_norm", 1.7e308, ValidationError, "^seen_train: non-finite feature at row 0$"),
        # l / norm rounds to 0 at the smallest subnormal l, so every row is the zero vector
        ("unified_norm", 5e-324, ValidationError,
         r"^seen_emb: row 0 has norm 0\.0, expected 5e-324$"),
    ])
    def test_values_past_the_float32_range_raise_without_a_warning(self, field, value, error,
                                                                   message):
        with pytest.raises(error, match=message):
            generate_synthetic(dataclasses.replace(SMALL_SPEC, **{field: value}))

    @pytest.mark.filterwarnings("error")
    def test_a_unified_norm_that_flushes_the_float32_centers_is_refused(self):
        # at 1e-300 every class center flushes to 0 in float32, so the features
        # would carry no class signal; at 1e-42 the centers are subnormal but distinct
        with pytest.raises(DomainError, match=r"^unified_norm 1e-300: two classes' float32 "
                                              r"feature centers coincide"):
            generate_synthetic(dataclasses.replace(SMALL_SPEC, unified_norm=1e-300))
        ds = generate_synthetic(dataclasses.replace(SMALL_SPEC, unified_norm=1e-42))
        assert ds.unified_norm == 1e-42 and ds.seen_emb.shape == (10, 16)
        # the norm check works on emb / l, so the rows' underflowing squares do not matter
        tiny = dataclasses.replace(ds, seen_emb=ds.seen_emb * 1e-258,
                                   unseen_emb=ds.unseen_emb * 1e-258, unified_norm=1e-300)
        assert tiny.unified_norm == 1e-300

    def test_sigma_zero_nearest_center_self_consistency(self):
        # brute-force nearest neighbor over all class centers recovers the label
        spec = SyntheticSpec(6, 3, 16, 8, 4, 2, 0.0, seed=13)
        ds = generate_synthetic(spec)
        seen_centers = np.stack([ds.seen_train_x[ds.seen_train_y == c][0] for c in range(6)])
        unseen_centers = np.stack([ds.unseen_test_x[ds.unseen_test_y == c][0] for c in range(3)])
        centers = np.vstack([seen_centers, unseen_centers])
        for x, y in zip(ds.seen_train_x, ds.seen_train_y):
            d = ((centers - x) ** 2).sum(axis=1)
            assert int(np.argmin(d)) == int(y)
        for x, y in zip(ds.unseen_test_x, ds.unseen_test_y):
            d = ((centers - x) ** 2).sum(axis=1)
            assert int(np.argmin(d)) == 6 + int(y)

    @pytest.mark.parametrize("semantic_dim", [2, 3, 16, 64])
    @pytest.mark.parametrize("norm", [1e-3, 0.1, 1.0, 3.0, 1e3, 1e5, 1e7])
    def test_every_generated_dataset_round_trips_bit_for_bit(self, tmp_path, semantic_dim, norm):
        # embeddings are stored as float64 and never re-normalized, so no row moves on load
        for seed in range(8):
            spec = SyntheticSpec(10, 5, 8, semantic_dim, 2, 2, 0.05, seed, unified_norm=norm)
            assert_round_trips_exactly(generate_synthetic(spec), tmp_path / "d")

    def test_eval_heavy_shape_round_trips_bit_for_bit(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(60, 20, 32, 32, 10, 100, 0.05, seed=1))
        assert_round_trips_exactly(ds, tmp_path / "d")

    def test_custom_unified_norm(self):
        spec = SyntheticSpec(4, 2, 8, 4, 3, 2, 0.1, seed=2, unified_norm=2.5)
        ds = generate_synthetic(spec)
        norms = np.sqrt((ds.seen_emb**2).sum(axis=1))
        assert np.abs(norms - 2.5).max() < 1e-9


def assert_round_trips_exactly(ds, path):
    loaded = load_dataset(save_dataset(ds, path))
    for f in dataclasses.fields(ds):
        a, b = getattr(ds, f.name), getattr(loaded, f.name)
        assert np.array_equal(a, b), f"{f.name} moved on the disk round trip"


class TestDatasetIsCheckedWhenMade:
    """A ``GzslDataset`` exists only if it passed its checks, through
    ``dataclasses.replace`` too, and no field can be swapped afterwards."""

    def test_labels_outside_the_classes_are_refused(self):
        # else train fits every row to seen_emb[-1], the last seen embedding
        ds = generate_synthetic(SMALL_SPEC)
        with pytest.raises(ValidationError, match=r"^seen_train: label -1 at row 0 outside 0\.\.9$"):
            train(dataclasses.replace(ds, seen_train_y=np.full_like(ds.seen_train_y, -1)),
                  TrainConfig(epochs=1))

    @pytest.mark.parametrize("l", [0.0, -1.0, np.nan, np.inf, None, "1.0", True, 10**400])
    def test_a_unified_norm_that_is_no_finite_positive_number_is_refused(self, l):
        # else zero embeddings pass a norm check against l = 0, and length_gaps fails later
        ds = generate_synthetic(SMALL_SPEC)
        zeros = np.zeros_like(ds.seen_emb), np.zeros_like(ds.unseen_emb)
        with pytest.raises(ValidationError,
                           match=r"^unified_norm must be a finite number > 0, got "):
            dataclasses.replace(ds, seen_emb=zeros[0], unseen_emb=zeros[1], unified_norm=l)

    @pytest.mark.parametrize("split, labels", [
        ("seen_train", lambda y: y.astype(float)),  # else train dies with an IndexError
        ("seen_test", lambda y: y + 0.5),  # else evaluate truncates them to the same acc_s
        ("unseen_test", lambda y: y > 0),
    ])
    def test_labels_of_a_non_integer_dtype_are_refused(self, split, labels):
        ds = generate_synthetic(SMALL_SPEC)
        bad = labels(getattr(ds, f"{split}_y"))
        with pytest.raises(ValidationError,
                           match=f"^{split}: labels must be integers, got dtype {bad.dtype}$"):
            dataclasses.replace(ds, **{f"{split}_y": bad})

    def test_an_empty_split_given_as_a_list_is_accepted(self):
        # np.asarray([]) is float64, yet it holds no label to index with or truncate
        ds = generate_synthetic(SMALL_SPEC)
        empty = dataclasses.replace(ds, unseen_test_x=np.zeros((0, ds.feature_dim)),
                                    unseen_test_y=[])
        assert empty.unseen_test_y.dtype == np.int64 and empty.unseen_test_y.shape == (0,)

    @pytest.mark.parametrize("labels, shape", [
        (lambda y: y[0], r"\(\)"),  # a 0-d array, which has no length to name
        (lambda y: y[:-1], r"\(49,\)"), (lambda y: y[:, None], r"\(50, 1\)"),
    ])
    def test_labels_of_another_shape_than_the_rows_are_refused(self, labels, shape):
        ds = generate_synthetic(SMALL_SPEC)
        with pytest.raises(ValidationError,
                           match=f"^seen_train: labels of shape {shape} for 50 rows$"):
            dataclasses.replace(ds, seen_train_y=labels(ds.seen_train_y))

    def test_values_are_stored_as_float64_int64_and_a_float_norm(self):
        ds = generate_synthetic(SMALL_SPEC)
        made = dataclasses.replace(
            ds, seen_train_x=ds.seen_train_x.astype(np.float32), seen_test_y=ds.seen_test_y.astype(
                np.uint8), unseen_test_y=list(ds.unseen_test_y), seen_emb=ds.seen_emb.tolist(),
            unified_norm=1)
        for f in dataclasses.fields(ds):
            a, b = getattr(ds, f.name), getattr(made, f.name)
            assert type(a) is type(b) and np.array_equal(a, b), f.name
            if f.name != "unified_norm":
                assert a.dtype == b.dtype and not b.flags.writeable, f.name
        # arrays already of the stored dtype are kept, not copied
        assert dataclasses.replace(ds).seen_train_x is ds.seen_train_x

    @pytest.mark.filterwarnings("error")
    def test_a_huge_unified_norm_is_checked_without_overflow(self, tmp_path):
        # the squares of these entries overflow; the norms of emb / l do not
        ds = generate_synthetic(SMALL_SPEC)
        big = dataclasses.replace(ds, seen_emb=ds.seen_emb * 1e200,
                                  unseen_emb=ds.unseen_emb * 1e200, unified_norm=1e200)
        assert_round_trips_exactly(big, tmp_path / "d")
        emb = big.seen_emb.copy()
        emb[3] *= 1 + 1e-8
        with pytest.raises(ValidationError,
                           match=r"^seen_emb: row 3 has norm 1\.00000001\d*e\+200, expected 1e\+200$"):
            dataclasses.replace(big, seen_emb=emb)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("l", [1e-300, 1e300])
    def test_rows_far_off_an_extreme_unified_norm_name_their_own_norm(self, l):
        # emb / l overflows at 1e-300 and underflows at 1e300 on these unit rows
        ds = generate_synthetic(SMALL_SPEC)
        shown = repr(math.hypot(*ds.seen_emb[0]))
        assert shown.startswith(("0.99", "1.0"))
        message = f"seen_emb: row 0 has norm {shown}, expected {l!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(ds, unified_norm=l)

    @pytest.mark.parametrize("field", ["seen_train_x", "seen_emb", "unified_norm"])
    def test_a_field_cannot_be_swapped(self, field):
        ds = generate_synthetic(SMALL_SPEC)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ds, field, getattr(ds, field))


class TestDatasetIO:
    def test_round_trip_identity(self, tmp_path):
        ds = generate_synthetic(SMALL_SPEC)
        loaded = load_dataset(save_dataset(ds, tmp_path / "d"))
        for f in ("seen_train_x", "seen_test_x", "unseen_test_x", "seen_emb", "unseen_emb"):
            assert np.abs(getattr(ds, f) - getattr(loaded, f)).max() <= 1e-12
        for f in ("seen_train_y", "seen_test_y", "unseen_test_y"):
            assert np.array_equal(getattr(ds, f), getattr(loaded, f))
        assert loaded.unified_norm == ds.unified_norm

    def test_double_round_trip_is_stable(self, tmp_path):
        ds = generate_synthetic(SMALL_SPEC)
        a = load_dataset(save_dataset(ds, tmp_path / "a"))
        b = load_dataset(save_dataset(a, tmp_path / "b"))
        for f in ("seen_train_x", "seen_test_x", "unseen_test_x", "seen_emb", "unseen_emb"):
            assert np.array_equal(getattr(a, f), getattr(b, f))

    def test_loaded_embedding_norms_match_header(self, tmp_path):
        ds = generate_synthetic(SMALL_SPEC)
        loaded = load_dataset(save_dataset(ds, tmp_path / "d"))
        norms = np.sqrt((loaded.seen_emb**2).sum(axis=1))
        assert np.abs(norms - loaded.unified_norm).max() < 1e-9

    def test_truncated_feature_file(self, tmp_path):
        ds = generate_synthetic(SMALL_SPEC)
        root = save_dataset(ds, tmp_path / "d")
        f = root / "seen_train.f32"
        f.write_bytes(f.read_bytes()[:-8])
        with pytest.raises(DatasetLoadError, match="expected .* bytes .* got"):
            load_dataset(root)

    def test_nan_feature_names_row(self, tmp_path):
        ds = generate_synthetic(SMALL_SPEC)
        root = save_dataset(ds, tmp_path / "d")
        f = root / "seen_test.f32"
        blob = bytearray(f.read_bytes())
        # corrupt one float in row 4
        offset = 16 + (4 * 32 + 3) * 4
        blob[offset : offset + 4] = struct.pack("<f", float("nan"))
        f.write_bytes(bytes(blob))
        with pytest.raises(DatasetLoadError, match="row 4"):
            load_dataset(root)

    def test_missing_file(self, tmp_path):
        ds = generate_synthetic(SMALL_SPEC)
        root = save_dataset(ds, tmp_path / "d")
        (root / "unseen_emb.f64").unlink()
        with pytest.raises(DatasetLoadError, match="missing file"):
            load_dataset(root)

    def test_label_out_of_range(self, tmp_path):
        ds = generate_synthetic(SMALL_SPEC)
        root = save_dataset(ds, tmp_path / "d")
        f = root / "unseen_test.labels"
        blob = bytearray(f.read_bytes())
        blob[0:4] = struct.pack("<I", 99)
        f.write_bytes(bytes(blob))
        with pytest.raises(DatasetLoadError, match="label 99 at row 0"):
            load_dataset(root)

    def test_shape_mismatch_against_header(self, tmp_path):
        ds = generate_synthetic(SMALL_SPEC)
        root = save_dataset(ds, tmp_path / "d")
        meta = json.loads((root / "meta.json").read_text())
        meta["n_seen_test"] = 7
        (root / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DatasetLoadError, match=(
                r"seen_test\.f32: header shape \(30, 32\) does not match meta\.json's \(7, 32\)")):
            load_dataset(root)

    @pytest.mark.parametrize("key", ["C_u", "S"])
    def test_unseen_embedding_shape_mismatch_against_meta(self, tmp_path, key):
        # C_u moves in meta.json; S moves in the unseen table alone, since the
        # seen table, read first, shares it
        ds = generate_synthetic(SMALL_SPEC)
        root = save_dataset(ds, tmp_path / "d")
        if key == "C_u":
            meta = json.loads((root / "meta.json").read_text())
            meta["C_u"] += 1
            (root / "meta.json").write_text(json.dumps(meta))
        else:
            wide = np.zeros((ds.n_unseen_classes, ds.semantic_dim + 1), dtype="<f8")
            (root / "unseen_emb.f64").write_bytes(struct.pack("<QQ", *wide.shape) + wide.tobytes())
        with pytest.raises(DatasetLoadError,
                           match=r"unseen_emb\.f64: header shape .* does not match meta\.json's"):
            load_dataset(root)

    @pytest.mark.parametrize("key, value", [
        ("l", "abc"), ("l", True), ("l", None), ("l", 0), ("l", -1.0), ("l", float("nan")),
        ("l", float("inf")), ("l", [1.0]), ("l", 10**400),
        ("n_seen_train", "500"), ("n_seen_test", 3.0), ("n_unseen_test", -1),
        ("n_seen_train", True), ("d", 0), ("S", "16"), ("C_s", 0), ("C_u", False),
        ("C_u", 3.5), ("d", None),
    ])
    def test_meta_value_of_wrong_type_or_range_names_the_key(self, tmp_path, key, value):
        ds = generate_synthetic(SMALL_SPEC)
        root = save_dataset(ds, tmp_path / "d")
        meta = json.loads((root / "meta.json").read_text())
        meta[key] = value
        (root / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DatasetLoadError, match=f"'{key}' must be"):
            load_dataset(root)

    def test_meta_that_is_not_an_object_is_rejected(self, tmp_path):
        root = save_dataset(generate_synthetic(SMALL_SPEC), tmp_path / "d")
        (root / "meta.json").write_text(json.dumps(["d", "S", "C_s", "C_u", "l"]))
        with pytest.raises(DatasetLoadError, match="JSON object"):
            load_dataset(root)

    def test_integer_unified_norm_loads_as_a_float(self, tmp_path):
        ds = generate_synthetic(SMALL_SPEC)
        root = save_dataset(ds, tmp_path / "d")
        meta = json.loads((root / "meta.json").read_text())
        assert meta["l"] == 1.0
        meta["l"] = 1
        (root / "meta.json").write_text(json.dumps(meta))
        loaded = load_dataset(root)
        assert type(loaded.unified_norm) is float and loaded.unified_norm == 1.0

    @pytest.mark.parametrize("side", ["seen", "unseen"])
    def test_nan_embedding_row_rejected(self, side):
        ds = generate_synthetic(SMALL_SPEC)
        emb = getattr(ds, f"{side}_emb").copy()
        emb[0, 0] = np.nan
        with pytest.raises(ValidationError, match=f"{side}_emb: row 0 has norm"):
            dataclasses.replace(ds, **{f"{side}_emb": emb})

    @pytest.mark.parametrize("scale", [np.nan, 2.0])
    def test_norm_message_prints_plain_floats(self, scale):
        ds = generate_synthetic(SMALL_SPEC)
        emb = ds.seen_emb.copy()
        emb[0] *= scale
        shown = repr(float(np.sqrt((emb[0] * emb[0]).sum())))
        assert shown == "nan" or shown.startswith(("1.99", "2.0"))
        with pytest.raises(ValidationError) as info:
            dataclasses.replace(ds, seen_emb=emb)
        assert str(info.value) == f"seen_emb: row 0 has norm {shown}, expected 1.0"

    @pytest.mark.parametrize("value, shown", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "inf")])
    def test_non_finite_embedding_file_names_the_row(self, tmp_path, value, shown):
        root = save_dataset(generate_synthetic(SMALL_SPEC), tmp_path / "d")
        f = root / "unseen_emb.f64"
        blob = bytearray(f.read_bytes())
        offset = 16 + (2 * 16 + 5) * 8  # row 2, column 5
        blob[offset : offset + 8] = struct.pack("<d", value)
        f.write_bytes(bytes(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DatasetLoadError,
                               match=f"unseen_emb: row 2 has norm {shown}, expected 1.0$"):
                load_dataset(root)

    def test_zero_embedding_row_rejected(self, tmp_path):
        ds = generate_synthetic(SMALL_SPEC)
        root = save_dataset(ds, tmp_path / "d")
        f = root / "seen_emb.f64"
        blob = bytearray(f.read_bytes())
        blob[16 : 16 + 16 * 8] = b"\x00" * 128  # zero out row 0
        f.write_bytes(bytes(blob))
        with pytest.raises(DatasetLoadError, match=r"seen_emb: row 0 has norm 0\.0, expected 1\.0$"):
            load_dataset(root)

    def test_embedding_row_off_its_norm_is_refused_not_renormalized(self, tmp_path):
        # 1e-8 off, past the 1e-9 * l tolerance: the row is checked, never rescaled
        ds = generate_synthetic(SMALL_SPEC)
        root = save_dataset(ds, tmp_path / "d")
        emb = ds.unseen_emb.copy()
        emb[1] *= 1 + 1e-8
        blob = struct.pack("<QQ", *emb.shape) + emb.astype("<f8").tobytes()
        (root / "unseen_emb.f64").write_bytes(blob)
        with pytest.raises(DatasetLoadError, match=r"unseen_emb: row 1 has norm 1\.00000001"):
            load_dataset(root)

    def test_embedding_file_of_float32_bytes_is_refused_by_its_byte_count(self, tmp_path):
        ds = generate_synthetic(SMALL_SPEC)
        root = save_dataset(ds, tmp_path / "d")
        f = root / "seen_emb.f64"
        f.write_bytes(struct.pack("<QQ", 10, 16) + ds.seen_emb.astype("<f4").tobytes())
        with pytest.raises(DatasetLoadError, match=(
                r"seen_emb\.f64: expected 1296 bytes for 10x16 f64 matrix, got 656$")):
            load_dataset(root)
