import dataclasses
import math
import warnings

import numpy as np
import pytest

from sdgzsl import (
    CalibrationError,
    DatasetLoadError,
    DomainError,
    MlpParams,
    GzslDataset,
    SplitMix64,
    ThresholdSet,
    TrainConfig,
    calibrate,
    calibrate_from_samples,
    evaluate,
    gate_dl,
    gate_ol,
    gate_statistics,
    gate_ws,
    load_thresholds,
    min_semantic_distance,
    ShapeError,
    save_thresholds,
    train,
)
from sdgzsl.gates import GATE_FUNCTIONS
from sdgzsl.mlp import forward_batch, init_params


def make_thresholds(m_dl=0.0, std_dl=0.0, m_msd=0.0, std_msd=0.0, m_ws=0.0, std_ws=0.0,
                    lam=1.0, l=1.0):
    return ThresholdSet(lam=lam, m_dl=m_dl, std_dl=std_dl, m_msd=m_msd, std_msd=std_msd,
                        m_ws=m_ws, std_ws=std_ws, l=l)


def identity_fit_dataset():
    """d == S, axis-aligned embeddings, features equal to embeddings, so an
    identity mapper projects every instance exactly onto its embedding."""
    emb = np.eye(3)
    seen_emb, unseen_emb = emb[:2], emb[2:]
    seen_x = np.array([emb[0], emb[0], emb[1], emb[1]])
    seen_y = np.array([0, 0, 1, 1])
    return GzslDataset(
        seen_train_x=seen_x.copy(), seen_train_y=seen_y.copy(),
        seen_test_x=seen_x.copy(), seen_test_y=seen_y.copy(),
        unseen_test_x=emb[2:].copy(), unseen_test_y=np.array([0]),
        seen_emb=seen_emb.copy(), unseen_emb=unseen_emb.copy(), unified_norm=1.0,
    )


def identity_mapper(dim):
    return MlpParams([np.eye(dim)], [np.zeros(dim)], ["linear"])


class TestLengthGap:
    @staticmethod
    def d_l(proj, l):
        return gate_statistics(proj, np.zeros((1, len(proj[0]))), l)[0].tolist()

    def test_on_sphere_is_zero(self):
        assert self.d_l([[0.6, 0.8], [0.0, -1.0]], 1.0) == [0.0, 0.0]

    def test_three_four_vector(self):
        assert self.d_l([[3.0, 4.0]], 1.0) == [4.0]

    def test_zero_vector(self):
        assert self.d_l([[0.0, 0.0, 0.0]], 1.0) == [1.0]


class TestMinSemanticDistance:
    def test_exact_match_is_exact_zero(self):
        assert min_semantic_distance([[1.0, 0.0], [0.0, 1.0]],
                                     [[1.0, 0.0], [0.0, 1.0]]).tolist() == [0.0, 0.0]

    def test_hand_computed_minimum(self):
        table = [[1.0, 0.0], [0.0, 1.0], [3.0, 4.0]]
        assert min_semantic_distance([[0.0, 0.0], [3.0, 3.0]], table).tolist() == [1.0, 1.0]

    def test_empty_table_rejected(self):
        with pytest.raises(DomainError):
            min_semantic_distance([[1.0]], np.empty((0, 1)))

    @pytest.mark.parametrize("fn", [min_semantic_distance,
                                    lambda p, t: gate_statistics(p, t, 1.0)])
    def test_a_single_vector_is_a_shape_error(self, fn):
        with pytest.raises(ShapeError):
            fn([1.0, 0.0], [[1.0, 0.0]])


class TestCalibration:
    def test_sample_example(self):
        th = calibrate_from_samples([0.0, 2.0, 4.0], [0.0, 0.0, 0.0], lam=1.0, l=1.0)
        sigma = math.sqrt(8.0 / 3.0)
        assert th.m_dl == 2.0
        assert th.r_ol == pytest.approx(2.0 + sigma, rel=1e-12)
        assert th.r_ws == pytest.approx(th.r_ol, rel=1e-12)
        assert th.r_0 == 0.0 and th.r_1 == 0.0

    def test_perfect_fit_collapses_to_zero(self):
        ds = identity_fit_dataset()
        th = calibrate(identity_mapper(3), ds)
        for f in ("m_dl", "std_dl", "r_ol", "m_msd", "std_msd", "r_0", "r_1",
                  "m_ws", "std_ws", "r_ws"):
            assert getattr(th, f) == 0.0

    def test_identities_hold_bitwise_on_random_calibrations(self, noiseless_dataset):
        for seed in range(100):
            mapper = init_params(32, [8], 16, SplitMix64(seed))
            th = calibrate(mapper, noiseless_dataset, lam=1.0)
            assert th.r_ol == th.m_dl + th.std_dl
            assert th.r_0 == th.m_msd + 2.0 * th.std_msd
            assert th.r_1 == th.m_msd + th.std_msd
            assert th.r_ws == th.m_ws + th.std_ws
            assert th.r_0 >= th.r_1

    def test_split_flag_changes_samples(self, bench_dataset, bench_mapper):
        params, _ = bench_mapper
        th_train = calibrate(params, bench_dataset, split="seen_train")
        th_test = calibrate(params, bench_dataset, split="seen_test")
        assert th_train.m_dl != th_test.m_dl

    @pytest.mark.parametrize("as_array", [False, True])
    def test_zero_variance_sample_gates_an_instance_at_the_mean_unseen(self, as_array):
        # strict < : with std 0 every threshold equals its mean, and an
        # instance exactly at the mean gates UNSEEN under every rule
        d_l, msd = [0.25] * 6, [0.5] * 6
        if as_array:
            d_l, msd = np.array(d_l), np.array(msd)
        th = calibrate_from_samples(d_l, msd, lam=1.0, l=1.0)
        assert th.std_dl == th.std_msd == th.std_ws == 0.0
        assert th.r_ol == th.m_dl == 0.25
        assert th.r_0 == th.r_1 == th.m_msd == 0.5
        assert th.r_ws == th.m_ws == 0.75
        for gate in (gate_ol, gate_dl, gate_ws):
            assert not gate(0.25, 0.5, th)
        assert gate_ol(math.nextafter(0.25, 0.0), 0.5, th)
        d_ls = np.array([0.25, 0.25, 0.125])
        msds = np.array([0.5, 0.25, 0.5])
        expect = {"ol": [False, False, True], "dl": [False, True, False], "ws": [False, True, True]}
        for tag, rule in GATE_FUNCTIONS.items():
            assert rule(d_ls, msds, th).tolist() == expect[tag], tag

    def test_empty_samples_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_from_samples([], [], lam=1.0, l=1.0)

    @pytest.mark.parametrize("lam", [math.nan, -1.0, -1e-300, math.inf, -math.inf, 10**400])
    def test_non_finite_or_negative_lambda_rejected(self, lam):
        with pytest.raises(CalibrationError):
            calibrate_from_samples([0.1, 0.4], [0.2, 0.5], lam=lam, l=1.0)

    @pytest.mark.parametrize("lam", [math.inf, math.nan, -1.0, 10**400])
    def test_bad_lambda_fails_before_any_statistic(self, bench_dataset, bench_mapper, lam):
        # an infinite lam would otherwise form inf - inf inside mean_and_popstd
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CalibrationError, match="lam must be"):
                calibrate(bench_mapper[0], bench_dataset, lam=lam)

    @pytest.mark.parametrize("d_l, msd", [
        ([0.1, math.inf], [0.2, 0.5]),
        ([0.1, 0.4], [math.nan, 0.5]),
        ([0.1, 1e308], [0.2, 1e308]),  # finite samples whose d_l + lam * msd overflows
    ])
    def test_non_finite_samples_fail_before_any_statistic(self, d_l, msd):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CalibrationError, match="non-finite .* calibration samples"):
                calibrate_from_samples(d_l, msd, lam=1.0, l=1.0)

    def test_an_overflowing_norm_fails_calibration_without_a_warning(self, bench_dataset):
        # the projections are finite, about 1e161, but their squared norms and
        # distances overflow to inf
        ds = bench_dataset
        w = np.full((ds.semantic_dim, ds.feature_dim), 1e160)
        mapper = MlpParams([w], [np.zeros(ds.semantic_dim)], ["linear"])
        assert np.isfinite(forward_batch(mapper, ds.seen_train_x)).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CalibrationError, match="non-finite d_l calibration samples"):
                calibrate(mapper, ds)

    @pytest.mark.filterwarnings("error")
    def test_a_mean_that_overflows_is_refused_without_a_warning(self):
        with pytest.raises(CalibrationError,
                           match=r"non-finite threshold fields \['m_dl', 'std_dl', 'm_ws', 'std_ws'\]"):
            calibrate_from_samples([1e308, 1e308], [0.0, 0.0], lam=1.0, l=1.0)

    def test_zero_lambda_is_valid(self):
        th = calibrate_from_samples([0.1, 0.4], [0.2, 0.5], lam=0.0, l=1.0)
        assert th.lam == 0.0 and th.r_ws == th.r_ol

    @pytest.mark.parametrize("field", ["std_dl", "m_msd", "l"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 10**400])
    def test_non_finite_field_rejected(self, field, value):
        th = calibrate_from_samples([0.1, 0.4], [0.2, 0.5], lam=1.0, l=1.0)
        with pytest.raises(CalibrationError, match="non-finite"):
            dataclasses.replace(th, **{field: value})

    @pytest.mark.parametrize("l", [0.0, -0.0, -1e-300, -1.0])
    def test_zero_or_negative_norm_rejected(self, l):
        with pytest.raises(CalibrationError, match="unified norm l must be > 0"):
            calibrate_from_samples([0.1, 0.4], [0.2, 0.5], lam=1.0, l=l)

    @pytest.mark.parametrize("field", ["std_dl", "std_msd", "std_ws"])
    def test_negative_std_rejected(self, field):
        th = calibrate_from_samples([0.1, 0.4], [0.2, 0.5], lam=1.0, l=1.0)
        with pytest.raises(CalibrationError, match=f"standard deviations must be >= 0.*{field}"):
            dataclasses.replace(th, **{field: -1e-300})

    def test_a_threshold_that_overflows_is_rejected(self):
        with pytest.raises(CalibrationError, match=r"non-finite thresholds \['r_0', 'r_1'\]"):
            make_thresholds(m_msd=1e308, std_msd=1e308)

    def test_the_thresholds_are_derived_not_stored(self):
        assert [f.name for f in dataclasses.fields(ThresholdSet)] == [
            "lam", "m_dl", "std_dl", "m_msd", "std_msd", "m_ws", "std_ws", "l"]
        for name in ("r_ol", "r_0", "r_1", "r_ws"):
            assert isinstance(getattr(ThresholdSet, name), property)


class TestThresholdSetIsCheckedWhenMade:
    """A ``ThresholdSet`` made directly, not by calibration, is checked too."""

    def test_a_nan_statistic_is_refused_before_any_report(self, bench_dataset, bench_mapper):
        # else ol gates every row unseen, and the report reads acc_s 0.0
        with pytest.raises(CalibrationError, match=r"non-finite threshold fields \['m_dl'\]"):
            evaluate(bench_mapper[0], ThresholdSet(1.0, math.nan, 0.0, 0.0, 0.0, 0.0, 0.0,
                                                   bench_dataset.unified_norm), "ol", bench_dataset)

    def test_a_negative_lambda_is_refused(self):
        with pytest.raises(CalibrationError, match="lam must be >= 0"):
            ThresholdSet(-1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)


class TestGateRules:
    def test_ol_inside(self):
        th = make_thresholds(m_dl=0.5)
        assert gate_ol(0.0, 0.0, th)

    def test_ol_boundary_is_unseen(self):
        th = make_thresholds(m_dl=0.5)
        assert not gate_ol(0.5, 0.0, th)

    def test_ol_far_outside(self):
        th = make_thresholds(m_dl=0.5)
        assert not gate_ol(10.0, 0.0, th)

    def test_dl_four_cases(self):
        th = make_thresholds(m_dl=1.0, m_msd=1.0, std_msd=0.5)  # r_ol=1, r_0=2, r_1=1.5
        assert gate_dl(0.5, 1.9, th)        # small d_l, small msd
        assert not gate_dl(0.5, 2.0, th)    # length vote overruled
        assert gate_dl(1.0, 1.4, th)        # rescued by small msd
        assert not gate_dl(1.0, 1.5, th)    # both votes unseen
        d_l, msd = np.array([0.5, 0.5, 1.0, 1.0]), np.array([1.9, 2.0, 1.4, 1.5])
        assert gate_dl(d_l, msd, th).tolist() == [True, False, True, False]

    def test_ws_simple(self):
        th = make_thresholds(m_ws=0.5)
        assert gate_ws(0.1, 0.2, th)

    def test_ws_boundary_is_unseen(self):
        th = make_thresholds(m_ws=0.3)
        assert not gate_ws(0.1, 0.2, th)

    def test_determinism(self, np_rng):
        th = make_thresholds(m_dl=0.4, m_msd=0.7, std_msd=0.2, m_ws=1.0)
        d_l, msd = np_rng.uniform(0, 2, size=100), np_rng.uniform(0, 2, size=100)
        for gate in (gate_ol, gate_dl, gate_ws):
            assert np.array_equal(gate(d_l, msd, th), gate(d_l, msd, th))

    @pytest.mark.parametrize("tag", sorted(GATE_FUNCTIONS))
    def test_a_rule_gives_a_boolean_mask_of_its_rows(self, tag, np_rng):
        # evaluation takes a rule's output as the gated-seen mask unchecked
        th = make_thresholds(m_dl=0.4, m_msd=0.7, std_msd=0.2, m_ws=1.0)
        d_l, msd = np_rng.uniform(0, 2, size=37), np_rng.uniform(0, 2, size=37)
        mask = GATE_FUNCTIONS[tag](d_l, msd, th)
        assert isinstance(mask, np.ndarray)
        assert mask.dtype == np.bool_ and mask.shape == d_l.shape


class TestGateProperties:
    def test_dl_cases_partition_the_plane(self, np_rng):
        th = make_thresholds(m_dl=0.6, m_msd=0.8, std_msd=0.3, m_ws=1.0)
        d_l_pool = [0.0, th.r_ol, 2 * th.r_ol]
        msd_pool = [0.0, th.r_1, th.r_0, 2 * th.r_0]
        for _ in range(2000):
            d_l = float(np_rng.choice(d_l_pool)) if np_rng.uniform() < 0.3 else float(np_rng.uniform(0, 2))
            msd = float(np_rng.choice(msd_pool)) if np_rng.uniform() < 0.3 else float(np_rng.uniform(0, 3))
            cases = [
                d_l < th.r_ol and msd < th.r_0,
                d_l >= th.r_ol and msd < th.r_1,
                d_l < th.r_ol and msd >= th.r_0,
                d_l >= th.r_ol and msd >= th.r_1,
            ]
            assert sum(cases) == 1
            assert gate_dl(d_l, msd, th) == (cases[0] or cases[1])

    def test_ol_monotone(self, np_rng):
        th = make_thresholds(m_dl=0.7)
        for _ in range(200):
            d1, d2 = sorted(np_rng.uniform(0, 2, size=2))
            if gate_ol(float(d2), 0.0, th):
                assert gate_ol(float(d1), 0.0, th)

    def test_ws_monotone_in_both_statistics(self, np_rng):
        th = make_thresholds(m_ws=1.2, lam=0.7)
        for _ in range(200):
            d1, d2 = sorted(np_rng.uniform(0, 2, size=2))
            m1, m2 = sorted(np_rng.uniform(0, 2, size=2))
            if gate_ws(float(d2), float(m2), th):
                assert gate_ws(float(d1), float(m1), th)

    def test_lambda_zero_reduces_ws_to_ol(self, bench_dataset, bench_mapper):
        params, _ = bench_mapper
        th0 = calibrate(params, bench_dataset, lam=0.0)
        assert th0.r_ws == th0.r_ol
        proj = forward_batch(params, bench_dataset.seen_test_x)
        d_l, msd = gate_statistics(proj, bench_dataset.seen_emb, bench_dataset.unified_norm)
        assert np.array_equal(gate_ws(d_l, msd, th0), gate_ol(d_l, msd, th0))


class TestConvergedNoiselessGating:
    def test_statistics_vanish_and_gate_seen_under_positive_thresholds(self, noiseless_dataset):
        params, history = train(noiseless_dataset, TrainConfig(epochs=1000, hidden_sizes=[]))
        assert history[-1] < 1e-6
        proj = forward_batch(params, noiseless_dataset.seen_train_x)
        l = noiseless_dataset.unified_norm
        d_l, msd = gate_statistics(proj, noiseless_dataset.seen_emb, l)
        assert d_l.max() < 1e-6
        assert msd.max() < 1e-6
        # any thresholds bounded below by the statistic scale gate ALL instances seen
        th = make_thresholds(m_dl=1e-3, m_msd=1e-3, std_msd=1e-4, m_ws=1e-3, l=l)
        for gate in (gate_ol, gate_dl, gate_ws):
            assert gate(d_l, msd, th).all()


class TestThresholdFile:
    def test_round_trip(self, tmp_path):
        th = calibrate_from_samples([0.1, 0.4, 0.9], [0.2, 0.5, 0.3], lam=1.0, l=1.0)
        path = save_thresholds(th, tmp_path / "th.kv")
        loaded = load_thresholds(path)
        assert loaded == th

    def test_round_trip_of_numpy_scalars(self, tmp_path):
        th = calibrate_from_samples(np.array([0.1, 0.4, 0.9]), np.array([0.2, 0.5, 0.3]),
                                    lam=np.float64(0.5), l=np.float64(1.0))
        path = save_thresholds(th, tmp_path / "th.kv")
        text = path.read_text()
        assert "\nlambda=0.5\n" in text and text.endswith("\nl=1.0\n")
        assert load_thresholds(path) == th

    def test_keys_follow_the_field_order(self, tmp_path):
        th = calibrate_from_samples([0.1, 0.4, 0.9], [0.2, 0.5, 0.3], lam=0.5, l=2.0)
        lines = save_thresholds(th, tmp_path / "th.kv").read_text().splitlines()
        keys = ["r_ol", "r_0", "r_1", "r_ws"] + [f.name for f in dataclasses.fields(ThresholdSet)]
        assert lines == [f"{'lambda' if k == 'lam' else k}={getattr(th, k)!r}" for k in keys]

    def test_nan_lambda_in_file_rejected(self, tmp_path):
        th = calibrate_from_samples([0.1, 0.4], [0.2, 0.5], lam=1.0, l=1.0)
        path = save_thresholds(th, tmp_path / "th.kv")
        path.write_text(path.read_text().replace("lambda=1.0", "lambda=nan"))
        with pytest.raises(CalibrationError, match="non-finite"):
            load_thresholds(path)

    @pytest.mark.parametrize("l", ["0.0", "-1.0"])
    def test_zero_or_negative_norm_in_file_rejected(self, tmp_path, l):
        th = calibrate_from_samples([0.1, 0.4], [0.2, 0.5], lam=1.0, l=1.0)
        path = save_thresholds(th, tmp_path / "th.kv")
        path.write_text(path.read_text().replace("\nl=1.0\n", f"\nl={l}\n"))
        with pytest.raises(CalibrationError, match="unified norm l must be > 0"):
            load_thresholds(path)

    @pytest.mark.parametrize("r_0", ["0.0", "nan", "inf"])
    def test_an_edited_threshold_breaks_its_identity(self, tmp_path, r_0):
        th = calibrate_from_samples([0.1, 0.4], [0.2, 0.5], lam=1.0, l=1.0)
        path = save_thresholds(th, tmp_path / "th.kv")
        text = path.read_text()
        path.write_text(text.replace(f"r_0={th.r_0!r}", f"r_0={r_0}"))
        with pytest.raises(CalibrationError, match="r_0=.* breaks its defining identity"):
            load_thresholds(path)

    def test_a_threshold_within_the_tolerance_loads_as_its_formula(self, tmp_path):
        th = calibrate_from_samples([0.1, 0.4], [0.2, 0.5], lam=1.0, l=1.0)
        path = save_thresholds(th, tmp_path / "th.kv")
        path.write_text(path.read_text().replace(f"r_0={th.r_0!r}", f"r_0={th.r_0 + 1e-13!r}"))
        assert load_thresholds(path).r_0 == th.r_0

    @pytest.mark.parametrize("key", ["m_dl", "r_ws", "l"])
    def test_a_key_written_twice_is_rejected(self, tmp_path, key):
        th = calibrate_from_samples([0.1, 0.4], [0.2, 0.5], lam=1.0, l=1.0)
        path = save_thresholds(th, tmp_path / "th.kv")
        lines = path.read_text().splitlines()
        first = next(k for k, ln in enumerate(lines, 1) if ln.startswith(f"{key}="))
        path.write_text("\n".join(lines + ["", lines[first - 1]]) + "\n")  # the same value
        with pytest.raises(DatasetLoadError,
                           match=f":{len(lines) + 2}: key '{key}' repeats line {first}$"):
            load_thresholds(path)

    def test_missing_key_rejected(self, tmp_path):
        th = calibrate_from_samples([0.1, 0.4], [0.2, 0.5], lam=1.0, l=1.0)
        path = save_thresholds(th, tmp_path / "th.kv")
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("r_ws=")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(Exception, match="missing keys"):
            load_thresholds(path)
