import dataclasses

import numpy as np
import pytest

from sdgzsl import (
    BASELINE_TAG,
    ConfigError,
    Domain,
    DomainError,
    EvaluationError,
    GzslError,
    MetricError,
    NearestEmbeddingClassifier,
    STRATEGIES,
    ShapeError,
    SyntheticSpec,
    TrainConfig,
    calibrate,
    evaluate,
    evaluate_baseline,
    evaluate_sweep,
    generate_synthetic,
    harmonic_mean,
    per_class_top1,
    predict,
    train,
)
from conftest import BENCH_SPEC
from sdgzsl.pipeline import render_report_kv, render_report_text
from test_gates import identity_fit_dataset, identity_mapper, make_thresholds


class TestHarmonicMean:
    def test_equal_arguments_fixed_point(self, np_rng):
        for _ in range(20):
            x = float(np_rng.uniform(0, 1))
            assert harmonic_mean(x, x) == pytest.approx(x, rel=1e-12)

    def test_zero_annihilates(self, np_rng):
        for _ in range(20):
            assert harmonic_mean(float(np_rng.uniform(0, 1)), 0.0) == 0.0
        assert harmonic_mean(0.0, 0.0) == 0.0

    def test_direct_evaluation(self):
        assert harmonic_mean(0.8, 0.2) == pytest.approx(0.32, rel=1e-12)

    def test_symmetry_and_max_bound(self, np_rng):
        for _ in range(200):
            a, b = float(np_rng.uniform(0, 1)), float(np_rng.uniform(0, 1))
            assert harmonic_mean(a, b) == pytest.approx(harmonic_mean(b, a), rel=1e-12)
            assert harmonic_mean(a, b) <= max(a, b) + 1e-12

    def test_domain_checked(self):
        with pytest.raises(DomainError):
            harmonic_mean(1.2, 0.5)
        with pytest.raises(DomainError):
            harmonic_mean(0.5, -0.1)


def always(seen):
    """A gate_fn that sends every row to one domain."""
    return lambda d_l, msd, thresholds: np.full(d_l.shape, seen)


class TestPerClassTop1:
    def test_all_correct(self):
        assert per_class_top1([0, 1, 1, 0], [True] * 4, [0, 1]) == {0: 1.0, 1: 1.0}

    def test_hand_counted_example(self):
        # class 0: 2 of 4 correct, class 1: 4 of 4 correct
        true_class = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        correct = np.array([True, True, False, False, True, True, True, True])
        out = per_class_top1(true_class, correct, [0, 1])
        assert out == {0: 0.5, 1: 1.0}
        assert float(np.mean(list(out.values()))) == 0.75

    def test_all_wrong(self):
        assert per_class_top1([0, 1, 0, 1], [False] * 4, [0, 1]) == {0: 0.0, 1: 0.0}

    def test_wrong_domain_counts_as_incorrect(self):
        # gated unseen, every seen row gets unseen class 0: the right index
        # for seen class 0, in the wrong domain
        ds = identity_fit_dataset()
        th = make_thresholds(m_dl=0.5, m_msd=0.5, m_ws=0.5)
        seen, classes = predict(identity_mapper(3), th, "ol", ds.seen_test_x, ds.seen_emb,
                                ds.unseen_emb, gate_fn=always(False))
        assert not seen.any() and not classes.any()
        report = evaluate(identity_mapper(3), th, "ol", ds, gate_fn=always(False))
        assert report.per_class_acc[("seen", 0)] == 0.0

    def test_empty_class_rejected(self):
        with pytest.raises(MetricError, match="class 1"):
            per_class_top1([0], [True], [0, 1])

    def test_mismatched_vectors_rejected(self):
        with pytest.raises(ShapeError):
            per_class_top1([0, 1], [True], [0, 1])

    @pytest.mark.parametrize("true_class, correct", [
        ([0.5, 1.7], [True, True]),  # would truncate to classes 0 and 1
        ([0.0, 1.0], [True, True]),
        ([-1, 0, 1], [True, True, True]),  # numpy's bincount would raise a bare ValueError
        ([0, 1], [1, 0]),
        ([0, 1], [0.0, 1.0]),
        ([0, 1], ["yes", "no"]),
    ])
    def test_bad_labels_or_correctness_rejected(self, true_class, correct):
        with pytest.raises(DomainError) as info:
            per_class_top1(true_class, correct, [0, 1])
        assert isinstance(info.value, GzslError)

    @pytest.mark.parametrize("true_class, classes", [([0, 5, 5], [0]), ([0, 5], [0, 0]),
                                                     ([0, 2, 1], [0, 2]), ([0], [])])
    def test_labels_outside_classes_rejected(self, true_class, classes):
        with pytest.raises(DomainError, match="not in classes"):
            per_class_top1(true_class, [True] * len(true_class), classes)

    @pytest.mark.parametrize("true_class, classes", [
        ([0, 0], [0, -1]),  # bincount's totals[-1] would report class 0 again as -1
        ([0], [0.0]),
        ([0], [np.float64(0.0)]),
        ([0], ["0"]),
        ([0, 1], [False, True]),
    ])
    def test_classes_that_are_not_nonnegative_integers_rejected(self, true_class, classes):
        with pytest.raises(DomainError, match="nonnegative integers"):
            per_class_top1(true_class, [True] + [False] * (len(true_class) - 1), classes)

    def test_numpy_integer_classes_accepted(self):
        assert per_class_top1([0, 1], [True, False], np.arange(2)) == {0: 1.0, 1: 0.0}

    def test_a_repeated_class_is_scored_once(self):
        assert per_class_top1([0, 1, 1], [True, False, True], [1, 0, 1]) == {1: 0.5, 0: 1.0}

    def test_empty_input_allowed(self):
        assert per_class_top1([], [], []) == {}
        assert per_class_top1(np.array([], dtype=float), np.array([]), []) == {}
        with pytest.raises(MetricError, match="class 0"):
            per_class_top1([], [], [0])

    def test_unsigned_labels_accepted(self):
        labels = np.array([0, 1, 1], dtype=np.uint32)
        assert per_class_top1(labels, [True, False, True], [0, 1]) == {0: 1.0, 1: 0.5}


class TestPredict:
    def test_routing_contract(self, bench_dataset, bench_mapper):
        params, _ = bench_mapper
        th = calibrate(params, bench_dataset)
        xs = np.vstack([bench_dataset.seen_test_x[:20], bench_dataset.unseen_test_x[:20]])
        for tag in STRATEGIES:
            seen, classes = predict(params, th, tag, xs, bench_dataset.seen_emb,
                                    bench_dataset.unseen_emb)
            assert seen.shape == classes.shape == (40,) and seen.dtype == bool
            limit = np.where(seen, bench_dataset.n_seen_classes, bench_dataset.n_unseen_classes)
            assert (0 <= classes).all() and (classes < limit).all()

    def test_a_single_vector_is_a_shape_error(self, bench_dataset, bench_mapper):
        params, _ = bench_mapper
        th = calibrate(params, bench_dataset)
        with pytest.raises(ShapeError):
            predict(params, th, "dl", bench_dataset.seen_test_x[0],
                    bench_dataset.seen_emb, bench_dataset.unseen_emb)

    def test_unknown_strategy(self, bench_dataset, bench_mapper):
        params, _ = bench_mapper
        th = calibrate(params, bench_dataset)
        with pytest.raises(ConfigError, match="unknown strategy"):
            predict(params, th, "bogus", bench_dataset.seen_test_x[:1],
                    bench_dataset.seen_emb, bench_dataset.unseen_emb)

    def test_noiseless_seen_instances_classified_to_their_class(self, noiseless_dataset):
        params, history = train(noiseless_dataset, TrainConfig())
        assert history[-1] < 1e-3
        th = calibrate(params, noiseless_dataset)
        ys = noiseless_dataset.seen_test_y
        seen, classes = predict(params, th, "dl", noiseless_dataset.seen_test_x,
                                noiseless_dataset.seen_emb, noiseless_dataset.unseen_emb)
        assert np.array_equal(classes[seen], ys[seen])
        # adaptive thresholds sit at mean+std of near-zero statistics, so a
        # minority of seen instances can fall outside; the bulk must not
        assert np.count_nonzero(seen) >= 0.8 * len(ys)


class StubClassifier:
    """A classifier slot that answers every batch with ``answer(rows)``."""

    def __init__(self, answer):
        self.answer = answer

    def classify(self, rows):
        return self.answer(rows)


class TestEvaluate:
    def test_perfect_gate_and_classifiers(self):
        ds = identity_fit_dataset()
        mapper = identity_mapper(3)
        th = make_thresholds(m_dl=0.5, m_msd=0.5, m_ws=0.5)
        report = evaluate(mapper, th, "dl", ds)
        assert report.acc_s == 1.0 and report.acc_u == 1.0 and report.h == 1.0
        assert report.gate_confusion[(Domain.SEEN, Domain.UNSEEN)] == 0
        assert report.gate_confusion[(Domain.UNSEEN, Domain.SEEN)] == 0

    def test_always_seen_gate_zeroes_unseen_accuracy(self, bench_dataset, bench_mapper):
        params, _ = bench_mapper
        th = calibrate(params, bench_dataset)
        report = evaluate(params, th, "ol", bench_dataset, gate_fn=always(True))
        assert report.acc_u == 0.0
        assert report.h == 0.0
        assert report.gate_confusion[(Domain.UNSEEN, Domain.UNSEEN)] == 0

    def test_report_invariants(self, bench_dataset, bench_mapper):
        params, _ = bench_mapper
        th = calibrate(params, bench_dataset)
        for tag in STRATEGIES:
            r = evaluate(params, th, tag, bench_dataset)
            assert r.h == pytest.approx(harmonic_mean(r.acc_s, r.acc_u), rel=1e-12)
            assert sum(r.gate_confusion.values()) == (
                bench_dataset.seen_test_x.shape[0] + bench_dataset.unseen_test_x.shape[0]
            )
            assert r.h <= 2.0 * min(r.acc_s, r.acc_u) + 1e-12
            assert r.h <= max(r.acc_s, r.acc_u) + 1e-12
            assert r.acc_s == pytest.approx(
                np.mean([r.per_class_acc[("seen", c)] for c in range(bench_dataset.n_seen_classes)]),
                rel=1e-12,
            )

    def test_strategies_differ_only_through_gates(self, bench_dataset, bench_mapper):
        params, _ = bench_mapper
        th = calibrate(params, bench_dataset)
        by_tag = {tag: predict(params, th, tag, bench_dataset.seen_test_x,
                               bench_dataset.seen_emb, bench_dataset.unseen_emb)
                  for tag in STRATEGIES}
        for seen_a, classes_a in by_tag.values():
            for seen_b, classes_b in by_tag.values():
                same = seen_a == seen_b
                assert np.array_equal(classes_a[same], classes_b[same])

    def test_stub_classifier_leaves_routing_unchanged(self, bench_dataset, bench_mapper):
        params, _ = bench_mapper
        th = calibrate(params, bench_dataset)
        default = evaluate(params, th, "ws", bench_dataset)
        stubbed = evaluate(params, th, "ws", bench_dataset,
                           seen_classifier=StubClassifier(lambda rows: np.zeros(len(rows), int)),
                           unseen_classifier=StubClassifier(lambda rows: np.zeros(len(rows), int)))
        assert stubbed.gate_confusion == default.gate_confusion

    def test_nearest_embedding_classifiers_in_the_slots_change_nothing(self, bench_dataset,
                                                                      bench_mapper):
        params, _ = bench_mapper
        th = calibrate(params, bench_dataset)
        slots = dict(seen_classifier=NearestEmbeddingClassifier(params, bench_dataset.seen_emb),
                     unseen_classifier=NearestEmbeddingClassifier(params, bench_dataset.unseen_emb))
        for tag in STRATEGIES:
            default = evaluate(params, th, tag, bench_dataset)
            slotted = evaluate(params, th, tag, bench_dataset, **slots)
            assert slotted.per_class_acc == default.per_class_acc
            assert slotted.gate_confusion == default.gate_confusion

    def test_thresholds_from_another_norm_are_rejected(self, bench_dataset, bench_mapper):
        params, _ = bench_mapper
        th = calibrate(params, bench_dataset)
        other = generate_synthetic(dataclasses.replace(BENCH_SPEC, unified_norm=3.0))
        for run in (lambda: evaluate(params, th, "dl", other),
                    lambda: evaluate_sweep(params, th, other)):
            with pytest.raises(ConfigError, match="calibrated at unified norm 1.0 but dataset has 3.0"):
                run()

    def test_baseline_report_well_formed(self, bench_dataset, bench_mapper):
        params, _ = bench_mapper
        r = evaluate_baseline(params, bench_dataset)
        assert r.strategy == "nogate"
        assert r.h == pytest.approx(harmonic_mean(r.acc_s, r.acc_u), rel=1e-12)
        assert sum(r.gate_confusion.values()) == 260


class TestReportRendering:
    def test_kv_h_field_recomputes(self, bench_dataset, bench_mapper):
        params, _ = bench_mapper
        th = calibrate(params, bench_dataset)
        r = evaluate(params, th, "dl", bench_dataset)
        kv = dict(
            line.split("=", 1)
            for line in render_report_kv(r).strip().splitlines()
        )
        acc_s, acc_u, h = float(kv["acc_s"]), float(kv["acc_u"]), float(kv["h"])
        assert h == pytest.approx(harmonic_mean(acc_s, acc_u), rel=1e-12)

    def test_text_report_has_no_wall_clock(self, bench_dataset, bench_mapper):
        params, _ = bench_mapper
        th = calibrate(params, bench_dataset)
        r = evaluate(params, th, "ol", bench_dataset)
        text = render_report_text(r)
        assert "runtime" not in text
        assert f"{r.acc_s:.6f}" in text


class TestSlotOutputsAreChecked:
    """A bad slot output is an error, never a silently wrong report."""

    @pytest.mark.parametrize("answer, error", [
        (lambda rows: np.full(len(rows), 99), DomainError),
        (lambda rows: np.full(len(rows), -1), DomainError),
        (lambda rows: np.full(len(rows), 2.7), DomainError),
        (lambda rows: np.full(len(rows), True), DomainError),
        (lambda rows: 0, ShapeError),
        (lambda rows: np.zeros(len(rows) + 1, dtype=int), ShapeError),
        (lambda rows: np.zeros((len(rows), 1), dtype=int), ShapeError),
    ])
    @pytest.mark.parametrize("slot", ["seen_classifier", "unseen_classifier"])
    def test_bad_classifier_output_is_rejected(self, bench_dataset, bench_mapper, slot,
                                               answer, error):
        params, _ = bench_mapper
        th = calibrate(params, bench_dataset)
        with pytest.raises(error, match=f"^{slot.removesuffix('_classifier')} classifier"):
            evaluate(params, th, "dl", bench_dataset, **{slot: StubClassifier(answer)})

    def test_the_class_range_is_the_slots_own_domain(self, bench_dataset, bench_mapper):
        # the seen domain has more classes than the unseen one
        params, _ = bench_mapper
        th = calibrate(params, bench_dataset)
        top_seen = bench_dataset.n_seen_classes - 1
        assert top_seen >= bench_dataset.n_unseen_classes
        top = StubClassifier(lambda rows: np.full(len(rows), top_seen))
        assert evaluate(params, th, "dl", bench_dataset, seen_classifier=top).acc_s > 0.0
        with pytest.raises(DomainError,
                           match=rf"^unseen classifier.*\[0, {bench_dataset.n_unseen_classes}\)"):
            evaluate(params, th, "dl", bench_dataset, unseen_classifier=top)

    @pytest.mark.parametrize("gate_fn, error", [
        (lambda d_l, msd, th: "seen", DomainError),
        (lambda d_l, msd, th: np.full(d_l.shape, "seen"), DomainError),
        (lambda d_l, msd, th: Domain.SEEN, DomainError),
        (lambda d_l, msd, th: (msd < th.r_1).astype(int), DomainError),
        (lambda d_l, msd, th: msd - th.r_1, DomainError),
        (lambda d_l, msd, th: True, ShapeError),
        (lambda d_l, msd, th: np.ones(d_l.size + 1, dtype=bool), ShapeError),
    ])
    def test_bad_gate_output_is_rejected(self, bench_dataset, bench_mapper, gate_fn, error):
        params, _ = bench_mapper
        th = calibrate(params, bench_dataset)
        with pytest.raises(error, match="gate"):
            evaluate(params, th, "ol", bench_dataset, gate_fn=gate_fn)

    def test_a_list_of_bools_is_a_mask(self, bench_dataset, bench_mapper):
        params, _ = bench_mapper
        th = calibrate(params, bench_dataset)
        as_list = evaluate(params, th, "ws", bench_dataset,
                           gate_fn=lambda d_l, msd, t: (d_l + t.lam * msd < t.r_ws).tolist())
        assert as_list.per_class_acc == evaluate(params, th, "ws", bench_dataset).per_class_acc


@pytest.fixture(scope="module", params=[3, 5], ids=["seed3", "seed5"])
def eval_heavy_run(request):
    """A trained mapper on the benchmark's eval_heavy shape: 8,000 test rows
    over 80 classes, so each split spans many 256-row chunks."""
    seed = request.param
    ds = generate_synthetic(SyntheticSpec(60, 20, 32, 32, 10, 100, 0.05, seed=seed))
    mapper, _ = train(ds, TrainConfig(epochs=20, seed=seed))
    return ds, mapper


def without_runtime(report):
    return dataclasses.replace(report, runtime=0.0)


class TestEvaluateSweep:
    @pytest.mark.parametrize("lam", [0.0, 1.0, 2.5])
    def test_equals_the_separate_calls(self, eval_heavy_run, lam):
        ds, mapper = eval_heavy_run
        th = calibrate(mapper, ds, lam=lam, split="seen_test")
        separate = [evaluate(mapper, th, tag, ds) for tag in STRATEGIES]
        separate.append(evaluate_baseline(mapper, ds))
        swept = evaluate_sweep(mapper, th, ds)
        assert [r.strategy for r in swept] == [*STRATEGIES, BASELINE_TAG]
        assert [without_runtime(r) for r in swept] == [without_runtime(r) for r in separate]

    def test_the_reports_share_one_runtime(self, bench_dataset, bench_mapper):
        params, _ = bench_mapper
        th = calibrate(params, bench_dataset)
        runtimes = {r.runtime for r in evaluate_sweep(params, th, bench_dataset)}
        assert len(runtimes) == 1 and runtimes.pop() > 0.0

    @pytest.mark.parametrize("side", ["seen_test", "unseen_test"])
    def test_empty_test_split(self, bench_dataset, bench_mapper, side):
        params, _ = bench_mapper
        th = calibrate(params, bench_dataset)
        x, y = getattr(bench_dataset, f"{side}_x"), getattr(bench_dataset, f"{side}_y")
        empty = dataclasses.replace(bench_dataset, **{f"{side}_x": x[:0], f"{side}_y": y[:0]})
        for run in (lambda: evaluate_sweep(params, th, empty),
                    lambda: evaluate(params, th, "dl", empty),
                    lambda: evaluate_baseline(params, empty)):
            with pytest.raises(EvaluationError, match="nonempty"):
                run()

    def test_gate_fn_is_called_once_per_split(self, eval_heavy_run):
        ds, mapper = eval_heavy_run
        th = calibrate(mapper, ds)
        calls = []

        def gate_fn(d_l, msd, thresholds):
            calls.append(d_l.shape)
            return d_l < thresholds.r_ol

        report = evaluate(mapper, th, "ol", ds, gate_fn=gate_fn)
        assert calls == [(ds.seen_test_x.shape[0],), (ds.unseen_test_x.shape[0],)]
        assert without_runtime(report) == without_runtime(evaluate(mapper, th, "ol", ds))
