"""The batched evaluation core against a plain per-row oracle.

The oracle takes one row at a time: its length gap and a nearest-embedding
loop are written here, it gates the row by applying ``GATE_FUNCTIONS`` to
two floats, asks a stub classifier about that
one row, and counts the gate confusion and per-class hits.  A product's last
bits depend on how many rows it multiplies at once, so the oracle projects
the same ``ROW_BLOCK``-row blocks as the core, each with plain numpy, and
every count must then match exactly.
"""

import numpy as np
import pytest

from sdgzsl import (
    BASELINE_TAG,
    STRATEGIES,
    Domain,
    GzslDataset,
    MlpParams,
    SplitMix64,
    SyntheticSpec,
    TrainConfig,
    calibrate,
    evaluate,
    evaluate_baseline,
    gate_statistics,
    generate_synthetic,
    predict,
    train,
)
from sdgzsl import gates
from sdgzsl.gates import GATE_FUNCTIONS
from sdgzsl.linalg import ROW_BLOCK
from sdgzsl.mlp import init_params
from test_gates import make_thresholds


def plain_forward(mapper, xs):
    h = xs
    for w, b, act in zip(mapper.weights, mapper.biases, mapper.activations):
        h = h @ w.T + b
        if act == "relu":
            h = np.maximum(h, 0.0)
    return h


def project_in_blocks(mapper, xs):
    return np.concatenate([plain_forward(mapper, xs[i : i + ROW_BLOCK])
                           for i in range(0, xs.shape[0], ROW_BLOCK)])


def length_gap(p, l):
    return abs(float(np.sqrt(np.sum(p * p))) - l)


def plain_nearest(p, table):
    """(first index of the smallest squared distance, that distance)."""
    best, best_d = 0, float("inf")
    for i, row in enumerate(table):
        diff = p - row
        d = float(np.sum(diff * diff))
        if d < best_d:
            best, best_d = i, d
    return best, best_d


def oracle(mapper, ds, strategy, th=None, seen_clf=None, unseen_clf=None):
    """Gate confusion and per-class correct counts, one row at a time."""
    confusion = {(t, g): 0 for t in Domain for g in Domain}
    correct = {}
    splits = ((Domain.SEEN, ds.seen_test_x, ds.seen_test_y, ds.n_seen_classes),
              (Domain.UNSEEN, ds.unseen_test_x, ds.unseen_test_y, ds.n_unseen_classes))
    for true, xs, ys, n in splits:
        correct.update({(true.value, c): 0 for c in range(n)})
        for x, p, y in zip(xs, project_in_blocks(mapper, xs), ys):
            seen_idx, seen_d = plain_nearest(p, ds.seen_emb)
            unseen_idx, unseen_d = plain_nearest(p, ds.unseen_emb)
            if strategy == BASELINE_TAG:
                seen = seen_d <= unseen_d
            else:
                seen = bool(GATE_FUNCTIONS[strategy](length_gap(p, th.l), seen_d, th))
            gate = Domain.SEEN if seen else Domain.UNSEEN
            clf, idx = (seen_clf, seen_idx) if seen else (unseen_clf, unseen_idx)
            cls = clf.answer(x) if clf else idx
            confusion[(true, gate)] += 1
            if gate == true and cls == int(y):
                correct[(true.value, int(y))] += 1
    return confusion, correct


def report_counts(report, ds):
    sizes = {("seen", c): n for c, n in enumerate(np.bincount(ds.seen_test_y,
                                                              minlength=ds.n_seen_classes))}
    sizes.update({("unseen", c): n for c, n in enumerate(np.bincount(
        ds.unseen_test_y, minlength=ds.n_unseen_classes))})
    return report.gate_confusion, {k: round(a * sizes[k]) for k, a in report.per_class_acc.items()}


def assert_core_matches_oracle(mapper, ds, th, **slots):
    for tag in STRATEGIES:
        assert report_counts(evaluate(mapper, th, tag, ds, **slots), ds) == oracle(
            mapper, ds, tag, th, seen_clf=slots.get("seen_classifier"),
            unseen_clf=slots.get("unseen_classifier")), tag
    if not slots:
        assert report_counts(evaluate_baseline(mapper, ds), ds) == oracle(mapper, ds, BASELINE_TAG)


# (seen classes, unseen classes, per-class test rows): 45 and 30 rows are not
# multiples of the block, 15 and 10 rows are smaller than one block, and the
# last two have a one-class unseen domain (9 and 40 unseen rows)
SHAPES = [(3, 2, 15), (3, 2, 5), (5, 1, 9), (4, 1, 40)]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shape", SHAPES)
def test_trained_mapper_matches_the_per_row_oracle(seed, shape):
    seen, unseen, per_test = shape
    ds = generate_synthetic(SyntheticSpec(seen, unseen, 6, 4, 8, per_test, 0.3, seed=seed))
    mapper, _ = train(ds, TrainConfig(epochs=4, seed=seed))
    assert_core_matches_oracle(mapper, ds, calibrate(mapper, ds))


@pytest.mark.parametrize("seed", [3, 4])
def test_untrained_mapper_matches_the_per_row_oracle(seed):
    ds = generate_synthetic(SyntheticSpec(4, 3, 6, 4, 8, 11, 0.3, seed=seed))
    mapper = init_params(6, [5], 4, SplitMix64(seed))
    assert_core_matches_oracle(mapper, ds, calibrate(mapper, ds, lam=0.5))


class StubClassifier:
    """Answers a class read off each feature row itself, and records every
    batch it was asked about."""

    def __init__(self, n_classes):
        self.n_classes, self.batches = n_classes, []

    def answer(self, x):
        """The class of one row, for the oracle."""
        return int(np.argmax(x)) % self.n_classes

    def classify(self, rows):
        self.batches.append(np.array(rows))
        return np.argmax(rows, axis=1) % self.n_classes


def test_stub_classifiers_match_the_oracle():
    ds = generate_synthetic(SyntheticSpec(4, 2, 6, 4, 8, 13, 0.3, seed=5))
    mapper, _ = train(ds, TrainConfig(epochs=4, seed=5))
    th = calibrate(mapper, ds)
    assert_core_matches_oracle(mapper, ds, th,
                               seen_classifier=StubClassifier(ds.n_seen_classes),
                               unseen_classifier=StubClassifier(ds.n_unseen_classes))
    assert_core_matches_oracle(mapper, ds, th,
                               unseen_classifier=StubClassifier(ds.n_unseen_classes))


def test_a_stub_classifier_sees_exactly_the_rows_gated_into_its_domain():
    ds = generate_synthetic(SyntheticSpec(4, 2, 6, 4, 8, 13, 0.3, seed=6))
    mapper, _ = train(ds, TrainConfig(epochs=4, seed=6))
    th = calibrate(mapper, ds)
    for xs in (ds.seen_test_x, ds.unseen_test_x):
        seen_stub, unseen_stub = StubClassifier(1), StubClassifier(1)
        seen, _ = predict(mapper, th, "dl", xs, ds.seen_emb, ds.unseen_emb,
                          seen_classifier=seen_stub, unseen_classifier=unseen_stub)
        assert seen.any() and not seen.all()
        # one call per slot, with exactly the rows gated into its domain, in order
        assert len(seen_stub.batches) == len(unseen_stub.batches) == 1
        assert np.array_equal(seen_stub.batches[0], xs[seen])
        assert np.array_equal(unseen_stub.batches[0], xs[~seen])


def tie_dataset():
    """An identity mapper projects exactly; every test row sits at an exact tie.

    Seen rows lie halfway between seen embeddings 0 and 1; unseen rows at
    the origin, at distance 1 from every embedding of both tables.
    """
    seen_emb = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    unseen_emb = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    half = np.array([0.5, 0.5, 0.0])
    seen_test = np.array([half] * 4)
    return GzslDataset(
        seen_train_x=np.vstack([seen_emb, seen_emb]), seen_train_y=np.array([0, 1, 0, 1]),
        seen_test_x=seen_test, seen_test_y=np.array([0, 1, 0, 1]),
        unseen_test_x=np.zeros((3, 3)), unseen_test_y=np.array([0, 1, 1]),
        seen_emb=seen_emb, unseen_emb=unseen_emb, unified_norm=1.0,
    )


def test_exact_ties_go_to_the_lowest_index():
    ds = tie_dataset()
    mapper = MlpParams([np.eye(3)], [np.zeros(3)], ["linear"])
    th = calibrate(mapper, ds)
    assert_core_matches_oracle(mapper, ds, th)
    # r_ol = 1e300 gates every row seen under ol, r_ol = 0 every row unseen
    always_seen = evaluate(mapper, make_thresholds(m_dl=1e300), "ol", ds)
    assert always_seen.per_class_acc[("seen", 0)] == 1.0
    assert always_seen.per_class_acc[("seen", 1)] == 0.0
    always_unseen = evaluate(mapper, make_thresholds(m_dl=0.0), "ol", ds)
    assert always_unseen.per_class_acc[("unseen", 0)] == 1.0
    assert always_unseen.per_class_acc[("unseen", 1)] == 0.0
    # the origin is as far from the seen table as from the unseen one
    baseline = evaluate_baseline(mapper, ds)
    assert baseline.gate_confusion[(Domain.UNSEEN, Domain.SEEN)] == 3


@pytest.fixture(scope="module")
def calibration_fixtures():
    """(dataset, trained mapper) pairs: a small one, and the acceptance shape
    with 30 test rows per class, whose 500 seen_train and 300 seen_test rows
    each cross a 256-row chunk and end in a short ``ROW_BLOCK`` tail."""
    out = []
    for spec in (SyntheticSpec(5, 2, 6, 4, 23, 7, 0.3, seed=8),
                 SyntheticSpec(10, 3, 32, 16, 50, 30, 0.05, seed=7)):
        ds = generate_synthetic(spec)
        out.append((ds, train(ds, TrainConfig(epochs=3, seed=spec.seed))[0]))
    return out


def calibration_samples(monkeypatch, mapper, ds, split):
    """``calibrate``'s threshold set and the ``(d_l, msd)`` samples it drew them from."""
    samples = []
    original = gates.calibrate_from_samples

    def capture(d_l, msd, lam, l):
        samples.append((np.array(d_l), np.array(msd)))
        return original(d_l, msd, lam, l)

    monkeypatch.setattr(gates, "calibrate_from_samples", capture)
    th = calibrate(mapper, ds, split=split)
    monkeypatch.undo()
    return th, samples[0]


@pytest.mark.parametrize("split", ["seen_train", "seen_test"])
def test_calibration_msd_equals_min_semantic_distance_bit_for_bit(monkeypatch, split,
                                                                   calibration_fixtures):
    for ds, mapper in calibration_fixtures:
        _, (d_l, msd) = calibration_samples(monkeypatch, mapper, ds, split)
        proj = project_in_blocks(mapper, getattr(ds, f"{split}_x"))
        assert proj.shape[0] > ROW_BLOCK and proj.shape[0] % ROW_BLOCK
        # one row per call: gate_statistics is length_gaps and min_semantic_distance
        per_row = [gate_statistics(p[None, :], ds.seen_emb, ds.unified_norm) for p in proj]
        assert np.array_equal(d_l, np.concatenate([row[0] for row in per_row]))
        assert np.array_equal(msd, np.concatenate([row[1] for row in per_row]))


@pytest.mark.parametrize("split", ["seen_train", "seen_test"])
def test_calibration_statistics_equal_the_evaluation_pass_bit_for_bit(monkeypatch, split,
                                                                     calibration_fixtures):
    ds, mapper = calibration_fixtures[1]
    xs = getattr(ds, f"{split}_x")
    assert xs.shape[0] > 256
    th, (d_l, msd) = calibration_samples(monkeypatch, mapper, ds, split)
    seen = []

    def capture(d_l, msd, t):
        seen.append((d_l.copy(), msd.copy()))
        return d_l < t.r_ol

    monkeypatch.setitem(GATE_FUNCTIONS, "ol", capture)
    predict(mapper, th, "ol", xs, ds.seen_emb, ds.unseen_emb)
    assert np.array_equal(d_l, seen[0][0])
    assert np.array_equal(msd, seen[0][1])
