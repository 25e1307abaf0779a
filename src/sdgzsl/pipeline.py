"""End-to-end flow: project, gate, route to a per-domain classifier, score.

Evaluation reports macro (per-class) top-1 accuracy on the held-out seen
split and on the unseen split, their harmonic mean, and a 2x2 gate
confusion matrix (true domain x gated domain) that isolates gate quality
from classifier quality.

Every entry point reads a split through the statistics pass of ``gates``
(``_split_stats``), the one ``calibrate`` uses, against the seen and unseen
tables: ``d_l``, ``msd``, the nearest seen index, the nearest unseen
distance and its index, with the bits calibration sees for each row.  No
vector depends on the strategy, so a strategy is only a boolean mask over
them and a class pick ``np.where(seen, nearest seen, nearest unseen)``; the
no-gate baseline is the mask ``msd <= nearest unseen distance``.
One evaluation body, ``_evaluate``, makes that pass once, over both test
splits, and scores each ``(tag, rule)`` it is given from the same vectors:
``evaluate`` and ``evaluate_baseline`` hand it one rule, ``evaluate_sweep``
the three gates and the baseline.  ``_route`` turns a rule and a split's
vectors into the gated mask and class indices, for ``_evaluate`` and
``predict`` alike.  Per-class accuracy is counted with ``np.bincount``
(``per_class_top1``).

A strategy is a tag of ``STRATEGIES``, resolved through ``GATE_FUNCTIONS``;
any other raises ``ConfigError``.  A classifier slot is any object with
``classify(rows) -> class indices``; it is called once per split with the
feature rows gated into its domain (not at all when there are none), and
its indices replace the nearest-embedding ones there.  Its result must be
an integer vector with one index per row inside its domain's class range,
else ``ShapeError`` or ``DomainError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import GzslDataset, _is_integer
from .errors import ConfigError, DomainError, EvaluationError, MetricError, ShapeError
from .gates import GATE_FUNCTIONS, Domain, ThresholdSet, _split_stats, _tables
from .linalg import as_matrix
from .mlp import MlpParams

STRATEGIES = tuple(GATE_FUNCTIONS)
BASELINE_TAG = "nogate"


@dataclass(frozen=True)
class EvaluationReport:
    strategy: str
    acc_s: float
    acc_u: float
    h: float
    per_class_acc: dict[tuple[str, int], float]
    gate_confusion: dict[tuple[Domain, Domain], int]

    def gate_recalls(self) -> tuple[float, float]:
        """(seen recall, unseen recall) of the gate itself."""
        c = self.gate_confusion
        seen_total = c[(Domain.SEEN, Domain.SEEN)] + c[(Domain.SEEN, Domain.UNSEEN)]
        unseen_total = c[(Domain.UNSEEN, Domain.SEEN)] + c[(Domain.UNSEEN, Domain.UNSEEN)]
        sr = c[(Domain.SEEN, Domain.SEEN)] / seen_total if seen_total else 0.0
        ur = c[(Domain.UNSEEN, Domain.UNSEEN)] / unseen_total if unseen_total else 0.0
        return sr, ur

    def balanced_gate_accuracy(self) -> float:
        sr, ur = self.gate_recalls()
        return 0.5 * (sr + ur)


def harmonic_mean(acc_s: float, acc_u: float) -> float:
    """2ab/(a+b) on [0,1] inputs; defined as 0 when both are 0."""
    for name, v in (("acc_s", acc_s), ("acc_u", acc_u)):
        if not 0.0 <= v <= 1.0:
            raise DomainError(f"{name}={v} outside [0, 1]")
    if acc_s + acc_u == 0.0:
        return 0.0
    return 2.0 * acc_s * acc_u / (acc_s + acc_u)


def per_class_top1(true_class, correct, classes) -> dict[int, float]:
    """Correct fraction per class, counted with ``np.bincount``.

    ``correct[i]`` says whether row ``i``, of class ``true_class[i]``, was
    gated into its true domain and assigned its class there.  Labels and
    ``classes`` must be nonnegative integers and ``correct`` booleans, else
    ``DomainError`` (empty vectors of any dtype are accepted).  Every class
    needs a row, else ``MetricError``, and every label must be one of
    ``classes``, else ``DomainError``.
    """
    true_class, correct = np.asarray(true_class), np.asarray(correct)
    if true_class.ndim != 1 or correct.shape != true_class.shape:
        raise ShapeError(f"per_class_top1: shapes {true_class.shape} and {correct.shape} "
                         "must be one equal-length vector each")
    if true_class.size:
        if not np.issubdtype(true_class.dtype, np.integer):
            raise DomainError(f"per_class_top1: labels have dtype {true_class.dtype}, "
                              "expected integers")
        if true_class.min() < 0:
            raise DomainError("per_class_top1: negative class label")
        if correct.dtype != bool:
            raise DomainError(f"per_class_top1: correct has dtype {correct.dtype}, "
                              "expected booleans")
    true_class = true_class.astype(np.int64, copy=False)
    correct = correct.astype(bool, copy=False)
    classes = list(classes)
    if not all(_is_integer(c) and c >= 0 for c in classes):
        raise DomainError("per_class_top1: classes must be nonnegative integers")
    n = max(classes, default=-1) + 1
    totals = np.bincount(true_class, minlength=n)
    hits = np.bincount(true_class[correct], minlength=n)
    out = {}
    for c in classes:
        if not totals[c]:
            raise MetricError(f"class {c} has no test instances")
        out[c] = float(hits[c] / totals[c])
    # every class counted rows, so another nonzero count is a label outside them
    if np.count_nonzero(totals) > len(out):
        raise DomainError("per_class_top1: labels not in classes")
    return out


def _gate_rule(strategy: str, thresholds: ThresholdSet):
    """``(d_l, msd, nearest unseen distance) -> gated-seen mask`` for one split."""
    try:
        gate = GATE_FUNCTIONS[strategy]
    except KeyError:
        raise ConfigError(
            f"unknown strategy {strategy!r}, expected one of {sorted(GATE_FUNCTIONS)}"
        ) from None
    return lambda d_l, msd, _: gate(d_l, msd, thresholds)


def _baseline_rule(d_l, msd, min_unseen):
    # the seen table comes first in the union, so it wins an exact tie
    return msd <= min_unseen


def _class_indices(classes, n: int, n_classes: int, slot: str) -> np.ndarray:
    """A classifier result, required to be ``n`` integer indices in ``[0, n_classes)``."""
    classes = np.asarray(classes)
    if not np.issubdtype(classes.dtype, np.integer):
        raise DomainError(f"{slot} classifier returned dtype {classes.dtype}, "
                          "expected integer class indices")
    if classes.shape != (n,):
        raise ShapeError(f"{slot} classifier returned shape {classes.shape} for {n} rows")
    if classes.min() < 0 or classes.max() >= n_classes:
        raise DomainError(f"{slot} classifier returned class indices outside [0, {n_classes})")
    return classes


def _route(rule, stats, xs: np.ndarray, tables: tuple, seen_classifier,
           unseen_classifier) -> tuple[np.ndarray, np.ndarray]:
    """Gate and classify every row of the checked matrix ``xs`` from its
    ``_split_stats`` vectors: (gated-seen mask, class index inside the gated
    domain), the classifier slots answering for their rows."""
    d_l, msd, arg_seen, min_unseen, arg_unseen = stats
    gated_seen = rule(d_l, msd, min_unseen)
    predicted = np.where(gated_seen, arg_seen, arg_unseen)
    if seen_classifier is None and unseen_classifier is None:
        return gated_seen, predicted
    for slot, mask, clf, (table, *_) in (("seen", gated_seen, seen_classifier, tables[0]),
                                         ("unseen", ~gated_seen, unseen_classifier, tables[1])):
        n = np.count_nonzero(mask)
        if clf is not None and n:
            predicted[mask] = _class_indices(clf.classify(xs[mask]), n, table.shape[0], slot)
    return gated_seen, predicted


def predict(mapper: MlpParams, thresholds: ThresholdSet, strategy: str, xs,
            seen_emb, unseen_emb, seen_classifier=None,
            unseen_classifier=None) -> tuple[np.ndarray, np.ndarray]:
    """Gate each row of ``xs`` and classify it inside its gated domain.

    Returns ``(seen, classes)``: the gated-seen mask and each row's class
    index inside its gated domain.  Classifier slots accept any object with
    ``classify(rows) -> class indices``.
    """
    rule = _gate_rule(strategy, thresholds)
    xs = as_matrix(xs, "feature rows")
    tables = _tables(mapper, seen_emb, unseen_emb)
    return _route(rule, _split_stats(mapper, thresholds.l, [xs], *tables)[0], xs, tables,
                  seen_classifier, unseen_classifier)


def _test_splits(dataset: GzslDataset) -> tuple[np.ndarray, np.ndarray]:
    """(seen_test, unseen_test) feature rows, float64 matrices as the dataset
    stores them, required to be nonempty."""
    if dataset.seen_test_x.shape[0] == 0 or dataset.unseen_test_x.shape[0] == 0:
        raise EvaluationError("evaluate needs nonempty seen_test and unseen_test splits")
    return dataset.seen_test_x, dataset.unseen_test_x


def _score(tag: str, masks, predictions, dataset: GzslDataset) -> EvaluationReport:
    """Report for the gated-seen masks and class indices of (seen_test, unseen_test)."""
    splits = (
        (Domain.SEEN, dataset.seen_test_y, dataset.n_seen_classes),
        (Domain.UNSEEN, dataset.unseen_test_y, dataset.n_unseen_classes),
    )
    acc, per_class = {}, {}
    confusion = {(t, g): 0 for t in Domain for g in Domain}
    for (true, ys, n_classes), gated_seen, predicted in zip(splits, masks, predictions):
        right_domain = gated_seen if true == Domain.SEEN else ~gated_seen
        per = per_class_top1(ys, right_domain & (predicted == ys), range(n_classes))
        acc[true] = float(np.mean(list(per.values())))
        per_class.update({(true.value, c): a for c, a in per.items()})
        n_seen = int(np.count_nonzero(gated_seen))
        confusion[(true, Domain.SEEN)] = n_seen
        confusion[(true, Domain.UNSEEN)] = gated_seen.shape[0] - n_seen

    acc_s, acc_u = acc[Domain.SEEN], acc[Domain.UNSEEN]
    h = harmonic_mean(acc_s, acc_u)
    if h > max(acc_s, acc_u) + 1e-12 or h > 2.0 * min(acc_s, acc_u) + 1e-12:
        raise MetricError(f"h={h!r} breaks its bounds for acc_s={acc_s!r}, acc_u={acc_u!r}")
    n_rows = dataset.seen_test_x.shape[0] + dataset.unseen_test_x.shape[0]
    if sum(confusion.values()) != n_rows:
        raise MetricError(f"gate confusion counts {sum(confusion.values())} of {n_rows} rows")
    return EvaluationReport(
        strategy=tag,
        acc_s=acc_s,
        acc_u=acc_u,
        h=h,
        per_class_acc=per_class,
        gate_confusion=confusion,
    )


def _check_norm(thresholds: ThresholdSet, dataset: GzslDataset) -> None:
    """``thresholds`` must be calibrated at ``dataset``'s unified norm."""
    if thresholds.l != dataset.unified_norm:
        raise ConfigError(f"thresholds were calibrated at unified norm {thresholds.l!r} but "
                          f"dataset has {dataset.unified_norm!r}")


def _evaluate(rules, mapper: MlpParams, dataset: GzslDataset,
              seen_classifier=None, unseen_classifier=None) -> list[EvaluationReport]:
    """One report per ``(tag, rule)`` of ``rules``, all from one statistics
    pass over both test splits at the dataset's unified norm."""
    splits = _test_splits(dataset)
    tables = _tables(mapper, dataset.seen_emb, dataset.unseen_emb)
    stats = _split_stats(mapper, dataset.unified_norm, splits, *tables)
    reports = []
    for tag, rule in rules:
        masks, predictions = zip(*(_route(rule, s, xs, tables, seen_classifier, unseen_classifier)
                                   for s, xs in zip(stats, splits)))
        reports.append(_score(tag, masks, predictions, dataset))
    return reports


def evaluate(mapper: MlpParams, thresholds: ThresholdSet, strategy: str,
             dataset: GzslDataset, seen_classifier=None,
             unseen_classifier=None) -> EvaluationReport:
    """Run the gate + route flow over both test splits and report metrics.

    ``strategy`` must be a tag of ``STRATEGIES`` and ``thresholds``
    calibrated at the dataset's unified norm, else ``ConfigError``.
    """
    _check_norm(thresholds, dataset)
    return _evaluate([(strategy, _gate_rule(strategy, thresholds))], mapper, dataset,
                     seen_classifier, unseen_classifier)[0]


def evaluate_baseline(mapper: MlpParams, dataset: GzslDataset) -> EvaluationReport:
    """No-gate reference: one nearest-embedding scan over the union table.

    The winning table acts as an implicit gate so the confusion matrix
    stays comparable with the gated strategies.  Between equal seen and
    unseen distances the seen table wins (it comes first in the union).
    """
    return _evaluate([(BASELINE_TAG, _baseline_rule)], mapper, dataset)[0]


def evaluate_sweep(mapper: MlpParams, thresholds: ThresholdSet,
                   dataset: GzslDataset) -> list[EvaluationReport]:
    """``evaluate`` for each of ``STRATEGIES``, then ``evaluate_baseline``,
    from one pass over both test splits.

    The reports equal those of the separate calls, field for field: each
    split is projected and scanned once, and every strategy and the baseline
    is a mask over the same vectors.  ``thresholds`` must be calibrated at
    the dataset's unified norm, else ``ConfigError``.
    """
    _check_norm(thresholds, dataset)
    return _evaluate([*((tag, _gate_rule(tag, thresholds)) for tag in STRATEGIES),
                      (BASELINE_TAG, _baseline_rule)], mapper, dataset)


def render_report_text(report: EvaluationReport) -> str:
    """Deterministic human-readable report (no wall-clock content)."""
    sr, ur = report.gate_recalls()
    c = report.gate_confusion
    lines = [
        f"strategy: {report.strategy}",
        f"seen macro top-1 accuracy:   {report.acc_s:.6f}",
        f"unseen macro top-1 accuracy: {report.acc_u:.6f}",
        f"harmonic mean:               {report.h:.6f}",
        "",
        "gate confusion (rows: true domain, cols: gated domain)",
        "            gated seen  gated unseen",
        f"true seen   {c[(Domain.SEEN, Domain.SEEN)]:>10d}  {c[(Domain.SEEN, Domain.UNSEEN)]:>12d}",
        f"true unseen {c[(Domain.UNSEEN, Domain.SEEN)]:>10d}  {c[(Domain.UNSEEN, Domain.UNSEEN)]:>12d}",
        f"gate seen recall:     {sr:.6f}",
        f"gate unseen recall:   {ur:.6f}",
        f"balanced gate accuracy: {report.balanced_gate_accuracy():.6f}",
        "",
        "per-class accuracy",
    ]
    for (domain, cls), acc in sorted(report.per_class_acc.items()):
        lines.append(f"  {domain}/{cls}: {acc:.6f}")
    return "\n".join(lines) + "\n"


def render_report_kv(report: EvaluationReport, provenance: dict | None = None) -> str:
    """Machine-readable key=value form consumed by the CLI sweep."""
    sr, ur = report.gate_recalls()
    c = report.gate_confusion
    pairs = [
        ("strategy", report.strategy),
        ("acc_s", repr(report.acc_s)),
        ("acc_u", repr(report.acc_u)),
        ("h", repr(report.h)),
        ("gate_seen_seen", c[(Domain.SEEN, Domain.SEEN)]),
        ("gate_seen_unseen", c[(Domain.SEEN, Domain.UNSEEN)]),
        ("gate_unseen_seen", c[(Domain.UNSEEN, Domain.SEEN)]),
        ("gate_unseen_unseen", c[(Domain.UNSEEN, Domain.UNSEEN)]),
        ("gate_seen_recall", repr(sr)),
        ("gate_unseen_recall", repr(ur)),
        ("balanced_gate_accuracy", repr(report.balanced_gate_accuracy())),
    ]
    pairs += [
        (f"acc_{domain}_{cls}", repr(acc))
        for (domain, cls), acc in sorted(report.per_class_acc.items())
    ]
    if provenance:
        pairs += [(f"cfg_{k}", provenance[k]) for k in sorted(provenance)]
    return "".join(f"{k}={v}\n" for k, v in pairs)
