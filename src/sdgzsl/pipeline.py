"""End-to-end flow: project, gate, route to a per-domain classifier, score.

Evaluation reports macro (per-class) top-1 accuracy on the held-out seen
split and on the unseen split, their harmonic mean, and a 2x2 gate
confusion matrix (true domain x gated domain) that isolates gate quality
from classifier quality.

One batched core serves every entry point.  It takes a split in
fixed-size chunks and, per chunk, projects each row once in
``linalg.ROW_BLOCK``-row products, so projection bits do not depend on the
chunk size: the chunk's whole blocks form one ``(blocks, ROW_BLOCK, d)``
stack and each layer is one ``np.matmul`` over it, which runs the same
32-row product on every block that ``forward_batch`` would, and a tail of
fewer than ``ROW_BLOCK`` rows goes through ``forward_batch``
(``mlp._forward_blocks``).  It then computes ``d_l`` and ``msd`` as
vectors, finds the nearest seen and unseen embedding of every row with
one ``linalg.nearest`` call per table (a BLAS distance screen, then the
exact sum for the surviving candidates), applies the gate rule as a
boolean mask and picks ``np.where(seen, nearest seen, nearest unseen)``.
Per-class accuracy is counted with ``np.bincount``.  ``evaluate_baseline``
is the same core with the rule ``msd <= nearest unseen distance``, and
``predict`` is the core on a one-row batch.

Two per-instance contracts remain for caller-supplied parts, which the
core maps over rows only when they are passed: ``gate_fn`` is called as
``gate_fn(GateStatistics, ThresholdSet) -> Domain`` once per row, and a
classifier slot as ``classify(feature_row) -> class index`` once per row
gated into its domain.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import GzslDataset
from .errors import ConfigError, DomainError, EvaluationError, MetricError
from .gates import SEEN_RULES, Domain, GateStatistics, ThresholdSet, length_gaps
from .linalg import as_table, as_vector, nearest
from .mlp import MlpParams, _forward_blocks

STRATEGIES = ("ol", "dl", "ws")
BASELINE_TAG = "nogate"

# Rows gated per pass of the evaluation core.  A pass holds only its own
# projections and nearest-embedding results: projecting each whole split
# at once raised eval_heavy's peak RSS by about 3 MB, and 512-row passes
# ran no faster than 256-row ones.
_CHUNK_ROWS = 256


@dataclass
class Prediction:
    gate: Domain
    predicted_class: int
    true_domain: Domain | None = None
    true_class: int | None = None

    @property
    def correct(self) -> bool:
        """Right domain and right class within it."""
        return self.gate == self.true_domain and self.predicted_class == self.true_class


@dataclass
class EvaluationReport:
    strategy: str
    acc_s: float
    acc_u: float
    h: float
    per_class_acc: dict[tuple[str, int], float]
    gate_confusion: dict[tuple[Domain, Domain], int]
    runtime: float = 0.0

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


def _class_accuracy(true_class: np.ndarray, correct: np.ndarray, classes) -> dict[int, float]:
    """Correct fraction per class, counted with ``np.bincount``."""
    classes = list(classes)
    n = max(classes, default=-1) + 1
    totals = np.bincount(true_class, minlength=n)
    hits = np.bincount(true_class[correct], minlength=n)
    out = {}
    for c in classes:
        if not totals[c]:
            raise MetricError(f"class {c} has no test instances")
        out[c] = float(hits[c] / totals[c])
    return out


def per_class_top1(predictions, classes) -> dict[int, float]:
    """Per-class correct fraction over predictions sharing one true domain.

    A prediction counts as correct only if it was gated into the right
    domain and assigned the right class there.
    """
    true_class = np.array([p.true_class for p in predictions], dtype=np.int64)
    correct = np.array([p.correct for p in predictions], dtype=bool)
    return _class_accuracy(true_class, correct, classes)


def _gate_rule(strategy: str, thresholds: ThresholdSet, gate_fn):
    """``(d_l, msd, nearest unseen distance) -> gated-seen mask`` for one block."""
    if gate_fn is not None:
        def mapped(d_l, msd, _):
            return np.array([gate_fn(GateStatistics(float(a), float(b)), thresholds) == Domain.SEEN
                             for a, b in zip(d_l, msd)], dtype=bool)
        return mapped
    try:
        seen = SEEN_RULES[strategy]
    except KeyError:
        raise ConfigError(
            f"unknown strategy {strategy!r}, expected one of {sorted(SEEN_RULES)}"
        ) from None
    return lambda d_l, msd, _: seen(d_l, msd, thresholds)


def _baseline_rule(d_l, msd, min_unseen):
    # the seen table comes first in the union, so it wins an exact tie
    return msd <= min_unseen


def _route(mapper: MlpParams, rule, l: float, xs, seen_emb, unseen_emb,
           seen_classifier, unseen_classifier) -> tuple[np.ndarray, np.ndarray]:
    """Gate and classify every row of ``xs``: (gated-seen mask, class index
    inside the gated domain)."""
    seen_emb = as_table(seen_emb, mapper.out_dim, "seen embeddings")
    unseen_emb = as_table(unseen_emb, mapper.out_dim, "unseen embeddings")
    gated_seen = np.empty(xs.shape[0], dtype=bool)
    predicted = np.empty(xs.shape[0], dtype=np.int64)
    for start in range(0, xs.shape[0], _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        proj = _forward_blocks(mapper, xs[rows])
        msd, arg_seen = nearest(proj, seen_emb)
        min_unseen, arg_unseen = nearest(proj, unseen_emb)
        gated_seen[rows] = seen = rule(length_gaps(proj, l), msd, min_unseen)
        predicted[rows] = np.where(seen, arg_seen, arg_unseen)
    for mask, clf in ((gated_seen, seen_classifier), (~gated_seen, unseen_classifier)):
        if clf is not None:
            idx = np.flatnonzero(mask)
            predicted[idx] = [int(clf.classify(xs[i])) for i in idx]
    return gated_seen, predicted


def predict(mapper: MlpParams, thresholds: ThresholdSet, strategy: str, x,
            seen_emb, unseen_emb, seen_classifier=None, unseen_classifier=None,
            gate_fn=None, true_domain: Domain | None = None,
            true_class: int | None = None) -> Prediction:
    """Gate one instance and classify it inside the gated domain.

    ``gate_fn`` overrides the named strategy with any callable
    ``(GateStatistics, ThresholdSet) -> Domain``; classifier slots accept
    any object with ``classify(x) -> int``.
    """
    rule = _gate_rule(strategy, thresholds, gate_fn)
    row = as_vector(x, "feature")[None, :]
    seen, predicted = _route(mapper, rule, thresholds.l, row, seen_emb, unseen_emb,
                             seen_classifier, unseen_classifier)
    return Prediction(
        gate=Domain.SEEN if seen[0] else Domain.UNSEEN,
        predicted_class=int(predicted[0]),
        true_domain=true_domain,
        true_class=true_class,
    )


def _evaluate(tag: str, mapper: MlpParams, rule, l: float, dataset: GzslDataset,
              seen_classifier=None, unseen_classifier=None) -> EvaluationReport:
    """Route both test splits through the core and score them."""
    if dataset.seen_test_x.shape[0] == 0 or dataset.unseen_test_x.shape[0] == 0:
        raise EvaluationError("evaluate needs nonempty seen_test and unseen_test splits")
    t0 = time.perf_counter()
    splits = (
        (Domain.SEEN, dataset.seen_test_x, dataset.seen_test_y, dataset.n_seen_classes),
        (Domain.UNSEEN, dataset.unseen_test_x, dataset.unseen_test_y, dataset.n_unseen_classes),
    )
    acc, per_class = {}, {}
    confusion = {(t, g): 0 for t in Domain for g in Domain}
    for true, xs, ys, n_classes in splits:
        gated_seen, predicted = _route(mapper, rule, l, xs, dataset.seen_emb, dataset.unseen_emb,
                                       seen_classifier, unseen_classifier)
        right_domain = gated_seen if true == Domain.SEEN else ~gated_seen
        ys = np.asarray(ys, dtype=np.int64)
        per = _class_accuracy(ys, right_domain & (predicted == ys), range(n_classes))
        acc[true] = float(np.mean(list(per.values())))
        per_class.update({(true.value, c): a for c, a in per.items()})
        n_seen = int(np.count_nonzero(gated_seen))
        confusion[(true, Domain.SEEN)] = n_seen
        confusion[(true, Domain.UNSEEN)] = xs.shape[0] - n_seen

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
        runtime=time.perf_counter() - t0,
    )


def evaluate(mapper: MlpParams, thresholds: ThresholdSet, strategy: str,
             dataset: GzslDataset, seen_classifier=None, unseen_classifier=None,
             gate_fn=None) -> EvaluationReport:
    """Run the gate + route flow over both test splits and report metrics."""
    rule = _gate_rule(strategy, thresholds, gate_fn)
    return _evaluate(strategy, mapper, rule, thresholds.l, dataset,
                     seen_classifier, unseen_classifier)


def evaluate_baseline(mapper: MlpParams, dataset: GzslDataset) -> EvaluationReport:
    """No-gate reference: one nearest-embedding scan over the union table.

    The winning table acts as an implicit gate so the confusion matrix
    stays comparable with the gated strategies.  Between equal seen and
    unseen distances the seen table wins (it comes first in the union).
    """
    return _evaluate(BASELINE_TAG, mapper, _baseline_rule, dataset.unified_norm, dataset)


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
