"""Plain-numpy reference for calibration and evaluation.

It recomputes everything a report states from the mapper's parameters
and the dataset arrays alone: one batch forward pass, the ``d_l`` and
``msd`` statistics, thresholds as mean plus population standard
deviation, the ``ol``/``dl``/``ws`` rules with strict ``<``, the first
argmin inside the gated domain, per-class correct counts by
``np.bincount``, and the 2x2 gate confusion.

The batch forward pass rounds differently from the library's per-row
pass in the last bits, so a row whose statistic lies within ``TIE_TOL``
of a threshold, or whose two nearest embeddings lie within ``TIE_TOL``
of each other, may legitimately go either way.  Such rows are counted
and reported; a count cell may differ from the reference by at most the
number of such rows, and must match exactly when there are none.
"""

from __future__ import annotations

import numpy as np

TIE_TOL = 1e-9
DOMAINS = ("seen", "unseen")
BASELINE = "nogate"


def project(weights, biases, activations, x) -> np.ndarray:
    h = np.asarray(x, dtype=np.float64)
    for w, b, act in zip(weights, biases, activations):
        h = h @ w.T + b
        if act == "relu":
            h = np.maximum(h, 0.0)
    return h


def nearest(p: np.ndarray, emb: np.ndarray):
    """Per row of ``p``: smallest squared distance to an embedding row, its
    first argmin, and whether the runner-up lies within ``TIE_TOL``."""
    diff = p[:, None, :] - emb[None, :, :]
    d = np.sum(diff * diff, axis=2)
    if emb.shape[0] < 2:
        return d[:, 0], np.zeros(p.shape[0], dtype=np.int64), np.zeros(p.shape[0], dtype=bool)
    two = np.partition(d, 1, axis=1)
    return d.min(axis=1), d.argmin(axis=1), _near(two[:, 1], two[:, 0])


def _mean_popstd(xs: np.ndarray) -> tuple[float, float]:
    m = float(np.mean(xs))
    return m, float(np.sqrt(np.mean((xs - m) ** 2)))


def _length_gap(p: np.ndarray, l: float) -> np.ndarray:
    return np.abs(np.sqrt(np.sum(p * p, axis=1)) - l)


def _near(a: np.ndarray, b) -> np.ndarray:
    return np.abs(a - b) < TIE_TOL


class Reference:
    """Reference outputs for one trained mapper on one dataset.

    ``params`` needs ``weights``, ``biases`` and ``activations``; ``ds``
    needs the dataset arrays and ``unified_norm``.  Calibration uses the
    seen-train split, as the library does by default.
    """

    def __init__(self, params, ds, lam: float = 1.0):
        self._params = params
        self._seen_emb, self._unseen_emb = ds.seen_emb, ds.unseen_emb
        self.l = ds.unified_norm
        self.n_classes = {"seen": ds.seen_emb.shape[0], "unseen": ds.unseen_emb.shape[0]}
        train = self._per_row(ds.seen_train_x)
        d_l, msd = train["d_l"], train["min_seen"]
        m_dl, s_dl = _mean_popstd(d_l)
        m_msd, s_msd = _mean_popstd(msd)
        m_ws, s_ws = _mean_popstd(d_l + lam * msd)
        self.thresholds = {"r_ol": m_dl + s_dl, "r_0": m_msd + 2.0 * s_msd,
                           "r_1": m_msd + s_msd, "r_ws": m_ws + s_ws, "lam": lam}
        self.rows = {"seen": self._per_row(ds.seen_test_x), "unseen": self._per_row(ds.unseen_test_x)}
        self.rows["seen"]["y"] = np.asarray(ds.seen_test_y)
        self.rows["unseen"]["y"] = np.asarray(ds.unseen_test_y)

    def _per_row(self, x, block: int = 32) -> dict:
        """Projection statistics of every row, computed a block of rows at a time
        so the benchmark's own memory does not mask the program's peak."""
        parts = []
        for i in range(0, x.shape[0], block):
            p = project(self._params.weights, self._params.biases, self._params.activations,
                        x[i : i + block])
            min_seen, arg_seen, tie_seen = nearest(p, self._seen_emb)
            min_unseen, arg_unseen, tie_unseen = nearest(p, self._unseen_emb)
            parts.append({"d_l": _length_gap(p, self.l),
                          "min_seen": min_seen, "arg_seen": arg_seen,
                          "min_unseen": min_unseen, "arg_unseen": arg_unseen,
                          "tie": tie_seen | tie_unseen})
        return {k: np.concatenate([part[k] for part in parts]) for k in parts[0]}

    def class_sizes(self) -> dict:
        return {(true, c): int(n) for true, r in self.rows.items()
                for c, n in enumerate(np.bincount(r["y"], minlength=self.n_classes[true]))}

    def _gate(self, strategy: str, r: dict) -> tuple[np.ndarray, np.ndarray]:
        """(gated-seen mask, near-threshold mask) for one true domain."""
        th, d_l, msd = self.thresholds, r["d_l"], r["min_seen"]
        if strategy == BASELINE:
            return msd <= r["min_unseen"], _near(msd, r["min_unseen"])
        if strategy == "ol":
            return d_l < th["r_ol"], _near(d_l, th["r_ol"])
        if strategy == "dl":
            seen = np.where(d_l < th["r_ol"], msd < th["r_0"], msd < th["r_1"])
            near = _near(d_l, th["r_ol"]) | _near(msd, th["r_0"]) | _near(msd, th["r_1"])
            return seen, near
        score = d_l + th["lam"] * msd
        return score < th["r_ws"], _near(score, th["r_ws"])

    def expected(self, strategy: str) -> dict:
        """Integer outputs the report of ``strategy`` must hold, plus near-tie rows."""
        per_class, confusion, acc, near_rows = {}, {}, {}, 0
        for true, r in self.rows.items():
            gated_seen, near = self._gate(strategy, r)
            near_rows += int((near | r["tie"]).sum())
            pred = np.where(gated_seen, r["arg_seen"], r["arg_unseen"])
            right_domain = gated_seen if true == "seen" else ~gated_seen
            n = self.n_classes[true]
            correct = np.bincount(r["y"][right_domain & (pred == r["y"])], minlength=n)
            per_class.update({(true, c): int(correct[c]) for c in range(n)})
            acc[true] = float(np.mean(correct / np.bincount(r["y"], minlength=n)))
            confusion[(true, "seen")] = int(gated_seen.sum())
            confusion[(true, "unseen")] = int((~gated_seen).sum())
        a_s, a_u = acc["seen"], acc["unseen"]
        h = 0.0 if a_s + a_u == 0.0 else 2.0 * a_s * a_u / (a_s + a_u)
        return {"per_class": per_class, "confusion": confusion, "h": h, "near_rows": near_rows}


def report_outputs(report, class_sizes: dict) -> dict:
    """The same integer outputs read from an ``EvaluationReport``.

    ``class_sizes[(domain, c)]`` is the number of test rows of that class.
    """
    per_class = {key: round(acc * class_sizes[key]) for key, acc in report.per_class_acc.items()}
    confusion = {(t.value, g.value): n for (t, g), n in report.gate_confusion.items()}
    return {"per_class": per_class, "confusion": confusion, "h": report.h}


def kv_outputs(text: str, class_sizes: dict) -> dict:
    """The same integer outputs read from a rendered ``report_<tag>.kv``."""
    kv = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
    per_class = {(d, c): round(float(kv[f"acc_{d}_{c}"]) * n) for (d, c), n in class_sizes.items()}
    confusion = {(t, g): int(kv[f"gate_{t}_{g}"]) for t in DOMAINS for g in DOMAINS}
    return {"per_class": per_class, "confusion": confusion, "h": float(kv["h"])}


def compare(got: dict, want: dict) -> list[str]:
    """Mismatches between a report's outputs and the reference; empty if none."""
    slack = want["near_rows"]
    problems = []
    for field in ("per_class", "confusion"):
        if set(got[field]) != set(want[field]):
            problems.append(f"{field}: keys {sorted(got[field])} != {sorted(want[field])}")
            continue
        for key, value in sorted(want[field].items()):
            if abs(got[field][key] - value) > slack:
                problems.append(f"{field}{key}: report {got[field][key]} != reference {value}")
    if slack == 0 and abs(got["h"] - want["h"]) > 1e-9:
        problems.append(f"h: report {got['h']!r} != reference {want['h']!r}")
    return problems


def compare_thresholds(got: dict, want: dict) -> list[str]:
    return [f"{k}: {got[k]!r} != reference {want[k]!r}"
            for k in ("r_ol", "r_0", "r_1", "r_ws")
            if abs(got[k] - want[k]) > TIE_TOL * max(1.0, abs(want[k]))]
