"""Acceptance gate: every release-blocking criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import dataclasses
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import BENCH_SPEC, max_gradient_relative_error, sample_gradcheck_case

from sdgzsl import (
    Domain,
    SplitMix64,
    TrainConfig,
    calibrate,
    calibrate_from_samples,
    evaluate,
    evaluate_baseline,
    forward,
    gate_dl,
    generate_synthetic,
    harmonic_mean,
    load_checkpoint,
    load_dataset,
    per_class_top1,
    save_checkpoint,
    save_dataset,
    train,
)
from sdgzsl.cli import main as cli_main
from sdgzsl.mlp import init_params
from sdgzsl.pipeline import STRATEGIES


@contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[PASS] criterion {number}: {description} ({elapsed:.2f}s)")
    assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"


def test_criterion_1_gradient_correctness():
    with criterion(1, "analytic gradients match central finite differences", 10.0):
        for seed in range(12):
            params, xs, zs = sample_gradcheck_case(seed)
            assert max_gradient_relative_error(params, xs, zs, h=1e-5) < 1e-4


def test_criterion_2_threshold_formula_oracle():
    with criterion(2, "calibrated thresholds match a two-pass mean/popstd oracle", 1.0):
        rng = np.random.default_rng(2)

        def two_pass(vals):
            m = sum(vals) / len(vals)
            return m, math.sqrt(sum((v - m) ** 2 for v in vals) / len(vals))

        for trial in range(100):
            n = int(rng.integers(3, 50))
            d_l = [abs(float(v)) for v in rng.normal(0.5, 0.3, size=n)]
            msd = [abs(float(v)) for v in rng.normal(1.0, 0.5, size=n)]
            lam = float(rng.uniform(0.0, 2.0))
            th = calibrate_from_samples(d_l, msd, lam=lam, l=1.0)
            m_dl, s_dl = two_pass(d_l)
            m_msd, s_msd = two_pass(msd)
            m_ws, s_ws = two_pass([a + lam * b for a, b in zip(d_l, msd)])
            assert abs(th.r_ol - (m_dl + s_dl)) < 1e-12
            assert abs(th.r_0 - (m_msd + 2 * s_msd)) < 1e-12
            assert abs(th.r_1 - (m_msd + s_msd)) < 1e-12
            assert abs(th.r_ws - (m_ws + s_ws)) < 1e-12


def test_criterion_3_four_case_partition():
    with criterion(3, "the four length+distance cases partition the statistic plane", 1.0):
        th = calibrate_from_samples([0.1, 0.5, 0.9], [0.3, 0.6, 1.2], lam=1.0, l=1.0)
        rng = np.random.default_rng(3)
        i = np.arange(10_000)
        d_l = np.where(i % 5 == 0, rng.choice([0.0, th.r_ol], size=i.size),
                       rng.uniform(0, 2, size=i.size))
        msd = np.where(i % 7 == 0, rng.choice([0.0, th.r_1, th.r_0], size=i.size),
                       rng.uniform(0, 3, size=i.size))
        cases = np.stack([
            (d_l < th.r_ol) & (msd < th.r_0),
            (d_l >= th.r_ol) & (msd < th.r_1),
            (d_l < th.r_ol) & (msd >= th.r_0),
            (d_l >= th.r_ol) & (msd >= th.r_1),
        ])
        assert (cases.sum(axis=0) == 1).all()
        assert np.array_equal(gate_dl(d_l, msd, th), cases[0] | cases[1])


def test_criterion_4_metric_identities():
    with criterion(4, "harmonic-mean identities and per-class top-1 hand count", 1.0):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            a, b = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            assert harmonic_mean(a, a) == pytest.approx(a, rel=1e-12)
            assert harmonic_mean(a, 0.0) == 0.0
            assert harmonic_mean(a, b) == pytest.approx(harmonic_mean(b, a), rel=1e-12)
            assert harmonic_mean(a, b) <= max(a, b) + 1e-12

        for _ in range(50):
            # rows of the seen domain: true class, gated seen, predicted class;
            # every class occurs at least once
            n_classes = int(rng.integers(2, 5))
            n = int(rng.integers(n_classes * 2, 30))
            true_class = np.concatenate([rng.integers(n_classes, size=n), np.arange(n_classes)])
            gated_seen = np.concatenate([rng.uniform(size=n) < 0.7, np.ones(n_classes, bool)])
            predicted = np.concatenate([rng.integers(n_classes, size=n), np.arange(n_classes)])
            # hand-counting oracle
            totals = {c: 0 for c in range(n_classes)}
            hits = {c: 0 for c in range(n_classes)}
            for t, g, p in zip(true_class.tolist(), gated_seen.tolist(), predicted.tolist()):
                totals[t] += 1
                if g and p == t:
                    hits[t] += 1
            expected = {c: hits[c] / totals[c] for c in range(n_classes)}
            correct = gated_seen & (predicted == true_class)
            assert per_class_top1(true_class, correct, range(n_classes)) == pytest.approx(
                expected, rel=1e-12)


def test_criterion_5_forced_seen_gate_zeroes_h(bench_dataset):
    with criterion(5, "an always-SEEN gate forces unseen accuracy and H to zero", 1.0):
        mapper = init_params(bench_dataset.feature_dim, [4], bench_dataset.semantic_dim,
                             SplitMix64(5))
        # r_ol = 1e300: every row's d_l is below it, so ol gates every row seen
        th = dataclasses.replace(calibrate(mapper, bench_dataset), m_dl=1e300)
        report = evaluate(mapper, th, "ol", bench_dataset)
        assert report.gate_confusion[(Domain.UNSEEN, Domain.UNSEEN)] == 0
        assert report.acc_u == 0.0
        assert report.h == 0.0


def test_criterion_6_synthetic_separation_benchmark():
    with criterion(6, "synthetic benchmark separates domains and beats the no-gate baseline", 60.0):
        dataset = generate_synthetic(BENCH_SPEC)
        params, history = train(dataset, TrainConfig())
        assert history[-1] < 0.05, f"final training loss {history[-1]}"

        thresholds = calibrate(params, dataset)
        reports = {tag: evaluate(params, thresholds, tag, dataset) for tag in STRATEGIES}
        baseline = evaluate_baseline(params, dataset)

        balanced = {tag: r.balanced_gate_accuracy() for tag, r in reports.items()}
        for tag in STRATEGIES:
            assert balanced[tag] >= 0.85, f"{tag} balanced gate accuracy {balanced[tag]}"
        for tag in STRATEGIES:
            assert reports[tag].h >= baseline.h - 0.02, (
                f"{tag} H {reports[tag].h} vs baseline {baseline.h}"
            )
        lo = min(balanced["ol"], balanced["dl"]) - 0.05
        hi = max(balanced["ol"], balanced["dl"]) + 0.05
        assert lo <= balanced["ws"] <= hi, f"ws balanced {balanced['ws']} outside [{lo}, {hi}]"


def run_cli(*argv):
    try:
        return cli_main([str(a) for a in argv])
    except SystemExit as exc:  # argparse usage errors
        return exc.code


def test_criterion_7_end_to_end_determinism(tmp_path):
    with criterion(7, "identical seeds give byte-identical report and threshold files", 120.0):
        outputs = {}
        for sub in ("first", "second"):
            base = tmp_path / sub
            assert run_cli("gen", "--seen", 10, "--unseen", 3, "--dim", 32, "--sem", 16,
                           "--sigma", 0.05, "--seed", 7, "--train-per-class", 50,
                           "--test-per-class", 20, "--out", base / "data") == 0
            assert run_cli("train", "--data", base / "data", "--out", base / "run") == 0
            assert run_cli("eval", "--data", base / "data",
                           "--ckpt", base / "run" / "model.ckpt",
                           "--out", base / "run", "--strategy", "all", "--sweep") == 0
            outputs[sub] = {
                p.name: p.read_bytes()
                for p in sorted((base / "run").iterdir())
                if p.name.startswith(("report_", "thresholds", "sweep"))
            }
        assert set(outputs["first"]) == set(outputs["second"])
        assert len(outputs["first"]) == 10  # 4 report pairs + thresholds + sweep
        for name in outputs["first"]:
            assert outputs["first"][name] == outputs["second"][name], f"{name} differs"


def test_criterion_8_round_trips(tmp_path):
    with criterion(8, "dataset and checkpoint files round-trip at 1e-12", 5.0):
        dataset = generate_synthetic(BENCH_SPEC)
        first = load_dataset(save_dataset(dataset, tmp_path / "a"))
        second = load_dataset(save_dataset(first, tmp_path / "b"))
        for f in ("seen_train_x", "seen_test_x", "unseen_test_x", "seen_emb", "unseen_emb"):
            assert np.abs(getattr(first, f) - getattr(second, f)).max() <= 1e-12
            assert np.abs(getattr(dataset, f) - getattr(first, f)).max() <= 1e-12
        for f in ("seen_train_y", "seen_test_y", "unseen_test_y"):
            assert np.array_equal(getattr(first, f), getattr(second, f))

        params, _ = train(dataset, TrainConfig(epochs=3))
        path = save_checkpoint(params, tmp_path / "m.ckpt", seed=0,
                               unified_norm=dataset.unified_norm)
        loaded, _ = load_checkpoint(path)
        for a, b in zip(params.weights + params.biases, loaded.weights + loaded.biases):
            assert np.abs(a - b).max() <= 1e-12
        x = dataset.seen_test_x[0]
        assert np.array_equal(forward(params, x), forward(loaded, x))
