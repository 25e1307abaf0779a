import dataclasses

import numpy as np
import pytest

import sdgzsl._threads
import sdgzsl.mlp
from sdgzsl import SyntheticSpec, TrainConfig, generate_synthetic, train
from sdgzsl.mlp import backward, init_params, mse_loss
from sdgzsl.rng import SplitMix64

BENCH_SPEC = SyntheticSpec(
    n_seen_classes=10,
    n_unseen_classes=3,
    feature_dim=32,
    semantic_dim=16,
    per_class_train=50,
    per_class_test=20,
    cluster_spread=0.05,
    seed=7,
)


def force_two_threads(monkeypatch, on: bool) -> None:
    """Give every caller that wants a second thread one (``train`` at any size),
    or give none, whatever the BLAS thread count and the CPU count.  A wrapped
    callee still keeps one thread."""
    monkeypatch.setattr(sdgzsl._threads, "_blas_on_one_thread", lambda: on)
    monkeypatch.setattr(sdgzsl._threads, "_usable_cpus", lambda: 2 if on else 1)
    monkeypatch.setattr(sdgzsl.mlp, "_OVERLAP_MACS", 0 if on else float("inf"))


def sample_gradcheck_case(seed: int):
    """Random small architecture + batch whose hidden preactivations stay
    clear of the ReLU kink, so central differences are trustworthy."""
    chooser = np.random.default_rng(seed)
    for attempt in range(200):
        d = int(chooser.integers(2, 7))
        s = int(chooser.integers(1, 5))
        depth = int(chooser.integers(0, 3))
        hidden = [int(chooser.integers(2, 7)) for _ in range(depth)]
        n = int(chooser.integers(1, 9))
        params = init_params(d, hidden, s, SplitMix64(seed * 1000 + attempt))
        xs = chooser.normal(size=(n, d))
        zs = chooser.normal(size=(n, s))
        h = xs
        safe = True
        for k, (w, b, act) in enumerate(zip(params.weights, params.biases, params.activations)):
            pre = h @ w.T + b
            if act == "relu" and np.abs(pre).min() < 1e-3:
                safe = False
                break
            h = np.maximum(pre, 0.0) if act == "relu" else pre
        if safe:
            return params, xs, zs
    raise RuntimeError("could not sample a kink-free gradcheck case")


def _with_entry(params, field, k, i, value):
    """A copy of ``params`` whose array ``k`` of ``field`` has ``value`` at flat index ``i``."""
    arrays = list(getattr(params, field))
    arrays[k] = arrays[k].copy()
    arrays[k].flat[i] = value
    return dataclasses.replace(params, **{field: arrays})


def max_gradient_relative_error(params, xs, zs, h=1e-5) -> float:
    """Central finite differences against the analytic gradient, worst case
    over every parameter."""
    gw, gb = backward(params, xs, zs)
    worst = 0.0
    for field, grads in (("weights", gw), ("biases", gb)):
        for k, grad in enumerate(grads):
            flat, gflat = getattr(params, field)[k].ravel(), grad.ravel()
            for i in range(flat.size):
                up = mse_loss(_with_entry(params, field, k, i, flat[i] + h), xs, zs)
                down = mse_loss(_with_entry(params, field, k, i, flat[i] - h), xs, zs)
                fd = (up - down) / (2.0 * h)
                rel = abs(fd - gflat[i]) / max(1e-6, abs(fd) + abs(gflat[i]))
                worst = max(worst, rel)
    return worst


@pytest.fixture(scope="session")
def bench_dataset():
    return generate_synthetic(BENCH_SPEC)


@pytest.fixture(scope="session")
def bench_mapper(bench_dataset):
    params, history = train(bench_dataset, TrainConfig())
    return params, history


@pytest.fixture(scope="session")
def noiseless_dataset():
    spec = SyntheticSpec(10, 3, 32, 16, 50, 20, 0.0, seed=11)
    return generate_synthetic(spec)


@pytest.fixture()
def np_rng():
    return np.random.default_rng(20260809)
