import concurrent.futures
import dataclasses
import functools
import json
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import force_two_threads, max_gradient_relative_error, sample_gradcheck_case

from sdgzsl import (
    DatasetLoadError,
    DivergenceError,
    DomainError,
    MlpParams,
    ShapeError,
    SplitMix64,
    SyntheticSpec,
    TrainConfig,
    ValidationError,
    backward,
    forward,
    forward_batch,
    generate_synthetic,
    load_checkpoint,
    mse_loss,
    save_checkpoint,
    train,
)
import sdgzsl._threads
import sdgzsl.linalg
import sdgzsl.mlp
from sdgzsl.linalg import ROW_BLOCK
from sdgzsl.mlp import _chunk_rows, init_params

SMALL_SPEC = SyntheticSpec(4, 2, 6, 5, 10, 2, 0.1, seed=3)  # 40 training rows


def reference_train(dataset, cfg, first_non_finite=None):
    """Plain-formula SGD with ``train``'s draws, one fresh array per operation.

    Returns (weights, biases, loss history, epoch of divergence or None).
    A product or an epoch loss that is not finite counts as divergence, as
    in the library.  A list passed as ``first_non_finite`` receives
    ``(kind, layer, product)`` for the first product that is not finite,
    ``kind`` one of "layer", "weight gradient" and "back-propagated".
    """
    xs = dataset.seen_train_x
    zs = dataset.seen_emb[dataset.seen_train_y]
    d, s = dataset.feature_dim, dataset.semantic_dim
    hidden = [max(d, s)] if cfg.hidden_sizes is None else list(cfg.hidden_sizes)
    rng = SplitMix64(cfg.seed)
    init = init_params(d, hidden, s, rng)
    ws = [w.copy() for w in init.weights]
    bs = [b.copy() for b in init.biases]
    finite = True

    def prod(a, b, kind, k):
        nonlocal finite
        out = a @ b
        if finite and not np.all(np.isfinite(out)):
            finite = False
            if first_non_finite is not None:
                first_non_finite.append((kind, k, out))
        return out

    def layers(x):
        pres, hs = [], [x]
        for k, (w, b, act) in enumerate(zip(ws, bs, init.activations)):
            pre = prod(hs[-1], w.T, "layer", k) + b
            pres.append(pre)
            hs.append(np.maximum(pre, 0.0) if act == "relu" else pre)
        return pres, hs

    n, history = xs.shape[0], []
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, cfg.batch_size):
                idx = perm[start : start + cfg.batch_size]
                pres, hs = layers(xs[idx])
                d_out = 2.0 * (hs[-1] - zs[idx]) / len(idx)
                gw, gb = [None] * len(ws), [None] * len(ws)
                for k in range(len(ws) - 1, -1, -1):
                    d_pre = d_out if init.activations[k] == "linear" else d_out * (pres[k] > 0.0)
                    gw[k] = prod(d_pre.T, hs[k], "weight gradient", k)
                    gb[k] = d_pre.sum(axis=0)
                    if k > 0:
                        d_out = prod(d_pre, ws[k], "back-propagated", k)
                for k in range(len(ws)):
                    ws[k] -= cfg.learning_rate * gw[k]
                    bs[k] -= cfg.learning_rate * gb[k]
            diff = layers(xs)[1][-1] - zs
            loss = float(np.mean(np.sum(diff * diff, axis=1)))
        if not (finite and np.isfinite(loss)):
            return ws, bs, history, epoch
        history.append(loss)
    return ws, bs, history, None


def bits(arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def linear_net(w, b):
    return MlpParams([np.array(w, dtype=float)], [np.array(b, dtype=float)], ["linear"])


class TestForward:
    def test_identity_network(self, np_rng):
        net = linear_net(np.eye(4), np.zeros(4))
        x = np_rng.normal(size=4)
        assert np.array_equal(forward(net, x), x)

    def test_constant_network(self, np_rng):
        bias = np.array([2.0, -1.0, 0.5])
        net = linear_net(np.zeros((3, 5)), bias)
        assert np.array_equal(forward(net, np_rng.normal(size=5)), bias)

    def test_two_layer_matches_naive_loop(self, np_rng):
        params = init_params(4, [6], 3, SplitMix64(17))
        x = np_rng.normal(size=4)
        # hand-rolled forward pass, scalar loops only
        h = [0.0] * 6
        w0, b0 = params.weights[0], params.biases[0]
        for j in range(6):
            acc = b0[j]
            for k in range(4):
                acc += w0[j, k] * x[k]
            h[j] = max(acc, 0.0)
        out = [0.0] * 3
        w1, b1 = params.weights[1], params.biases[1]
        for j in range(3):
            acc = b1[j]
            for k in range(6):
                acc += w1[j, k] * h[k]
            out[j] = acc
        assert forward(params, x) == pytest.approx(np.array(out), abs=1e-12)

    def test_dimension_mismatch(self):
        net = linear_net(np.eye(3), np.zeros(3))
        with pytest.raises(ShapeError):
            forward(net, np.ones(4))

    def test_batch_equals_one_at_a_time(self, np_rng):
        params = init_params(5, [7], 4, SplitMix64(3))
        xs = np_rng.normal(size=(9, 5))
        batched = forward_batch(params, xs)
        single = np.stack([forward(params, x) for x in xs])
        assert batched == pytest.approx(single, abs=1e-12)


class TestParamsAreCheckedWhenMade:
    """An ``MlpParams`` exists only if it passed its checks, through
    ``dataclasses.replace`` too, and no field can be swapped afterwards."""

    def test_fewer_activations_than_layers_are_refused(self):
        # else zip stops at the shorter list, and the 6-wide hidden layer is the output
        m = init_params(4, [6], 3, SplitMix64(1))
        with pytest.raises(ValidationError, match="must have equal length"):
            MlpParams(m.weights, m.biases, ["relu"])
        with pytest.raises(ValidationError, match="must have equal length"):
            dataclasses.replace(m, activations=["relu"])

    def test_an_unknown_activation_is_refused(self):
        # else the unknown tag runs as a linear layer
        m = init_params(4, [6], 3, SplitMix64(1))
        with pytest.raises(ValidationError, match="^layer 0: unknown activation 'tanh'$"):
            MlpParams(m.weights, m.biases, ["tanh", "linear"])

    def test_non_finite_parameters_are_refused(self):
        m = init_params(4, [6], 3, SplitMix64(1))
        with pytest.raises(ValidationError, match="^layer 1: non-finite parameters$"):
            dataclasses.replace(m, biases=[m.biases[0], np.full(3, np.nan)])

    @pytest.mark.parametrize("field", ["weights", "biases", "activations"])
    def test_a_field_cannot_be_swapped(self, field):
        m = init_params(4, [6], 3, SplitMix64(1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(m, field, getattr(m, field)[:1])

    def test_a_field_cannot_be_edited_in_place(self):
        # else the pop makes the 6-wide hidden layer the output, and the NaN waits for a call
        m = init_params(4, [6], 3, SplitMix64(1))
        with pytest.raises(AttributeError):
            m.activations.pop()
        with pytest.raises(ValueError, match="read-only"):
            m.weights[0][0, 0] = np.nan
        assert m.activations == ("relu", "linear") and np.isfinite(m.weights[0]).all()


def plain_forward(params, xs):
    """The network as plain numpy on a 2-D batch: one product per layer over every row."""
    h = xs
    for w, b, act in zip(params.weights, params.biases, params.activations):
        h = h @ w.T + b
        if act == "relu":
            h = np.maximum(h, 0.0)
    return h


class TestForwardBlocks:
    """``forward_batch``'s stacked projection against a plain 2-D product on
    each ``ROW_BLOCK``-row block."""

    @staticmethod
    def per_block(params, xs):
        return np.concatenate([plain_forward(params, xs[i : i + ROW_BLOCK])
                               for i in range(0, xs.shape[0], ROW_BLOCK)])

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 255, 256, 257])
    @pytest.mark.parametrize("d, hidden, s", [(33, None, 9), (33, [], 9), (33, [7, 5], 9),
                                              (256, None, 64)])
    def test_equals_the_per_block_products_bit_for_bit(self, n, d, hidden, s):
        rng = np.random.default_rng(n * 1000 + d)
        # None is train's default: one hidden layer of max(d, s)
        params = init_params(d, [max(d, s)] if hidden is None else hidden, s, SplitMix64(n + d))
        xs = rng.normal(size=(n, d))
        before = xs.tobytes()
        got = forward_batch(params, xs)
        want = self.per_block(params, xs)
        assert got.shape == want.shape == (n, s)
        # int64 views compare the sign of zero too
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert xs.tobytes() == before

    @pytest.mark.parametrize("n", [31, 32, 33, 257])
    @pytest.mark.parametrize("layer", [0, 1])
    def test_an_overflowing_layer_raises_domain_error(self, np_rng, n, layer):
        # a network holds finite parameters only, so the layer's product overflows instead
        params = init_params(6, [5], 4, SplitMix64(2))
        weights = list(params.weights)
        weights[layer] = np.full_like(weights[layer], np.finfo(np.float64).max)
        params = dataclasses.replace(params, weights=weights)
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="matmul result"):
            forward_batch(params, np.abs(np_rng.normal(size=(n, 6))))

    def test_dimension_mismatch(self):
        params = init_params(6, [5], 4, SplitMix64(2))
        with pytest.raises(ShapeError):
            forward_batch(params, np.ones((40, 7)))

    def test_non_conforming_layers_are_refused_when_made(self):
        # layer 1 takes 7 inputs after a 5-wide layer 0, so no call can see such a network
        with pytest.raises(ValidationError, match="^layer 1: input dim 7 != previous output 5$"):
            MlpParams([np.ones((5, 6)), np.ones((4, 7))], [np.zeros(5), np.zeros(4)],
                      ["relu", "linear"])


class TestMseLoss:
    def test_perfect_predictor_is_zero(self, np_rng):
        net = linear_net(np.eye(3), np.zeros(3))
        xs = np_rng.normal(size=(6, 3))
        assert mse_loss(net, xs, xs) == 0.0

    def test_unit_offset_targets(self, np_rng):
        s = 5
        net = linear_net(np.eye(s), np.zeros(s))
        xs = np_rng.normal(size=(4, s))
        assert mse_loss(net, xs, xs + 1.0) == pytest.approx(float(s), rel=1e-12)

    def test_matches_per_sample_sq_dist_average(self, np_rng):
        params = init_params(4, [5], 3, SplitMix64(9))
        xs = np_rng.normal(size=(11, 4))
        zs = np_rng.normal(size=(11, 3))
        diffs = [forward(params, x) - z for x, z in zip(xs, zs)]
        ref = np.mean([float(d @ d) for d in diffs])
        assert mse_loss(params, xs, zs) == pytest.approx(ref, rel=1e-12)

    def test_shape_mismatch(self, np_rng):
        params = init_params(4, [], 3, SplitMix64(1))
        with pytest.raises(ShapeError):
            mse_loss(params, np_rng.normal(size=(5, 4)), np_rng.normal(size=(4, 3)))

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 130, 2000])  # around numpy's 8-way unrolled sums
    def test_bits_equal_the_mean_of_row_sums(self, np_rng, n):
        params = init_params(6, [9], 5, SplitMix64(n))
        xs, zs = np_rng.normal(size=(n, 6)), np_rng.normal(size=(n, 5))
        diff = plain_forward(params, xs) - zs
        want = float(np.mean(np.sum(diff * diff, axis=1)))
        assert mse_loss(params, xs, zs).hex() == want.hex()

    # (d, s, n): 256-row chunks at width 256, 2048-row chunks at width 32; n
    # one short of two chunks (one product), two chunks, two and one or eight
    # folded rows, and train_heavy's training rows
    CHUNKED = [(256, 64, 511), (256, 64, 512), (256, 64, 513), (256, 64, 520), (256, 64, 2000),
               (32, 8, 4097)]

    @staticmethod
    def chunked_case(d, s, n):
        params = init_params(d, [d], s, SplitMix64(n + d))
        assert _chunk_rows(params) == {256: 256, 32: 2048}[d]
        rng = np.random.default_rng(n * 1000 + d)
        return params, rng.normal(size=(n, d)), rng.normal(size=(n, s))

    @pytest.mark.parametrize("d, s, n", CHUNKED)
    def test_chunks_keep_the_bits_of_one_product(self, d, s, n):
        params, xs, zs = self.chunked_case(d, s, n)
        diff = plain_forward(params, xs) - zs
        want = float(np.mean(np.sum(diff * diff, axis=1)))
        assert mse_loss(params, xs, zs).hex() == want.hex()

    @classmethod
    def residuals(cls) -> list[float]:
        """The loss of each ``CHUNKED`` case against one product's projections."""
        losses = []
        for d, s, n in cls.CHUNKED:
            params, xs, _ = cls.chunked_case(d, s, n)
            losses.append(mse_loss(params, xs, plain_forward(params, xs)))
        return losses

    def test_every_row_keeps_the_bits_of_one_product(self):
        """Targets equal to one product's projections leave no residual unless some
        chunk's rows round otherwise, as an unfolded tail of 1 or 8 rows does.

        Run with BLAS on one thread: OpenBLAS's AVX2 kernel on more threads splits
        a product's rows among them and rounds each part's short tail otherwise,
        so there a product's bits follow the thread count, one product's as a
        chunk's."""
        tests = str(Path(__file__).resolve().parent)
        src = str(Path(sdgzsl.mlp.__file__).resolve().parent.parent)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        code = (f"import sys; sys.path.insert(0, {tests!r})\n"
                "from test_mlp import TestMseLoss\n"
                "print(TestMseLoss.residuals())\n")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"{[0.0] * len(self.CHUNKED)}\n"

    @pytest.mark.parametrize("d, s, n, rows", [
        (256, 64, 511, [511]), (256, 64, 512, [256, 256]), (256, 64, 513, [256, 257]),
        (256, 64, 520, [256, 264]),
        (256, 64, 2000, [256] * 6 + [464]), (32, 8, 4097, [2048, 2049])])
    def test_the_ragged_tail_is_folded_into_the_last_chunk(self, monkeypatch, d, s, n, rows):
        params, xs, zs = self.chunked_case(d, s, n)
        seen, layers = [], sdgzsl.mlp._layers
        monkeypatch.setattr(sdgzsl.mlp, "_layers", lambda p, x: seen.append(len(x)) or layers(p, x))
        mse_loss(params, xs, zs)
        assert seen == rows

    @pytest.mark.parametrize("overlap", [False, True])
    def test_train_keeps_the_reference_bits_at_a_chunked_shape(self, monkeypatch, overlap):
        force_two_threads(monkeypatch, overlap)
        ds = generate_synthetic(SyntheticSpec(20, 5, 256, 64, 100, 2, 0.05, seed=4))  # 2000 rows
        cfg = TrainConfig(epochs=2, seed=9)
        ws, bs, ref_history, diverged = reference_train(ds, cfg)
        assert diverged is None
        params, history = train(ds, cfg)
        assert _chunk_rows(params) * 2 <= ds.seen_train_x.shape[0]
        assert bits(params.weights) == bits(ws)
        assert bits(params.biases) == bits(bs)
        assert bits(history) == bits(ref_history)

    def test_the_loss_holds_one_chunk_of_activations(self, np_rng):
        # one product over the 20000 rows held every activation: 48.9 MiB traced
        params = init_params(256, [256], 64, SplitMix64(5))
        xs, zs = np_rng.normal(size=(20000, 256)), np_rng.normal(size=(20000, 64))
        tracemalloc.start()
        try:
            mse_loss(params, xs, zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the per-row sums (0.15 MiB) and the folded last chunk's 288 x (256 + 64)
        # activations (0.70 MiB) fit, one product's 20000 rows do not
        assert peak < 2 * 2**20


class TestBackward:
    def test_zero_gradient_at_perfect_fit(self, np_rng):
        net = linear_net(np.eye(4), np.zeros(4))
        xs = np_rng.normal(size=(5, 4))
        gw, gb = backward(net, xs, xs)
        assert np.abs(gw[0]).max() == 0.0
        assert np.abs(gb[0]).max() == 0.0

    def test_single_linear_layer_closed_form(self, np_rng):
        w = np_rng.normal(size=(3, 4))
        b = np_rng.normal(size=3)
        net = linear_net(w, b)
        x = np_rng.normal(size=4)
        z = np_rng.normal(size=3)
        residual = w @ x + b - z
        gw, gb = backward(net, x[None, :], z[None, :])
        assert gw[0] == pytest.approx(2.0 * np.outer(residual, x), rel=1e-12)
        assert gb[0] == pytest.approx(2.0 * residual, rel=1e-12)

    def test_gradients_share_no_memory_with_each_other_or_the_parameters(self, np_rng):
        # trained parameters are views of one packed vector, as the gradients are
        params, _ = train(generate_synthetic(SMALL_SPEC), TrainConfig(epochs=1, hidden_sizes=[7]))
        xs, zs = np_rng.normal(size=(9, params.in_dim)), np_rng.normal(size=(9, params.out_dim))
        first, second = (sum(backward(params, xs, zs), []) for _ in range(2))
        assert bits(first) == bits(second)
        for a in first:
            others = [*second, *params.weights, *params.biases, *(g for g in first if g is not a)]
            assert not any(np.shares_memory(a, b) for b in others)

    @pytest.mark.parametrize("seed", range(10))
    def test_finite_difference_agreement(self, seed):
        params, xs, zs = sample_gradcheck_case(seed)
        assert max_gradient_relative_error(params, xs, zs) < 1e-4


@pytest.mark.parametrize("fn", [mse_loss, backward], ids=lambda fn: fn.__name__)
def test_an_empty_batch_is_a_domain_error(fn):
    # the loss and its gradient are means over the rows: 0/0 has no value
    params = init_params(4, [5], 3, SplitMix64(1))
    with pytest.raises(DomainError, match=f"{fn.__name__}: empty batch"):
        fn(params, np.empty((0, 4)), np.empty((0, 3)))


class TestTrain:
    def test_noiseless_linear_problem_converges(self, noiseless_dataset):
        _, history = train(noiseless_dataset, TrainConfig(epochs=200, hidden_sizes=[]))
        assert history[-1] < 1e-3

    def test_invalid_epochs_rejected(self, noiseless_dataset):
        with pytest.raises(ValidationError):
            train(noiseless_dataset, TrainConfig(epochs=0))

    @pytest.mark.parametrize("field, value", [
        ("epochs", 2.5), ("epochs", True), ("batch_size", 8.0), ("seed", 1.5), ("seed", "1"),
        ("hidden_sizes", [4.0]), ("hidden_sizes", [True]),
        ("learning_rate", "0.1"), ("learning_rate", True), ("learning_rate", None),
        ("learning_rate", 10**400),
    ])
    def test_non_numbers_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field.split("_")[0]):
            TrainConfig(**{"epochs": 1, field: value})
        with pytest.raises(ValidationError, match=field.split("_")[0]):
            dataclasses.replace(TrainConfig(epochs=1), **{field: value})

    def test_numpy_scalars_accepted(self):
        TrainConfig(learning_rate=np.float64(0.1), epochs=np.int64(2), seed=np.uint32(3),
                    hidden_sizes=[np.int32(4)])

    @pytest.mark.parametrize("hidden", [5, 2.5, "45"])
    def test_hidden_sizes_that_are_no_sequence_are_refused_as_given(self, hidden):
        with pytest.raises(ValidationError,
                           match=re.escape(f"hidden sizes must be integers >= 1, got {hidden!r}")):
            TrainConfig(hidden_sizes=hidden)

    def test_a_config_is_frozen_and_stores_hidden_sizes_as_a_tuple(self):
        cfg = TrainConfig(hidden_sizes=[4, np.int64(3)])
        assert cfg.hidden_sizes == (4, 3) and isinstance(cfg.hidden_sizes, tuple)
        assert TrainConfig(hidden_sizes=iter([6])).hidden_sizes == (6,)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.epochs = 5

    def test_same_seed_identical_history(self, noiseless_dataset):
        cfg = TrainConfig(epochs=5, seed=21)
        _, h1 = train(noiseless_dataset, cfg)
        _, h2 = train(noiseless_dataset, TrainConfig(epochs=5, seed=21))
        assert h1 == h2

    def test_full_batch_descent_is_monotone(self, noiseless_dataset):
        cfg = TrainConfig(learning_rate=1e-3, epochs=50, batch_size=10**9)
        _, history = train(noiseless_dataset, cfg)
        assert all(b <= a for a, b in zip(history, history[1:]))

    def test_divergence_reports_epoch_and_rate(self, noiseless_dataset):
        with pytest.raises(DivergenceError, match="learning_rate=10.0"):
            train(noiseless_dataset, TrainConfig(learning_rate=10.0, epochs=30))

    def test_history_length_matches_epochs(self, noiseless_dataset):
        _, history = train(noiseless_dataset, TrainConfig(epochs=7))
        assert len(history) == 7

    def test_trained_parameters_are_read_only_and_valid(self):
        params, _ = train(generate_synthetic(SMALL_SPEC), TrainConfig(epochs=2, hidden_sizes=[7, 5]))
        dataclasses.replace(params)  # passes the construction checks
        for a in params.weights + params.biases:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0.0


class TestCheckpoint:
    def test_exact_round_trip(self, tmp_path, np_rng):
        params = init_params(6, [8, 5], 3, SplitMix64(2))
        path = save_checkpoint(params, tmp_path / "m.ckpt", seed=123, unified_norm=1.0)
        loaded, header = load_checkpoint(path)
        assert header["seed"] == 123 and header["l"] == 1.0
        for a, b in zip(params.weights + params.biases, loaded.weights + loaded.biases):
            assert np.array_equal(a, b)
        x = np_rng.normal(size=6)
        assert np.array_equal(forward(params, x), forward(loaded, x))

    def test_a_numpy_integer_seed_is_written_as_a_json_int(self, tmp_path):
        path = save_checkpoint(init_params(3, [], 2, SplitMix64(4)), tmp_path / "m.ckpt",
                               seed=np.int64(3))
        assert load_checkpoint(path)[1]["seed"] == 3

    @pytest.mark.parametrize("seed", ["3", True, 3.0, np.float64(3.0), np.bool_(True), [3]])
    def test_a_seed_that_load_rejects_is_not_written(self, tmp_path, seed):
        params = init_params(3, [], 2, SplitMix64(4))
        path = save_checkpoint(params, tmp_path / "m.ckpt", seed=1)
        before = path.read_bytes()
        with pytest.raises(ValidationError, match="seed must be an integer or None"):
            save_checkpoint(params, path, seed=seed)
        assert path.read_bytes() == before  # not truncated
        with pytest.raises(ValidationError):
            save_checkpoint(params, tmp_path / "new" / "m.ckpt", seed=seed)
        assert not (tmp_path / "new").exists()

    def test_a_numpy_float_norm_is_written_as_a_plain_float(self, tmp_path):
        path = save_checkpoint(init_params(3, [], 2, SplitMix64(4)), tmp_path / "m.ckpt",
                               unified_norm=np.float32(1.5))
        assert b'"l": 1.5,' in path.read_bytes()
        assert load_checkpoint(path)[1]["l"] == 1.5

    @pytest.mark.parametrize("norm", ["x", "1.0", True, 0, -1.0, float("nan"), float("inf"),
                                      np.float64(-0.0), [1.0], 10**400])
    def test_a_norm_that_load_rejects_is_not_written(self, tmp_path, norm):
        params = init_params(3, [], 2, SplitMix64(4))
        path = save_checkpoint(params, tmp_path / "m.ckpt", unified_norm=2.0)
        before = path.read_bytes()
        with pytest.raises(ValidationError, match="unified_norm must be a finite number > 0"):
            save_checkpoint(params, path, unified_norm=norm)
        assert path.read_bytes() == before  # not truncated

    @pytest.mark.parametrize("l", [b'"x"', b"NaN", b"Infinity", b"0", b"-1.0", b"true", b"[1.0]",
                                   b"1" + b"0" * 400])
    def test_a_bad_norm_is_a_load_error(self, tmp_path, l):
        path = save_checkpoint(init_params(3, [], 2, SplitMix64(4)), tmp_path / "m.ckpt",
                               unified_norm=2.0)
        path.write_bytes(path.read_bytes().replace(b'"l": 2.0', b'"l": ' + l, 1))
        with pytest.raises(DatasetLoadError, match="checkpoint 'l' must be a finite number > 0"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetLoadError, match="missing checkpoint"):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_truncated_blob(self, tmp_path):
        params = init_params(3, [], 2, SplitMix64(4))
        path = save_checkpoint(params, tmp_path / "m.ckpt")
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(DatasetLoadError, match="blob bytes"):
            load_checkpoint(path)


    @pytest.mark.parametrize("header", [
        [], [[4, 3]], "layers", 7,
        {"activations": ["linear"]},
        {"layers": [[2]], "activations": ["linear"]},
        {"layers": [[2, 3, 1]], "activations": ["linear"]},
        {"layers": [[2, 0]], "activations": ["linear"]},
        {"layers": [[2, True]], "activations": ["linear"]},
        {"layers": [[2, 3.0]], "activations": ["linear"]},
        {"layers": [["2", 3]], "activations": ["linear"]},
        {"layers": "2x3", "activations": ["linear"]},
        {"layers": [], "activations": []},
        {"layers": [[2, 3]]},
        {"layers": [[2, 3]], "activations": "linear"},
        {"layers": [[2, 3]], "activations": [1]},
        {"layers": [[2, 3]], "activations": ["linear", "linear"]},
        {"layers": [[2, 3]], "activations": ["linear"], "seed": "7\nacc_s=1.0"},
        {"layers": [[2, 3]], "activations": ["linear"], "seed": 1.5},
        {"layers": [[2, 3]], "activations": ["linear"], "seed": True},
        {"layers": [[2, 3]], "activations": ["tanh"]},
        # 1*2+1 + 1*4+1 = 8 values, as in the blob, but layer 1 takes 4 inputs after 1
        {"layers": [[1, 2], [1, 4]], "activations": ["relu", "linear"]},
    ])
    def test_malformed_header_is_a_load_error(self, tmp_path, header):
        params = init_params(3, [], 2, SplitMix64(4))
        path = save_checkpoint(params, tmp_path / "m.ckpt")
        blob = path.read_bytes()
        path.write_bytes(json.dumps(header).encode() + blob[blob.find(b"\n"):])
        with pytest.raises(DatasetLoadError, match="checkpoint") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_a_non_finite_blob_is_a_load_error(self, tmp_path):
        path = save_checkpoint(init_params(3, [], 2, SplitMix64(4)), tmp_path / "m.ckpt")
        blob = path.read_bytes()
        path.write_bytes(blob[: blob.find(b"\n") + 1] + np.full(8, np.nan).astype("<f8").tobytes())
        with pytest.raises(DatasetLoadError, match="non-finite parameters") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)


class TestTrainMatchesReferenceSgd:
    overlap = False

    @pytest.fixture(autouse=True)
    def _overlap(self, monkeypatch):
        force_two_threads(monkeypatch, self.overlap)

    @pytest.fixture(scope="class")
    def small_dataset(self):
        return generate_synthetic(SMALL_SPEC)

    @pytest.mark.parametrize("hidden", [None, [7, 5], []])
    @pytest.mark.parametrize("batch_size", [1, 7, 1000])  # 7 leaves a tail batch of 5
    def test_params_and_history_are_bit_identical(self, small_dataset, hidden, batch_size):
        cfg = TrainConfig(learning_rate=0.05, epochs=4, batch_size=batch_size, seed=9,
                          hidden_sizes=hidden)
        ws, bs, ref_history, diverged = reference_train(small_dataset, cfg)
        assert diverged is None
        params, history = train(small_dataset, cfg)
        assert bits(params.weights) == bits(ws)
        assert bits(params.biases) == bits(bs)
        assert bits(history) == bits(ref_history)

    def test_divergence_is_raised_at_the_reference_epoch(self, noiseless_dataset):
        cfg = TrainConfig(learning_rate=10, epochs=30)
        _, _, _, epoch = reference_train(noiseless_dataset, cfg)
        assert epoch is not None
        with pytest.raises(DivergenceError, match=f"at epoch {epoch} "):
            train(noiseless_dataset, cfg)

    def test_overflow_first_seen_in_a_gradient_product_is_raised_at_the_reference_epoch(
            self, monkeypatch):
        ds = generate_synthetic(SyntheticSpec(5, 2, 8, 8, 40, 10, 0.0, seed=11))
        cfg = TrainConfig(learning_rate=2.0, epochs=30)
        _, _, history, epoch = reference_train(ds, cfg)
        assert epoch == len(history) == 1  # epoch 0 and its loss are finite
        first_non_finite = []
        for module in (sdgzsl.linalg, sdgzsl.mlp):  # mlp's copy checks the weight gradients
            def spy(a, name, _module=module.__name__, _check=module.check_finite):
                if not (first_non_finite or np.isfinite(a).all()):
                    first_non_finite.append(_module)
                return _check(a, name)
            monkeypatch.setattr(module, "check_finite", spy)
        with pytest.raises(DivergenceError, match=f"at epoch {epoch} "):
            train(ds, cfg)
        assert first_non_finite == ["sdgzsl.mlp"]


class TestTrainMatchesReferenceSgdOverlapped(TestTrainMatchesReferenceSgd):
    """The same checks with each epoch's loss computed beside the next epoch's steps."""

    overlap = True


def gives_a_thread() -> bool:
    """Whether ``second_thread`` gives a caller that wants a second thread one."""
    with sdgzsl._threads.second_thread("sdgzsl-test", True) as submit:
        return submit is not None


class Asked(Exception):
    pass


def train_wants_a_thread(monkeypatch, n: int, shapes) -> bool:
    """Whether ``train`` on ``n`` rows through layers of ``(out, in)`` ``shapes``
    wants a second thread, read from its one call to ``second_thread``."""
    def asked(name, wanted):
        raise Asked(wanted)

    monkeypatch.setattr(sdgzsl.mlp, "second_thread", asked)
    d, s = shapes[0][1], shapes[-1][0]
    ds = types.SimpleNamespace(seen_train_x=np.zeros((n, d)), seen_train_y=np.zeros(n, dtype=int),
                               seen_emb=np.zeros((1, s)), feature_dim=d, semantic_dim=s)
    with pytest.raises(Asked) as info:
        train(ds, TrainConfig(epochs=1, hidden_sizes=[o for o, _ in shapes[:-1]]))
    return info.value.args[0]


OVERFLOW_SPEC = SyntheticSpec(5, 2, 8, 8, 40, 10, 0.0, seed=11)  # at learning rate 2.0,
# epoch 1's steps overflow in a weight-gradient product (see the test above)


class TestOverlappedTrain:
    """``train`` with a pool thread running epoch e+1's steps during epoch e's loss."""

    @pytest.fixture(autouse=True)
    def _overlap(self, monkeypatch):
        force_two_threads(monkeypatch, True)

    @pytest.fixture()
    def workers(self, monkeypatch):
        """The future of every call submitted to ``train``'s pool, and the threads that ran them."""
        record = types.SimpleNamespace(futures=[], threads=set())

        class Counted(concurrent.futures.ThreadPoolExecutor):
            def submit(self, fn, *args):
                def run():
                    record.threads.add(threading.current_thread())
                    return fn(*args)

                record.futures.append(super().submit(run))
                return record.futures[-1]

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
        return record

    def test_both_paths_give_the_same_bytes(self, bench_dataset, bench_mapper, workers):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the interpreter between threads as often as it can
        try:
            params, history = train(bench_dataset, TrainConfig())
        finally:
            sys.setswitchinterval(interval)
        assert len(workers.futures) == TrainConfig().epochs
        assert len(workers.threads) == 1 and not any(t.is_alive() for t in workers.threads)
        inline, inline_history = bench_mapper
        assert bits(params.weights + params.biases) == bits(inline.weights + inline.biases)
        assert bits(history) == bits(inline_history)

    def test_size_and_cpu_count_select_the_overlap(self, monkeypatch):
        monkeypatch.setattr(sdgzsl.mlp, "_OVERLAP_MACS", 2**24)
        train_heavy = [(256, 256), (64, 256)]
        assert train_wants_a_thread(monkeypatch, 2000, train_heavy)
        assert train_wants_a_thread(monkeypatch, 1000, [(116, 116), (29, 116)])  # 16.8M
        assert not train_wants_a_thread(monkeypatch, 1000, [(97, 97), (24, 97)])  # 11.7M
        assert not train_wants_a_thread(monkeypatch, 600, [(32, 32), (32, 32)])  # eval_heavy
        assert not train_wants_a_thread(monkeypatch, 500, [(32, 32), (16, 32)])  # CLI defaults
        assert gives_a_thread()
        monkeypatch.setattr(sdgzsl._threads, "_usable_cpus", lambda: 1)
        assert not gives_a_thread()

    @pytest.mark.parametrize("env, one", [
        ({}, False),  # OpenBLAS runs on every core
        ({"OPENBLAS_NUM_THREADS": "1"}, True),
        ({"OMP_NUM_THREADS": "1"}, True),
        ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, True),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),  # OpenBLAS's own first
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, True),  # 0 is skipped, as there
        ({"OPENBLAS_NUM_THREADS": "one"}, False),
    ])
    def test_blas_threads_select_the_overlap(self, monkeypatch, env, one):
        monkeypatch.undo()  # the class fixture's forcing, the BLAS check included
        monkeypatch.setattr(sdgzsl._threads, "_usable_cpus", lambda: 2)
        for key in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(key, raising=False)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        assert sdgzsl._threads._blas_on_one_thread() is one
        assert gives_a_thread() is one

    def test_a_wrapped_callee_keeps_one_thread(self, monkeypatch, workers):
        calls = []

        @functools.wraps(sdgzsl.mlp.check_finite)
        def traced(*args):
            calls.append(threading.get_ident())
            return traced.__wrapped__(*args)

        monkeypatch.setattr(sdgzsl.mlp, "check_finite", traced)
        train(generate_synthetic(SMALL_SPEC), TrainConfig(epochs=3, batch_size=7))
        assert workers.futures == [] and set(calls) == {threading.get_ident()}

    def test_below_the_threshold_no_thread_is_started(self, monkeypatch, workers):
        monkeypatch.setattr(sdgzsl.mlp, "_OVERLAP_MACS", float("inf"))
        train(generate_synthetic(SMALL_SPEC), TrainConfig(epochs=3))
        assert workers.futures == []

    def test_no_thread_outlives_a_returning_train(self, monkeypatch, workers):
        started, start = [], threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        before = threading.active_count()
        train(generate_synthetic(SMALL_SPEC), TrainConfig(epochs=5, batch_size=7))
        assert len(workers.futures) == 5  # epoch 0's steps run on the pool too
        assert len(started) == 1 and workers.threads == set(started)  # one, not one per epoch
        assert threading.active_count() == before

    def test_divergence_in_the_workers_steps_names_its_epoch(self, workers):
        before = threading.active_count()
        with pytest.raises(DivergenceError, match="at epoch 1 "):
            train(generate_synthetic(OVERFLOW_SPEC), TrainConfig(learning_rate=2.0, epochs=30))
        assert len(workers.futures) == 2  # epoch 0's steps, then epoch 1's
        assert isinstance(workers.futures[1].exception(timeout=0), DomainError)
        assert threading.active_count() == before

    def test_a_non_finite_loss_names_its_epoch_whatever_the_next_steps_do(
            self, monkeypatch, workers):
        ds = generate_synthetic(SMALL_SPEC)
        batches = -(-ds.seen_train_x.shape[0] // 7)
        losses, gradients, epoch_2_started = [], [], threading.Event()
        mse, gradient = sdgzsl.mlp.mse_loss, sdgzsl.mlp._gradient

        def nan_at_epoch_1(*args):
            losses.append(mse(*args))
            if len(losses) != 2:
                return losses[-1]
            # returns once epoch 2's steps run, so that exiting the pool cannot cancel them
            return float("nan") if epoch_2_started.wait(timeout=60) else losses[-1]

        def overflow_in_epoch_2(*args):
            gradients.append(None)
            if len(gradients) > 2 * batches:
                epoch_2_started.set()
                time.sleep(0.2)  # still running when epoch 1's loss is found non-finite
                raise DomainError("matmul result: non-finite values")
            return gradient(*args)

        monkeypatch.setattr(sdgzsl.mlp, "mse_loss", nan_at_epoch_1)
        monkeypatch.setattr(sdgzsl.mlp, "_gradient", overflow_in_epoch_2)
        before = threading.active_count()
        with pytest.raises(DivergenceError, match="at epoch 1 "):
            train(ds, TrainConfig(epochs=5, batch_size=7))
        assert len(workers.futures) == 3
        # epoch 2's steps failed too, and had finished when train raised
        assert isinstance(workers.futures[2].exception(timeout=0), DomainError)
        assert threading.active_count() == before

    def test_overflow_on_the_worker_is_an_error_not_a_warning(self, workers):
        ds = generate_synthetic(OVERFLOW_SPEC)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's errstate is per thread
            with pytest.raises(DivergenceError, match="at epoch 1 "):
                train(ds, TrainConfig(learning_rate=2.0, epochs=30))
        assert len(workers.futures) == 2
        assert isinstance(workers.futures[1].exception(timeout=0), DomainError)


BIG = np.finfo(np.float64).max


def relu_net(w0, w1):
    return MlpParams([np.array(w0, dtype=float), np.array(w1, dtype=float)],
                     [np.zeros(2), np.zeros(2)], ["relu", "linear"])


def with_a_minus_inf_row(dataset, seed):
    """``dataset`` with seen training row 3 replaced by one whose product with
    the first layer's one unit, in ``hidden_sizes=[1]`` training at ``seed``,
    is ``-inf``: the row is ``-BIG`` times the sign of each weight."""
    w0 = init_params(dataset.feature_dim, [1], dataset.semantic_dim, SplitMix64(seed)).weights[0]
    xs = dataset.seen_train_x.copy()
    xs[3] = np.copysign(BIG, -w0[0])
    return dataclasses.replace(dataset, seen_train_x=xs)


class TestNonFiniteProducts:
    """Only a ReLU layer's product is checked in the forward pass, the output
    once, and in the backward pass only the weight-gradient products; a
    non-finite product of any kind must still raise."""

    CASES = {
        # a hidden row of zeros keeps the output and the last weight gradient finite
        "back-propagated": (relu_net(-np.eye(2), np.full((2, 2), BIG)), [[1.0, 1.0]],
                            [[-1.0, -1.0]]),
        "output": (relu_net(np.eye(2), [[BIG, BIG], [0.0, 1.0]]), [[1.0, 1.0]], [[0.0, 0.0]]),
        # the ReLU maps row 0's -inf to 0, and nothing after it is non-finite
        "relu -inf": (relu_net([[1.0, 1.0], [0.0, 1.0]], np.eye(2)), [[-BIG, -BIG], [1.0, 2.0]],
                      [[0.0, 0.0], [3.0, 2.0]]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_backward_raises_domain_error(self, case):
        params, xs, zs = self.CASES[case]
        with np.errstate(over="ignore", invalid="ignore"):
            if case != "output":  # the output the unchecked paths see is finite
                assert np.isfinite(plain_forward(params, np.array(xs))).all()
            with pytest.raises(DomainError, match="matmul result"):
                backward(params, xs, zs)

    @pytest.mark.parametrize("case", ["output", "relu -inf"])
    def test_the_forward_paths_raise_domain_error(self, case):
        params, xs, zs = self.CASES[case]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainError, match="matmul result"):
                forward_batch(params, xs)
            with pytest.raises(DomainError, match="matmul result"):
                mse_loss(params, xs, zs)

    # the first non-finite product of each run, by reference_train: (kind, layer)
    TRAIN_CASES = {
        "output": ("layer", 1, OVERFLOW_SPEC, TrainConfig(learning_rate=1.0, epochs=30, seed=0)),
        "back-propagated": ("back-propagated", 2, OVERFLOW_SPEC,
                            TrainConfig(learning_rate=2.0, epochs=30, batch_size=1, seed=1,
                                        hidden_sizes=[7, 5])),
        "relu -inf": ("layer", 0, SMALL_SPEC,
                      TrainConfig(learning_rate=0.05, epochs=4, seed=9, hidden_sizes=[1])),
    }

    @pytest.mark.parametrize("overlap", [False, True])
    @pytest.mark.parametrize("case", TRAIN_CASES)
    def test_divergence_is_raised_at_the_reference_epoch(self, monkeypatch, overlap, case):
        force_two_threads(monkeypatch, overlap)
        kind, layer, spec, cfg = self.TRAIN_CASES[case]
        ds = generate_synthetic(spec)
        if case == "relu -inf":
            ds = with_a_minus_inf_row(ds, cfg.seed)
        first = []
        _, _, _, epoch = reference_train(ds, cfg, first)
        assert epoch is not None and first[0][:2] == (kind, layer)
        if case == "relu -inf":  # every non-finite entry is one the ReLU maps to 0
            product = first[0][2]
            assert np.all(product[~np.isfinite(product)] == -np.inf)
        with pytest.raises(DivergenceError, match=f"at epoch {epoch} "):
            train(ds, cfg)


def test_a_train_below_the_threshold_leaves_the_pool_unimported():
    """Neither ``import sdgzsl`` nor a ``train`` that does not overlap, nor a
    statistics pass of one chunk per split, imports ``concurrent.futures``,
    which CLI start-up skips."""
    src = str(Path(sdgzsl.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, sdgzsl\n"
            "print('concurrent.futures' in sys.modules)\n"
            "ds = sdgzsl.generate_synthetic(sdgzsl.SyntheticSpec(4, 2, 6, 5, 10, 2, 0.1, seed=3))\n"
            "mapper, _ = sdgzsl.train(ds, sdgzsl.TrainConfig(epochs=2))\n"
            "sdgzsl.evaluate_sweep(mapper, sdgzsl.calibrate(mapper, ds), ds)\n"
            "print('concurrent.futures' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\nFalse\n"


class TestInputsAreNotModified:
    """The in-place steps must only touch arrays the step itself created."""

    @pytest.mark.parametrize("acts", [["relu", "linear"], ["relu", "relu"]])
    def test_forward_loss_and_backward_leave_inputs_alone(self, np_rng, acts):
        params = dataclasses.replace(init_params(5, [6], 3, SplitMix64(8)), activations=acts)
        xs, zs = np_rng.normal(size=(9, 5)), np_rng.normal(size=(9, 3))
        before = bits([xs, zs, *params.weights, *params.biases])
        forward_batch(params, xs)[...] = 7.0
        mse_loss(params, xs, zs)
        gw, gb = backward(params, xs, zs)
        assert bits([xs, zs, *params.weights, *params.biases]) == before
        for g in gw + gb:
            g[...] = 123.0
        assert bits([xs, zs, *params.weights, *params.biases]) == before

    def test_train_leaves_the_dataset_alone(self, monkeypatch):
        ds = generate_synthetic(SMALL_SPEC)
        fields = [ds.seen_train_x, ds.seen_train_y, ds.seen_test_x, ds.seen_test_y,
                  ds.unseen_test_x, ds.unseen_test_y, ds.seen_emb, ds.unseen_emb]
        before = bits(fields)
        for overlap in (False, True):
            force_two_threads(monkeypatch, overlap)
            train(ds, TrainConfig(epochs=3, batch_size=7, hidden_sizes=[4]))
            train(ds, TrainConfig(epochs=3, batch_size=1000, hidden_sizes=[]))
        assert bits(fields) == before
