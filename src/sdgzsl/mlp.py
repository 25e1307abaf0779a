"""Trainable MLP that projects feature vectors into the semantic space.

The network is fit on seen-class instances only, regressing each
instance onto its class embedding with mean squared error:

    loss = (1/N) * sum_i || f(x_i) - z_{y_i} ||^2

Plain SGD, deterministic given the config seed: weight init and epoch
shuffles both come from one SplitMix64 stream. Steps work in place but keep
the plain formulas' operation order (``max(x @ w.T + b, 0)``, ``w -= lr * dw``).
During ``train`` the weights and biases are views into one flat vector, laid
out ``w0, b0, w1, b1, ...`` as in a checkpoint blob, and ``_gradient`` writes
each step's gradients into views of a second flat vector of the same layout.
So a step updates with two calls, ``grad *= lr; flat -= grad``, which apply
the per-array formula to every entry, and every product is still checked for
finiteness before it is used.

When the per-epoch full-set loss is large (at least ``_OVERLAP_MACS``
multiply-adds in its forward), BLAS runs on one thread (the first of
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and ``OMP_NUM_THREADS`` that
holds a positive integer is 1) and two CPUs are usable, ``train`` runs two
threads: once epoch e's steps finish, ``flat`` is copied into a snapshot, a
worker thread runs epoch e+1's steps on ``flat`` and the calling thread
computes epoch e's loss on views of the snapshot.  Each product is the same
call on the same operands as on one thread, so parameters and losses keep
their bits, and a divergence names the same epoch.  Otherwise both run on the
calling thread: for a small loss the hand-offs cost more than they hide, and
with BLAS on every core two callers only share the same cores.  A caller that
has wrapped one of the functions the threads call (a tracer) also gets one
thread.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import GzslDataset, _integer_problems, _is_integer, _is_real
from .errors import DatasetLoadError, DivergenceError, DomainError, ShapeError, ValidationError
from .linalg import ROW_BLOCK, check_finite, matmul
from .rng import SplitMix64

_ACTIVATIONS = ("relu", "linear")


@dataclass
class MlpParams:
    """Layer weights (out x in), biases (out), and activation tags."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activations: list[str]

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    def layer_sizes(self) -> list[int]:
        return [self.in_dim] + [w.shape[0] for w in self.weights]

    def validate(self) -> "MlpParams":
        if not (len(self.weights) == len(self.biases) == len(self.activations)):
            raise ValidationError("weights, biases, activations must have equal length")
        if not self.weights:
            raise ValidationError("network needs at least one layer")
        for k, (w, b, act) in enumerate(zip(self.weights, self.biases, self.activations)):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ValidationError(f"layer {k}: weight {w.shape} and bias {b.shape} mismatch")
            if k > 0 and w.shape[1] != self.weights[k - 1].shape[0]:
                raise ValidationError(
                    f"layer {k}: input dim {w.shape[1]} != previous output "
                    f"{self.weights[k - 1].shape[0]}"
                )
            if act not in _ACTIVATIONS:
                raise ValidationError(f"layer {k}: unknown activation {act!r}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValidationError(f"layer {k}: non-finite parameters")
        return self

    def freeze(self) -> "MlpParams":
        for a in self.weights + self.biases:
            a.setflags(write=False)
        return self


@dataclass
class TrainConfig:
    learning_rate: float = 1e-2
    epochs: int = 100
    batch_size: int = 64
    seed: int = 0
    hidden_sizes: list[int] | None = None  # None -> one hidden layer of max(d, S)

    def validate(self) -> "TrainConfig":
        problems = _integer_problems(self, (("epochs", 1), ("batch_size", 1), ("seed", -np.inf)))
        if not (_is_real(self.learning_rate) and 0 < self.learning_rate < np.inf):  # NaN fails both
            problems.append(f"learning_rate must be a finite number > 0, got {self.learning_rate!r}")
        if self.hidden_sizes is not None and not all(_is_integer(h) and h >= 1
                                                     for h in self.hidden_sizes):
            problems.append(f"hidden sizes must be integers >= 1, got {self.hidden_sizes!r}")
        if problems:
            raise ValidationError("invalid TrainConfig: " + "; ".join(problems))
        return self


def init_params(in_dim: int, hidden_sizes: list[int], out_dim: int, rng: SplitMix64) -> MlpParams:
    """Glorot-uniform init, ReLU on hidden layers, linear output."""
    sizes = [in_dim] + list(hidden_sizes) + [out_dim]
    weights, biases, acts = [], [], []
    for k, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform_array(-bound, bound, (fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
        acts.append("linear" if k == len(sizes) - 2 else "relu")
    return MlpParams(weights, biases, acts).validate()


def _views(shapes, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Weight and bias views of ``flat`` for layer ``(out, in)`` shapes, laid out ``w0, b0, w1, ...``."""
    weights, biases, at = [], [], 0
    for o, i in shapes:
        weights.append(flat[at : at + o * i].reshape(o, i))
        biases.append(flat[at + o * i : at + o * i + o])
        at += o * i + o
    return weights, biases


def _layers(params: MlpParams, x: np.ndarray) -> list[np.ndarray]:
    """Input and every layer's activation, ``[x, h1, ..., out]``, of a 2-D batch or a
    ``(blocks, ROW_BLOCK, d)`` stack; each ``h`` is fresh.  Non-conforming layers
    (unvalidated parameters) raise ``ShapeError`` on every path."""
    acts = [x]
    for k, (w, b, act) in enumerate(zip(params.weights, params.biases, params.activations)):
        if w.shape[1] != acts[-1].shape[-1]:
            raise ShapeError(f"forward: layer {k} takes {w.shape[1]} inputs, "
                             f"got {acts[-1].shape[-1]}")
        h = check_finite(np.matmul(acts[-1], w.T), "matmul result")
        h += b
        if act == "relu":
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return acts


def _as_batch(params: MlpParams, x) -> np.ndarray:
    """Feature rows as a float64 matrix that fits the network's input."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.in_dim:
        raise ShapeError(f"forward: batch shape {x.shape} incompatible with input dim {params.in_dim}")
    return x


def forward_batch(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Project a batch of feature rows into the semantic space."""
    return _layers(params, _as_batch(params, x))[-1]


def _forward_blocks(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """``forward_batch`` on each ``ROW_BLOCK``-row block of ``x``, concatenated.

    The whole blocks go through ``_layers`` as one ``(blocks, ROW_BLOCK, d)``
    stack: ``np.matmul`` runs the same ``ROW_BLOCK``-row product on every
    block that ``forward_batch`` would, so the bits match, without a Python
    call per block.  The short tail goes through ``forward_batch`` itself.
    """
    x = _as_batch(params, x)
    full = x.shape[0] - x.shape[0] % ROW_BLOCK
    if not full:  # as for one-row callers: no per-layer calls on an empty stack
        return forward_batch(params, x)
    h = _layers(params, x[:full].reshape(-1, ROW_BLOCK, x.shape[1]))[-1].reshape(full, -1)
    if full == x.shape[0]:
        return h
    return np.concatenate([h, forward_batch(params, x[full:])])


def forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Project a single feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"forward: expected a vector, got shape {x.shape}")
    return forward_batch(params, x[None, :])[0]


def _batch_pair(fn: str, params: MlpParams, xs, zs) -> tuple[np.ndarray, np.ndarray]:
    """Feature and target rows as float64 matrices that fit the network."""
    xs = np.asarray(xs, dtype=np.float64)
    zs = np.asarray(zs, dtype=np.float64)
    if xs.ndim != 2 or zs.ndim != 2 or xs.shape[0] != zs.shape[0]:
        raise ShapeError(f"{fn}: rows of {xs.shape} and {zs.shape} must match")
    if xs.shape[1] != params.in_dim or zs.shape[1] != params.out_dim:
        raise ShapeError(f"{fn}: batch dims {xs.shape[1]}->{zs.shape[1]} incompatible with "
                         f"network {params.in_dim}->{params.out_dim}")
    return xs, zs


def mse_loss(params: MlpParams, xs: np.ndarray, zs: np.ndarray) -> float:
    """Mean over instances of the squared projection error."""
    xs, zs = _batch_pair("mse_loss", params, xs, zs)
    diff = forward_batch(params, xs)
    diff -= zs
    diff *= diff
    return float(np.mean(np.sum(diff, axis=1)))


def _gradient(params: MlpParams, xs: np.ndarray, zs: np.ndarray,
              grad_w: list[np.ndarray], grad_b: list[np.ndarray]) -> None:
    """Write the gradient of ``mse_loss`` over a conforming batch into ``grad_w`` and ``grad_b``."""
    acts = _layers(params, xs)
    relu = [h > 0.0 if act == "relu" else None  # the pre-activation > 0 mask, NaN included
            for h, act in zip(acts[1:], params.activations)]
    d_out = acts[-1]  # fresh, so the residual is formed in place once its mask is taken
    d_out -= zs
    d_out *= 2.0
    d_out /= xs.shape[0]
    for k in range(len(params.weights) - 1, -1, -1):
        if relu[k] is not None:
            d_out *= relu[k]
        check_finite(np.matmul(d_out.T, acts[k], out=grad_w[k]), "matmul result")
        np.add.reduce(d_out, axis=0, out=grad_b[k])
        if k > 0:
            d_out = matmul(d_out, params.weights[k])


def backward(params: MlpParams, xs: np.ndarray, zs: np.ndarray):
    """Analytic gradient of ``mse_loss`` over the batch.

    Returns (weight grads, bias grads) shaped like the parameters, views of
    one fresh packed vector.
    """
    xs, zs = _batch_pair("backward", params, xs, zs)
    shapes = [w.shape for w in params.weights]
    grad_w, grad_b = _views(shapes, np.empty(sum(o * i + o for o, i in shapes)))
    _gradient(params, xs, zs, grad_w, grad_b)
    return grad_w, grad_b


# Fewest loss-forward multiply-adds (rows x sum of layer out x in) at which
# ``train`` overlaps each epoch's loss with the next epoch's steps; below it
# the thread hand-offs cost more than the loss they hide.  On a 2-core x86-64
# box with BLAS on one thread, at 1000, 2000 and 4000 rows, 8.4M and 12M were
# 3-5% slower with the overlap and 14M to 24M were 3-14% faster.
_OVERLAP_MACS = 2**24


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _blas_on_one_thread() -> bool:
    """Whether BLAS runs each product on one thread, read as OpenBLAS (numpy's own
    BLAS) reads it when it loads: the first of these variables that holds a
    positive integer.  With none set, OpenBLAS runs on every core."""
    for key in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(key, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value) == 1
    return False


def _wrapped() -> bool:
    """Whether a function that ``train``'s threads call has been replaced by a
    wrapper (``functools.wraps`` leaves ``__wrapped__``), such as a tracer's,
    whose state need not be safe on two threads."""
    return any(hasattr(fn, "__wrapped__") for fn in (
        mse_loss, forward_batch, _layers, _gradient, check_finite, matmul, SplitMix64.permutation))


def _overlaps(n: int, shapes) -> bool:
    """Whether ``train`` runs each epoch's steps beside the previous epoch's loss:
    only for a large loss, with BLAS on one thread, a second CPU for the second
    caller, and no wrapped function on either thread."""
    return (n * sum(o * i for o, i in shapes) >= _OVERLAP_MACS and _blas_on_one_thread()
            and _usable_cpus() >= 2 and not _wrapped())


class _Worker(threading.Thread):
    """Runs ``fn()`` on its own thread; ``result`` joins it and re-raises what it raised.

    The thread blocks once after it starts, so the interpreter lock goes back
    to the caller, which keeps it until its next product; once the thread has
    the lock again it yields its CPU once, so the caller usually gets into that
    product first.  The product then takes OpenBLAS's first free buffer, the
    one the caller's earlier products used.  This makes the order likely, not
    certain: OpenBLAS gives a product the first buffer no other product holds,
    and a loss product that finds the first one held by a product of ``fn``
    packs its 4 MB operand into a second buffer, which stays resident for the
    rest of the process.
    """

    def __init__(self, fn):
        super().__init__(name="sdgzsl-train-steps")
        self.fn, self.error, self._go = fn, None, threading.Event()
        try:
            self.start()
        finally:  # never leave the thread waiting, not even on an interrupt
            self._go.set()

    def run(self) -> None:
        self._go.wait()
        time.sleep(0)
        try:
            self.fn()
        except BaseException as exc:  # handed to the caller by ``result``
            self.error = exc

    def result(self) -> None:
        self.join()
        if self.error is not None:
            raise self.error


def train(dataset: GzslDataset, cfg: TrainConfig) -> tuple[MlpParams, list[float]]:
    """Mini-batch SGD on seen training instances against their class embeddings.

    Returns the trained parameters and the per-epoch full-training-set
    loss history (length ``cfg.epochs``).  Raises ``DivergenceError`` naming
    the first epoch whose steps or loss are not finite.  When ``_overlaps``
    holds (a large loss, BLAS on one thread, two usable CPUs, no wrapped
    callee), epoch e's loss is computed on a snapshot of the parameters while
    a worker thread runs epoch e+1's steps; the results are the same bits,
    and the worker is joined before ``train`` returns or raises.
    """
    cfg.validate()
    xs = dataset.seen_train_x
    if xs.shape[0] == 0:
        raise ValidationError("train: seen_train split is empty")
    zs = dataset.seen_emb[dataset.seen_train_y]
    d, s = dataset.feature_dim, dataset.semantic_dim
    hidden = [max(d, s)] if cfg.hidden_sizes is None else list(cfg.hidden_sizes)

    rng = SplitMix64(cfg.seed)
    params = init_params(d, hidden, s, rng)
    shapes = [w.shape for w in params.weights]
    flat = np.concatenate([a.ravel() for pair in zip(params.weights, params.biases) for a in pair])
    params.weights, params.biases = _views(shapes, flat)
    grad = np.empty_like(flat)
    grad_w, grad_b = _views(shapes, grad)
    n = xs.shape[0]

    def steps() -> None:  # one epoch
        perm = rng.permutation(n)
        with np.errstate(over="ignore", invalid="ignore"):  # set per thread
            for start in range(0, n, cfg.batch_size):
                idx = perm[start : start + cfg.batch_size]
                _gradient(params, xs[idx], zs[idx], grad_w, grad_b)
                np.multiply(grad, cfg.learning_rate, out=grad)  # grad *= lr
                np.subtract(flat, grad, out=flat)  # flat -= grad

    overlap = _overlaps(n, shapes)
    snapshot = np.empty_like(flat) if overlap else None
    at_snapshot = MlpParams(*_views(shapes, snapshot), params.activations) if overlap else params
    history: list[float] = []
    worker = None  # the thread running this epoch's steps, if they are under way
    try:
        for epoch in range(cfg.epochs):
            try:
                if worker is None:
                    steps()
                else:
                    worker.result()
                    worker = None
                if overlap:
                    snapshot[...] = flat
                    if epoch + 1 < cfg.epochs:
                        worker = _Worker(steps)
                with np.errstate(over="ignore", invalid="ignore"):
                    loss = mse_loss(at_snapshot, xs, zs)
            except DomainError:
                # overflow inside a product surfaces as a substrate finiteness error
                loss = float("nan")
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"non-finite training loss at epoch {epoch} "
                    f"(learning_rate={cfg.learning_rate}); reduce the learning rate"
                )
            history.append(loss)
    finally:
        if worker is not None:
            worker.join()
    return params.validate().freeze(), history


def save_checkpoint(params: MlpParams, path, seed: int | None = None,
                    unified_norm: float | None = None) -> Path:
    """Text header (shapes, activations, seed, norm) + f64 LE parameter blob."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "layers": [[int(w.shape[0]), int(w.shape[1])] for w in params.weights],
        "activations": list(params.activations),
        "seed": seed,
        "l": unified_norm,
    }
    blob = b"".join(
        np.ascontiguousarray(a, dtype="<f8").tobytes()
        for w, b in zip(params.weights, params.biases)
        for a in (w, b)
    )
    with open(out, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(blob)
    return out


def _is_shape(pair) -> bool:
    return isinstance(pair, list) and len(pair) == 2 and all(_is_integer(v) and v >= 1 for v in pair)


def load_checkpoint(path) -> tuple[MlpParams, dict]:
    """Exact round-trip of :func:`save_checkpoint`; returns (params, header)."""
    p = Path(path)
    if not p.is_file():
        raise DatasetLoadError(f"{p}: missing checkpoint file")
    blob = p.read_bytes()
    nl = blob.find(b"\n")
    if nl < 0:
        raise DatasetLoadError(f"{p}: missing checkpoint header line")
    try:
        header = json.loads(blob[:nl].decode())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DatasetLoadError(f"{p}: invalid checkpoint header ({exc})") from exc
    body = blob[nl + 1 :]
    if not isinstance(header, dict):
        raise DatasetLoadError(f"{p}: checkpoint header is not a JSON object")
    layers = header.get("layers")
    acts = header.get("activations")
    if not (isinstance(layers, list) and layers and all(_is_shape(s) for s in layers)):
        raise DatasetLoadError(f"{p}: checkpoint 'layers' must be a nonempty list of "
                               f"[out, in] integer pairs >= 1, got {layers!r}")
    if not (isinstance(acts, list) and all(isinstance(a, str) for a in acts)
            and len(acts) == len(layers)):
        raise DatasetLoadError(f"{p}: checkpoint 'activations' must be a list of "
                               f"{len(layers)} strings, got {acts!r}")
    seed = header.get("seed")
    # the seed is copied into report provenance, where a string could forge lines
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise DatasetLoadError(f"{p}: checkpoint 'seed' must be an integer or null, got {seed!r}")
    expected = sum(o * i + o for o, i in layers) * 8
    if len(body) != expected:
        raise DatasetLoadError(f"{p}: expected {expected} blob bytes, got {len(body)}")
    weights, biases = _views(layers, np.frombuffer(body, dtype="<f8").copy())
    params = MlpParams(weights, biases, list(acts)).validate().freeze()
    return params, header
