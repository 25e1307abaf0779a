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
the per-array formula to every entry.

Finiteness is checked only where a non-finite value could vanish.  A ReLU
layer's product is checked before its bias is added, since the ReLU maps
``-inf`` to 0.  Any other non-finite value carries on, as sums and products
carry inf and NaN (``0 * inf`` is NaN): forward, to the output, which
``forward_batch`` and ``mse_loss`` check once; backward, through the
unchecked back-propagated products ``d @ W`` and the ReLU masks, to a
weight-gradient product, and each of those is checked.  So an input that
makes any product non-finite raises ``DomainError`` in the same call, and in
``train`` at the same step.

Each epoch's full-set loss is computed on a snapshot of ``flat`` taken once
the epoch's steps finish.  ``train`` runs every epoch's steps on a second
thread when ``_threads`` gives it one (see that module for when): epoch e+1's
steps are submitted right after epoch e's snapshot and run on ``flat`` while
the calling thread computes epoch e's loss.  Each product is the same call on
the same operands as on one thread, so parameters and losses keep their bits,
and a divergence names the same epoch.

``forward_batch`` is the one projection outside training: it multiplies
``linalg.ROW_BLOCK`` rows at a time, as the statistics pass of ``gates`` and
the default classifier call it, so the same matrix gives the same bits on
every path.  Training's own products (``_gradient`` and ``mse_loss``) take
each batch as one product through ``_layers``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._threads import second_thread
from .data import GzslDataset, _integer_problems, _is_finite, _is_integer
from .errors import DatasetLoadError, DivergenceError, DomainError, ShapeError, ValidationError
# ``matmul`` has no caller here; the benchmark's tracing test asserts that
# ``mlp.matmul`` is ``linalg.matmul``, so the binding stays
from .linalg import ROW_BLOCK, check_finite, matmul
from .rng import SplitMix64

_ACTIVATIONS = ("relu", "linear")


@dataclass(frozen=True)
class MlpParams:
    """Layer weights (out x in), biases (out), and activation tags, checked when made
    (``dataclasses.replace`` too); the checks store them as tuples and make the
    arrays read-only, so no edit in place gets past them."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    activations: tuple[str, ...]

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    def layer_sizes(self) -> list[int]:
        return [self.in_dim] + [w.shape[0] for w in self.weights]

    def __post_init__(self) -> None:
        for name in ("weights", "biases", "activations"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
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
        # train writes through the flat vector these arrays may view, not through them
        for a in self.weights + self.biases:
            a.setflags(write=False)


@dataclass
class TrainConfig:
    learning_rate: float = 1e-2
    epochs: int = 100
    batch_size: int = 64
    seed: int = 0
    hidden_sizes: list[int] | None = None  # None -> one hidden layer of max(d, S)

    def validate(self) -> "TrainConfig":
        problems = _integer_problems(self, (("epochs", 1), ("batch_size", 1), ("seed", -np.inf)))
        if not (_is_finite(self.learning_rate) and self.learning_rate > 0):
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
    return MlpParams(weights, biases, acts)


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
    ``(blocks, ROW_BLOCK, d)`` stack; each ``h`` is fresh.  Only ReLU layers'
    products are checked for finiteness; the module docstring says what callers
    check.  The layers chain, as ``MlpParams`` checks when made."""
    acts = [x]
    for w, b, act in zip(params.weights, params.biases, params.activations):
        h = np.matmul(acts[-1], w.T)
        if act == "relu":
            # the ReLU maps -inf to 0, so a later check would miss it; every other
            # non-finite product reaches the output, as inf and NaN carry on
            check_finite(h, "matmul result")
            h += b
            np.maximum(h, 0.0, out=h)
        else:
            h += b
        acts.append(h)
    return acts


def forward_batch(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Project a batch of feature rows into the semantic space, one
    ``ROW_BLOCK``-row product per block.

    A product's last bits depend on how many rows it multiplies at once, so
    every caller gets the blocks the statistics pass uses: the whole blocks go
    through ``_layers`` as one ``(blocks, ROW_BLOCK, d)`` stack, where
    ``np.matmul`` runs the same ``ROW_BLOCK``-row product on each block
    without a Python call per block, and the short tail as one product.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.in_dim:
        raise ShapeError(f"forward: batch shape {x.shape} incompatible with input dim {params.in_dim}")
    full = x.shape[0] - x.shape[0] % ROW_BLOCK
    if not full:  # as for one-row callers: no per-layer calls on an empty stack
        h = _layers(params, x)[-1]
    else:
        h = _layers(params, x[:full].reshape(-1, ROW_BLOCK, x.shape[1]))[-1].reshape(full, -1)
        if full < x.shape[0]:
            h = np.concatenate([h, _layers(params, x[full:])[-1]])
    return check_finite(h, "matmul result plus bias")


def forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Project a single feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"forward: expected a vector, got shape {x.shape}")
    return forward_batch(params, x[None, :])[0]


def _batch_pair(fn: str, params: MlpParams, xs, zs) -> tuple[np.ndarray, np.ndarray]:
    """Feature and target rows as float64 matrices that fit the network, at least one
    row."""
    xs = np.asarray(xs, dtype=np.float64)
    zs = np.asarray(zs, dtype=np.float64)
    if xs.ndim != 2 or zs.ndim != 2 or xs.shape[0] != zs.shape[0]:
        raise ShapeError(f"{fn}: rows of {xs.shape} and {zs.shape} must match")
    if xs.shape[1] != params.in_dim or zs.shape[1] != params.out_dim:
        raise ShapeError(f"{fn}: batch dims {xs.shape[1]}->{zs.shape[1]} incompatible with "
                         f"network {params.in_dim}->{params.out_dim}")
    if xs.shape[0] == 0:  # the loss and its gradient are means over the rows
        raise DomainError(f"{fn}: empty batch")
    return xs, zs


def mse_loss(params: MlpParams, xs: np.ndarray, zs: np.ndarray) -> float:
    """Mean over instances of the squared projection error.  An empty batch or a
    non-finite projection raises ``DomainError``."""
    xs, zs = _batch_pair("mse_loss", params, xs, zs)
    # one product over all rows, not forward_batch's blocks
    diff = check_finite(_layers(params, xs)[-1], "matmul result plus bias")
    diff -= zs
    diff *= diff
    # numpy's ``_mean`` is this sum over the count: the same bits without the wrappers
    return float(np.add.reduce(np.add.reduce(diff, axis=1)) / xs.shape[0])


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
            # unchecked: a non-finite entry survives the mask (inf * 0 is NaN) and
            # reaches layer k-1's weight-gradient product, which is checked
            d_out = np.matmul(d_out, params.weights[k])


def backward(params: MlpParams, xs: np.ndarray, zs: np.ndarray):
    """Analytic gradient of ``mse_loss`` over the batch.

    Returns (weight grads, bias grads) shaped like the parameters, views of
    one fresh packed vector.  An empty batch, or any product that is not
    finite, raises ``DomainError``.
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


def train(dataset: GzslDataset, cfg: TrainConfig) -> tuple[MlpParams, list[float]]:
    """Mini-batch SGD on seen training instances against their class embeddings.

    Returns the trained parameters and the per-epoch full-training-set
    loss history (length ``cfg.epochs``).  Raises ``DivergenceError`` naming
    the first epoch whose steps or loss are not finite.  Each loss is computed
    on a snapshot of the parameters.  When the loss forward has at least
    ``_OVERLAP_MACS`` multiply-adds and ``_threads.second_thread`` gives
    ``train`` a second thread, the steps run there, epoch e+1's beside epoch
    e's loss.  The pool runs epoch 0's steps too, so its thread already
    waits on its queue when the first loss starts, and the caller's loss
    product usually reaches OpenBLAS before the steps' first product does.
    The results are the same bits, and the pool's thread is joined before
    ``train`` returns or raises.
    """
    cfg.validate()
    xs = dataset.seen_train_x
    if xs.shape[0] == 0:
        raise ValidationError("train: seen_train split is empty")
    zs = dataset.seen_emb[dataset.seen_train_y]
    d, s = dataset.feature_dim, dataset.semantic_dim
    hidden = [max(d, s)] if cfg.hidden_sizes is None else list(cfg.hidden_sizes)

    rng = SplitMix64(cfg.seed)
    init = init_params(d, hidden, s, rng)
    shapes = [w.shape for w in init.weights]
    flat = np.concatenate([a.ravel() for pair in zip(init.weights, init.biases) for a in pair])
    params = MlpParams(*_views(shapes, flat), init.activations)
    grad = np.empty_like(flat)
    grad_w, grad_b = _views(shapes, grad)
    n = xs.shape[0]

    def steps() -> None:  # one epoch
        perm = rng.permutation(n)
        with np.errstate(over="ignore", invalid="ignore"):  # set per thread
            for start in range(0, n, cfg.batch_size):
                idx = perm[start : start + cfg.batch_size]
                _gradient(params, xs.take(idx, axis=0), zs.take(idx, axis=0), grad_w, grad_b)
                np.multiply(grad, cfg.learning_rate, out=grad)  # grad *= lr
                np.subtract(flat, grad, out=flat)  # flat -= grad

    snapshot = flat.copy()  # finite, as construction checks
    at_snapshot = MlpParams(*_views(shapes, snapshot), params.activations)
    history: list[float] = []
    wanted = n * sum(o * i for o, i in shapes) >= _OVERLAP_MACS
    with second_thread("sdgzsl-train-steps", wanted) as submit:
        pending = None if submit is None else submit(steps)  # this epoch's steps on the pool
        for epoch in range(cfg.epochs):
            try:
                steps() if pending is None else pending.result()
                snapshot[...] = flat
                if submit is not None and epoch + 1 < cfg.epochs:
                    pending = submit(steps)
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
    # made after the last epoch, so construction checks the final parameters
    return MlpParams(*_views(shapes, flat), params.activations), history


def save_checkpoint(params: MlpParams, path, seed: int | None = None,
                    unified_norm: float | None = None) -> Path:
    """Text header (shapes, activations, seed, norm) + f64 LE parameter blob.

    The seed and norm are checked as ``load_checkpoint`` checks them, and the
    header is built before the file is opened, so a bad value leaves an
    existing file alone.
    """
    if seed is not None and not _is_integer(seed):
        raise ValidationError(f"save_checkpoint: seed must be an integer or None, got {seed!r}")
    if unified_norm is not None and not (_is_finite(unified_norm) and unified_norm > 0):
        raise ValidationError("save_checkpoint: unified_norm must be a finite number > 0 or "
                              f"None, got {unified_norm!r}")
    header = {
        "layers": [[int(w.shape[0]), int(w.shape[1])] for w in params.weights],
        "activations": list(params.activations),
        "seed": None if seed is None else int(seed),  # a numpy integer as a JSON int
        "l": None if unified_norm is None else float(unified_norm),  # a numpy float too
    }
    line = json.dumps(header, sort_keys=True).encode() + b"\n"
    blob = b"".join(
        np.ascontiguousarray(a, dtype="<f8").tobytes()
        for w, b in zip(params.weights, params.biases)
        for a in (w, b)
    )
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "wb") as fh:
        fh.write(line)
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
    if seed is not None and not _is_integer(seed):
        raise DatasetLoadError(f"{p}: checkpoint 'seed' must be an integer or null, got {seed!r}")
    l = header.get("l")
    if l is not None and not (_is_finite(l) and l > 0):
        raise DatasetLoadError(f"{p}: checkpoint 'l' must be a finite number > 0 or null, got {l!r}")
    expected = sum(o * i + o for o, i in layers) * 8
    if len(body) != expected:
        raise DatasetLoadError(f"{p}: expected {expected} blob bytes, got {len(body)}")
    weights, biases = _views(layers, np.frombuffer(body, dtype="<f8").copy())
    try:
        params = MlpParams(weights, biases, acts)
    except ValidationError as exc:  # an unknown activation, layers that do not chain, NaN
        raise DatasetLoadError(f"{p}: invalid checkpoint parameters ({exc})") from exc
    return params, header
