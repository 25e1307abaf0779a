"""Workloads, the repetition loop, and the checks on every output.

A run repeats one workload until its time budget is spent.  Each
repetition runs gen -> train -> calibrate -> evaluate (three gates plus
the no-gate baseline) on inputs made from the run's seed, then, outside
the timed region, checks every report against ``reference`` and every
rendered ``report_*.kv`` and ``thresholds.kv`` digest against earlier
repetitions of the same seed.  A traced run alternates untraced and
traced repetitions, so both see the same machine state and the tracing
overhead is their ratio.

Times are reported in reference seconds.  On the 2-core VM this was
built on, each vCPU's speed swings by up to 2x, within seconds and for
minutes at a time, so raw wall times of the same code moved by 20-50%
between runs.  A fixed probe (``speed_probe``) runs at every stage
boundary on the same CPU, and each stage's wall time is scaled by
``REFERENCE_PROBE_S`` over the mean of the two probes around it: the
time the stage would take with the CPU at the speed where the probe
takes ``REFERENCE_PROBE_S``.  On eval_heavy that cut the run-to-run
spread of the median total from 0.2-0.5 of it to about 0.06.  Raw wall
times stay in the record.  Never change the probe: it sets the unit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sdgzsl
import sdgzsl.cli

import layers
import reference
import tracing

STRATEGIES = ("ol", "dl", "ws")
TAGS = STRATEGIES + (reference.BASELINE,)
THRESHOLD_KEYS = ("r_ol", "r_0", "r_1", "r_ws")
REFERENCE_PROBE_S = 0.04  # probe time that defines one reference second


def speed_probe() -> float:
    """Seconds a fixed piece of work takes now: the mix the workloads run.

    Python integer mixing as in the rng, many one-row products with a
    finiteness check as in per-row evaluation, and a few 64x256 by
    256x256 products as in training.
    """
    rng = np.random.default_rng(0)
    row, w32 = rng.normal(size=(1, 32)), rng.normal(size=(32, 32))
    batch, w256 = rng.normal(size=(64, 256)), rng.normal(size=(256, 256))
    t0 = time.perf_counter()
    z, table = 0, {}
    for i in range(100_000):
        z = (z + 0x9E3779B97F4A7C15 * i) & 0xFFFFFFFFFFFFFFFF
        table[i & 255] = z ^ (z >> 31)
    for _ in range(3000):
        np.all(np.isfinite(row @ w32.T))
    for _ in range(40):
        (batch @ w256).sum()
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seen: int
    unseen: int
    dim: int
    sem: int
    train_per_class: int
    test_per_class: int
    epochs: int
    batch: int = 64
    sigma: float = 0.05
    via_cli: bool = False
    input_sets: int = 1  # distinct data seeds one run cycles through


WORKLOADS = {w.name: w for w in (
    # ROADMAP scale B cut to ~5 s per repetition: 256-dim rows make training
    # (mlp, linalg) and data generation (rng) the cost; evaluation is small.
    Workload("train_heavy", "256-dim rows and 60 epochs: training (mlp, linalg) and the rng "
             "dominate, evaluation is about 5% of a repetition",
             seen=20, unseen=5, dim=256, sem=64, train_per_class=100, test_per_class=20,
             epochs=60),
    # 8,000 test rows against 80 classes: the per-row predict path and the
    # O(N*C) per_class_top1 scan dominate; training takes about 0.05 s.
    Workload("eval_heavy", "8,000 test rows over 80 classes: per-row gating, classification "
             "and scoring dominate, training is small",
             seen=60, unseen=20, dim=32, sem=32, train_per_class=10, test_per_class=100,
             epochs=20),
    # The README quick start through sdgzsl.cli.main, the only workload that
    # writes and reads dataset, checkpoint and report files; its small
    # shapes make per-call overhead, not BLAS, the cost.
    Workload("cli_default", "README quick start through the CLI at its defaults: file I/O, "
             "hashing and per-call overhead, over four seeds",
             seen=10, unseen=3, dim=32, sem=16, train_per_class=50, test_per_class=20,
             epochs=100, via_cli=True, input_sets=4),
)}


def data_seed(seed: int, k: int, w: Workload) -> int:
    return seed * w.input_sets + k


def train_seed(dseed: int) -> int:
    return dseed + 1


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class StageFailed(Exception):
    """A stage of the program failed; the repetition stops there."""


class SpeedMarks:
    """Probe times taken at stage boundaries; stage k lies between marks k and k+1."""

    def __init__(self, first: float):
        self.probes = [first]

    def mark(self) -> None:
        self.probes.append(speed_probe())

    def factors(self) -> list[float]:
        """Reference seconds per wall second, for each stage."""
        p = self.probes
        return [REFERENCE_PROBE_S / (0.5 * (a + b)) for a, b in zip(p, p[1:])]


@dataclass
class Rep:
    data_seed: int
    marks: SpeedMarks = field(default_factory=lambda: SpeedMarks(REFERENCE_PROBE_S))
    gen_s: float = 0.0  # wall seconds of each stage
    load_s: float = 0.0  # cli_default: the dataset load that starts train, timed once
    train_s: float = 0.0
    eval_s: float = 0.0
    train_rows: int = 0
    eval_rows: int = 0
    epochs: int = 0
    test_rows: int = 0
    ops: dict = field(default_factory=dict)  # operation -> None or failure message
    digests: dict = field(default_factory=dict)
    near_rows: dict = field(default_factory=dict)
    h_min: float = 0.0
    bacc_min: float = 0.0

    def ok(self, op: str) -> None:
        self.ops.setdefault(op, None)

    def fail(self, op: str, message: str) -> None:
        self.ops[op] = message

    @property
    def completed(self) -> bool:
        return bool(self.ops) and all(m is None for m in self.ops.values())

    @property
    def wall_s(self) -> float:
        """Raw gen -> train -> calibrate -> eval time."""
        return self.gen_s + self.train_s + self.eval_s

    def reference_s(self) -> dict:
        """Stage times in reference seconds (a completed repetition only)."""
        f_gen, f_train, f_eval = self.marks.factors()
        out = {"setup": (self.gen_s + self.load_s) * f_gen, "train": self.train_s * f_train,
               "eval": self.eval_s * f_eval}
        out["total"] = self.gen_s * f_gen + out["train"] + out["eval"]
        return out


def _stage(rep: Rep, op: str, fn, *args):
    try:
        result = fn(*args)
    except Exception as exc:  # any failure of the program under test is a failed operation
        rep.fail(op, "".join(traceback.format_exception_only(exc)).strip())
        raise StageFailed(op) from exc
    rep.ok(op)
    return result


def _cli(rep: Rep, op: str, argv: list[str]) -> None:
    captured = io.StringIO()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = sdgzsl.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception:  # a crash with a traceback is a failed operation
        code = traceback.format_exc()
    if code != 0:
        rep.fail(op, f"sdgzsl {argv[0]} exited with {code}: {captured.getvalue()[-400:]}")
        raise StageFailed(op)
    rep.ok(op)


def _check(rep: Rep, ref: reference.Reference, thresholds: dict, outputs: dict,
           threshold_op: str, report_ops: dict) -> None:
    """Compare thresholds and every report's integer outputs with the reference."""
    problems = reference.compare_thresholds(thresholds, ref.thresholds)
    if problems:
        rep.fail(threshold_op, "; ".join(problems))
    for tag, got in outputs.items():
        want = ref.expected(tag)
        rep.near_rows[tag] = want["near_rows"]
        problems = reference.compare(got, want)
        if problems:
            rep.fail(report_ops[tag], "; ".join(problems[:5]))


def _library_rep(w: Workload, rep: Rep, work: Path, tracer) -> None:
    spec = sdgzsl.SyntheticSpec(w.seen, w.unseen, w.dim, w.sem, w.train_per_class,
                                w.test_per_class, w.sigma, seed=rep.data_seed)
    cfg = sdgzsl.TrainConfig(epochs=w.epochs, batch_size=w.batch, seed=train_seed(rep.data_seed))
    clock = time.perf_counter
    with _installed(tracer):
        t0 = clock()
        ds = _stage(rep, "gen", sdgzsl.generate_synthetic, spec)
        rep.gen_s = clock() - t0
        rep.marks.mark()
        t0 = clock()
        params, _ = _stage(rep, "train", sdgzsl.train, ds, cfg)
        rep.train_s = clock() - t0
        rep.marks.mark()
        t0 = clock()
        th = _stage(rep, "calibrate", sdgzsl.calibrate, params, ds)
        reports = {tag: _stage(rep, f"evaluate:{tag}", sdgzsl.evaluate, params, th, tag, ds)
                   for tag in STRATEGIES}
        reports[reference.BASELINE] = _stage(rep, "evaluate:nogate", sdgzsl.evaluate_baseline,
                                             params, ds)
        rep.eval_s = clock() - t0
        rep.marks.mark()
    n_test = ds.seen_test_x.shape[0] + ds.unseen_test_x.shape[0]
    rep.train_rows, rep.epochs = ds.seen_train_x.shape[0] * w.epochs, w.epochs
    rep.eval_rows, rep.test_rows = 4 * n_test, n_test

    ref = reference.Reference(params, ds, lam=th.lam)
    sizes = ref.class_sizes()
    outputs = {tag: reference.report_outputs(r, sizes) for tag, r in reports.items()}
    _check(rep, ref, {k: getattr(th, k) for k in THRESHOLD_KEYS}, outputs, "calibrate",
           {tag: f"evaluate:{tag}" for tag in TAGS})
    th_path = sdgzsl.save_thresholds(th, work / "thresholds.kv")
    rep.digests["thresholds.kv"] = sha256(th_path.read_bytes())
    for tag, r in reports.items():
        rep.digests[f"report_{tag}.kv"] = sha256(sdgzsl.pipeline.render_report_kv(r).encode())
    rep.h_min = min(reports[t].h for t in STRATEGIES)
    rep.bacc_min = min(reports[t].balanced_gate_accuracy() for t in STRATEGIES)


def _cli_rep(w: Workload, rep: Rep, work: Path, tracer) -> None:
    data, run = work / "data", work / "run"
    gen = ["gen", "--seen", str(w.seen), "--unseen", str(w.unseen), "--dim", str(w.dim),
           "--sem", str(w.sem), "--sigma", str(w.sigma), "--seed", str(rep.data_seed),
           "--train-per-class", str(w.train_per_class), "--test-per-class", str(w.test_per_class),
           "--out", str(data)]
    train = ["train", "--data", str(data), "--out", str(run), "--epochs", str(w.epochs),
             "--batch", str(w.batch), "--seed", str(train_seed(rep.data_seed))]
    evaluate = ["eval", "--data", str(data), "--ckpt", str(run / "model.ckpt"), "--out", str(run),
                "--strategy", "all", "--sweep"]
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    clock = time.perf_counter
    with _installed(tracer):
        t0 = clock()
        with span("cli.gen"):
            _cli(rep, "gen", gen)
        rep.gen_s = clock() - t0
        # set-up also covers train's first step, loading the dataset; time
        # that call once here, untraced only (traced, it would be one more load)
        t0 = clock()
        ds = None if tracer else _stage(rep, "gen", sdgzsl.load_dataset, data)
        rep.load_s = clock() - t0
        rep.marks.mark()
        t0 = clock()
        with span("cli.train"):
            _cli(rep, "train", train)
        rep.train_s = clock() - t0
        rep.marks.mark()
        t0 = clock()
        with span("cli.eval"):
            _cli(rep, "eval", evaluate)
        rep.eval_s = clock() - t0
        rep.marks.mark()
    if ds is None:
        ds = _stage(rep, "gen", sdgzsl.load_dataset, data)
    epochs = len((run / "loss.csv").read_text().splitlines()) - 1
    n_test = ds.seen_test_x.shape[0] + ds.unseen_test_x.shape[0]
    rep.train_rows, rep.epochs = ds.seen_train_x.shape[0] * epochs, epochs
    rep.eval_rows, rep.test_rows = 4 * n_test, n_test

    params, _ = sdgzsl.load_checkpoint(run / "model.ckpt")
    th_text = (run / "thresholds.kv").read_text()
    th = {k: float(v) for k, v in (line.split("=", 1) for line in th_text.splitlines())}
    ref = reference.Reference(params, ds, lam=th["lambda"])
    sizes = ref.class_sizes()
    texts = {tag: (run / f"report_{tag}.kv").read_text() for tag in TAGS}
    report_ops = {tag: f"report_{tag}.kv" for tag in TAGS}
    for op in ("thresholds.kv", *report_ops.values()):
        rep.ok(op)
    _check(rep, ref, th, {tag: reference.kv_outputs(t, sizes) for tag, t in texts.items()},
           "thresholds.kv", report_ops)
    rep.digests["thresholds.kv"] = sha256(th_text.encode())
    for tag, text in texts.items():
        rep.digests[f"report_{tag}.kv"] = sha256(text.encode())
    kv = {tag: dict(line.split("=", 1) for line in t.splitlines()) for tag, t in texts.items()}
    rep.h_min = min(float(kv[t]["h"]) for t in STRATEGIES)
    rep.bacc_min = min(float(kv[t]["balanced_gate_accuracy"]) for t in STRATEGIES)


@contextlib.contextmanager
def _installed(tracer):
    if tracer is None:
        yield
        return
    undo = tracing.install(tracer, layers.TARGETS, "sdgzsl")
    try:
        yield
    finally:
        tracing.uninstall(undo)


def run_rep(w: Workload, dseed: int, work: Path, tracer=None, first_probe=None) -> Rep:
    """One gen -> train -> calibrate -> eval repetition plus its output checks.

    ``first_probe`` is a speed probe taken just before; one is taken if not.
    """
    rep = Rep(dseed, SpeedMarks(speed_probe() if first_probe is None else first_probe))
    work.mkdir(parents=True)
    try:
        (_cli_rep if w.via_cli else _library_rep)(w, rep, work, tracer)
    except StageFailed:
        pass
    except Exception:  # an output that cannot be read back or checked is a failure
        rep.fail("check", traceback.format_exc(limit=3))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return rep


@dataclass
class RunResult:
    untraced: list
    traced: list
    tracers: list
    attempted: int
    failed: int
    failures: list
    digests: dict


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, root: Path) -> RunResult:
    """Repeat ``w`` until ``seconds`` are spent (at least twice per input set)."""
    clock = time.perf_counter
    deadline = clock() + seconds
    untraced, traced, tracers, cycle_s = [], [], [], []
    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=root))
    probe = speed_probe()

    def timed_rep(*args) -> Rep:
        nonlocal probe
        rep = run_rep(*args, first_probe=probe)
        probe = rep.marks.probes[-1]
        return rep

    try:
        i = 0
        while True:
            t0 = clock()
            dseed = data_seed(seed, i % w.input_sets, w)
            untraced.append(timed_rep(w, dseed, work / f"{i}"))
            if trace:
                tracer = tracing.Tracer()
                traced.append(timed_rep(w, dseed, work / f"{i}t", tracer))
                tracers.append(tracer)
            cycle_s.append(clock() - t0)
            i += 1
            if i >= 2 * w.input_sets and clock() + statistics.median(cycle_s) > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failures, digests = 0, [], {}
    for rep in untraced + traced:
        attempted += len(rep.ops)
        failures += [f"seed {rep.data_seed} {op}: {m}" for op, m in rep.ops.items() if m]
        for name, digest in rep.digests.items():
            key = f"{rep.data_seed}/{name}"
            if key in digests:
                attempted += 1
                if digests[key] != digest:
                    failures.append(f"{key}: digest {digest} differs from {digests[key]}")
            else:
                digests[key] = digest
    return RunResult(untraced, traced, tracers, attempted, len(failures), failures, digests)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _quality(reps) -> tuple[float, float]:
    """Mean over data seeds of the lowest H and balanced gate accuracy."""
    first = {}
    for rep in reps:
        if rep.completed:
            first.setdefault(rep.data_seed, rep)
    if not first:
        return 0.0, 0.0
    return (statistics.fmean(r.h_min for r in first.values()),
            statistics.fmean(r.bacc_min for r in first.values()))


def end_to_end(result: RunResult, import_s: float, peak_rss_mb: float) -> dict:
    """Run-level metrics: medians over the untraced repetitions, in reference
    seconds (``import_s`` is already scaled)."""
    done = [r for r in result.untraced if r.completed]
    ref = [r.reference_s() for r in done]
    h_min, bacc_min = _quality(result.untraced)
    return {
        "setup_s": import_s + _median(t["setup"] for t in ref),
        "train_rows_per_s": _median(r.train_rows / t["train"] for r, t in zip(done, ref)),
        "eval_rows_per_s": _median(r.eval_rows / t["eval"] for r, t in zip(done, ref)),
        "total_s": _median(t["total"] for t in ref),
        "peak_rss_mb": peak_rss_mb,
        # printed, not bounded: wall time, and quality that varies with the seed
        "total_wall_s": _median(r.wall_s for r in done),
        "h_min": h_min,
        "gate_bacc_min": bacc_min,
        "error_rate": result.failed / max(result.attempted, 1),
    }


def per_layer(result: RunResult) -> dict:
    done = [(r, t) for r, t in zip(result.traced, result.tracers) if r.completed]
    per_rep = [layers.per_layer_metrics(t, r.epochs, r.test_rows,
                                        r.reference_s()["total"] / r.wall_s) for r, t in done]
    out = {name: _median(m[name] for m in per_rep) for name in per_rep[0]} if per_rep else {}
    h_min, bacc_min = _quality(result.traced)
    untraced_total = _median(r.reference_s()["total"] for r in result.untraced if r.completed)
    traced_total = _median(r.reference_s()["total"] for r, _ in done)
    out["pipeline.h_min"] = h_min
    out["pipeline.gate_bacc_min"] = bacc_min
    out["trace.overhead_ratio"] = traced_total / untraced_total if untraced_total else 0.0
    return {name: out.get(name, 0.0) for name in layers.PER_LAYER_UNITS}
