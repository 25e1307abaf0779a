"""Which sdgzsl functions the traced run wraps, and the per-layer metrics.

Stage-level functions get spans; per-row and per-batch functions are
aggregated (see ``tracing``).  ``per_layer_metrics`` turns one traced
repetition into the per-layer numbers named in ``BENCHMARK.json``.
"""

from __future__ import annotations

from pathlib import Path

from tracing import Target, Tracer


def _rows(args, kwargs, result):
    return {"rows": result.shape[0]}


def _values(args, kwargs, result):
    return {"values": result.size}


def _flops(args, kwargs, result):
    a, b = args
    m, k = a.shape
    return {"flops": 2 * m * k * b.shape[1]}


def _dir_bytes(path) -> int:
    return sum(f.stat().st_size for f in Path(path).iterdir() if f.is_file())


def _bytes_written(args, kwargs, result):
    return {"bytes": _dir_bytes(result)}


def _bytes_read(args, kwargs, result):
    return {"bytes": _dir_bytes(args[0])}


TARGETS = (
    Target("sdgzsl.rng:SplitMix64.gauss_array", "rng.gauss_array", True, _values),
    Target("sdgzsl.rng:SplitMix64.uniform_array", "rng.uniform_array", True),
    Target("sdgzsl.rng:SplitMix64.permutation", "rng.permutation", True),
    Target("sdgzsl.data:generate_synthetic", "data.generate_synthetic", False),
    Target("sdgzsl.data:save_dataset", "data.save_dataset", False, _bytes_written),
    Target("sdgzsl.data:load_dataset", "data.load_dataset", False, _bytes_read),
    Target("sdgzsl.linalg:matmul", "linalg.matmul", True, _flops),
    Target("sdgzsl.linalg:check_finite", "linalg.check_finite", True),
    Target("sdgzsl.mlp:train", "mlp.train", False),
    Target("sdgzsl.mlp:backward", "mlp.backward", True),
    Target("sdgzsl.mlp:mse_loss", "mlp.mse_loss", True),
    Target("sdgzsl.mlp:forward", "mlp.forward", True),
    Target("sdgzsl.mlp:forward_batch", "mlp.forward_batch", True, _rows),
    Target("sdgzsl.mlp:save_checkpoint", "mlp.save_checkpoint", False),
    Target("sdgzsl.mlp:load_checkpoint", "mlp.load_checkpoint", False),
    Target("sdgzsl.gates:calibrate", "gates.calibrate", False),
    Target("sdgzsl.gates:min_semantic_distance", "gates.min_semantic_distance", True),
    Target("sdgzsl.gates:gate_statistics", "gates.gate_statistics", True),
    Target("sdgzsl.gates:gate_ol", "gates.rule", True),
    Target("sdgzsl.gates:gate_dl", "gates.rule", True),
    Target("sdgzsl.gates:gate_ws", "gates.rule", True),
    Target("sdgzsl.classify:NearestEmbeddingClassifier.classify", "classify.classify", True),
    Target("sdgzsl.pipeline:predict", "pipeline.predict", True),
    Target("sdgzsl.pipeline:evaluate", "pipeline.evaluate", False),
    Target("sdgzsl.pipeline:evaluate_baseline", "pipeline.evaluate_baseline", False),
    Target("sdgzsl.pipeline:per_class_top1", "pipeline.per_class_top1", False),
)

# metric name -> unit, in BENCHMARK.json order
PER_LAYER_UNITS = {
    "rng.gauss_array.calls": "count",
    "rng.gauss_array.values": "count",
    "rng.gauss_array.s": "s",
    "rng.uniform_array.s": "s",
    "rng.permutation.calls": "count",
    "rng.permutation.s": "s",
    "data.generate_synthetic.s": "s",
    "data.generate_synthetic.self_s": "s",
    "data.save_dataset.s": "s",
    "data.load_dataset.s": "s",
    "data.bytes_written": "B",
    "data.bytes_read": "B",
    "linalg.matmul.calls": "count",
    "linalg.matmul.s": "s",
    "linalg.matmul.flops_computed": "flop",
    "linalg.check_finite.calls": "count",
    "linalg.check_finite.s": "s",
    "mlp.train.s": "s",
    "mlp.epoch.s": "s",
    "mlp.backward.calls": "count",
    "mlp.backward.s": "s",
    "mlp.mse_loss.s": "s",
    "mlp.forward_batch.calls": "count",
    "mlp.forward_batch.rows": "count",
    "mlp.forward_batch.s": "s",
    "mlp.save_checkpoint.s": "s",
    "mlp.load_checkpoint.s": "s",
    "gates.calibrate.s": "s",
    "gates.calibrate.self_s": "s",
    "gates.min_semantic_distance.calls": "count",
    "gates.min_semantic_distance.s": "s",
    "gates.gate_statistics.calls": "count",
    "gates.rule.calls": "count",
    "gates.rule.s": "s",
    "classify.classify.calls": "count",
    "classify.classify.s": "s",
    "pipeline.evaluate.s": "s",
    "pipeline.evaluate.self_s": "s",
    "pipeline.evaluate_baseline.s": "s",
    "pipeline.predict.calls": "count",
    "pipeline.per_class_top1.s": "s",
    "pipeline.projections_per_test_row": "ratio",
    "pipeline.h_min": "ratio",
    "pipeline.gate_bacc_min": "ratio",
    "cli.gen.s": "s",
    "cli.train.s": "s",
    "cli.eval.s": "s",
    "trace.overhead_ratio": "ratio",
}

# per-layer metrics that are zero by construction on the library workloads
LIBRARY_NOT_APPLICABLE = {
    **dict.fromkeys(("data.save_dataset.s", "data.load_dataset.s", "data.bytes_written",
                     "data.bytes_read"), "the library workloads keep the dataset in memory"),
    **dict.fromkeys(("mlp.save_checkpoint.s", "mlp.load_checkpoint.s"),
                    "the library workloads keep the mapper in memory"),
    **dict.fromkeys(("cli.gen.s", "cli.train.s", "cli.eval.s"), "only cli_default drives the CLI"),
}


def per_layer_metrics(tracer: Tracer, epochs: int, test_rows: int, speed: float) -> dict:
    """Per-layer numbers of one traced repetition (without the run-level ones).

    ``epochs`` is the training epoch count, ``test_rows`` the number of
    test rows one ``evaluate`` call scores, and ``speed`` scales wall
    seconds to reference seconds (see ``harness``).
    """
    calls, seconds, counters = {}, {}, {}
    for (_, _, name), agg in tracer.calls.items():
        calls[name] = calls.get(name, 0) + agg.count
        seconds[name] = seconds.get(name, 0.0) + agg.seconds
        for key, value in agg.counters.items():
            counters[(name, key)] = counters.get((name, key), 0) + value
    span_s, self_s = {}, {}
    for sp in tracer.spans:
        span_s[sp.name] = span_s.get(sp.name, 0.0) + sp.duration
        self_s[sp.name] = self_s.get(sp.name, 0.0) + tracer.self_time(sp)
        for key, value in sp.counters.items():
            counters[(sp.name, key)] = counters.get((sp.name, key), 0) + value

    projected = sum(agg.counters.get("rows", 0) for (sid, _, name), agg in tracer.calls.items()
                    if name == "mlp.forward_batch" and tracer.within(sid, "pipeline.evaluate"))
    n_evaluate = sum(1 for sp in tracer.spans if sp.name == "pipeline.evaluate")

    out = {}
    for metric in PER_LAYER_UNITS:
        layer, _, what = metric.rpartition(".")
        if what == "calls":
            out[metric] = calls.get(layer, 0)
        elif what == "s":
            out[metric] = span_s.get(layer, seconds.get(layer, 0.0))
        elif what == "self_s":
            out[metric] = self_s.get(layer, 0.0)
    out["rng.gauss_array.values"] = counters.get(("rng.gauss_array", "values"), 0)
    out["data.bytes_written"] = counters.get(("data.save_dataset", "bytes"), 0)
    out["data.bytes_read"] = counters.get(("data.load_dataset", "bytes"), 0)
    out["linalg.matmul.flops_computed"] = counters.get(("linalg.matmul", "flops"), 0)
    out["mlp.forward_batch.rows"] = counters.get(("mlp.forward_batch", "rows"), 0)
    out["mlp.epoch.s"] = out["mlp.train.s"] / epochs
    out["pipeline.projections_per_test_row"] = projected / (n_evaluate * test_rows) if n_evaluate else 0.0
    return {k: v * speed if PER_LAYER_UNITS[k] == "s" else v for k, v in out.items()}
