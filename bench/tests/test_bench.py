"""Self-tests of the benchmark: tiny workloads, the reference check, tracing.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import sdgzsl  # noqa: E402

import harness  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TINY = dict(seen=3, unseen=2, dim=6, sem=4, train_per_class=6, test_per_class=4, epochs=3)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> harness.Workload:
    return dataclasses.replace(harness.WORKLOADS[name], **TINY)


@pytest.fixture
def tiny_workloads(monkeypatch):
    for key in run.BLAS_ENV:
        monkeypatch.setenv(key, "1")
    monkeypatch.setattr(harness, "speed_probe", lambda: harness.REFERENCE_PROBE_S)
    for name in harness.WORKLOADS:
        monkeypatch.setitem(harness.WORKLOADS, name, tiny(name))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_workload_prints_every_metric_with_its_unit(tiny_workloads, capsys, name, trace):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert [(m["name"], m["unit"]) for m in declared] == [
        (k, v["unit"]) for k, v in result["metrics"].items()]
    table = [line.split() for line in lines[:-2]]
    printed = {row[1]: row[3] for row in table}
    assert {m["name"]: m["unit"] for m in declared}.items() <= printed.items()
    if not trace:
        assert {"h_min", "gate_bacc_min", "error_rate"} <= set(printed)
    record = json.loads(lines[-2].removeprefix("record "))
    assert record["digests"] and not record["failures"]


def _tiny_run():
    spec = sdgzsl.SyntheticSpec(3, 2, 6, 4, 6, 4, 0.05, seed=11)
    ds = sdgzsl.generate_synthetic(spec)
    params, _ = sdgzsl.train(ds, sdgzsl.TrainConfig(epochs=3, seed=12))
    return ds, params


def test_reference_matches_the_library_and_catches_a_corrupted_report():
    ds, params = _tiny_run()
    th = sdgzsl.calibrate(params, ds)
    ref = reference.Reference(params, ds)
    sizes = ref.class_sizes()
    assert not reference.compare_thresholds({k: getattr(th, k) for k in harness.THRESHOLD_KEYS},
                                            ref.thresholds)
    for tag in harness.STRATEGIES:
        report = sdgzsl.evaluate(params, th, tag, ds)
        want = ref.expected(tag)
        assert want["near_rows"] == 0
        assert reference.compare(reference.report_outputs(report, sizes), want) == []

        moved = dict(report.gate_confusion)
        seen, unseen = sdgzsl.Domain.SEEN, sdgzsl.Domain.UNSEEN
        moved[(seen, seen)] -= 1
        moved[(seen, unseen)] += 1
        bad = dataclasses.replace(report, gate_confusion=moved)
        assert reference.compare(reference.report_outputs(bad, sizes), want)


def test_a_corrupted_report_is_a_failed_operation(monkeypatch, tmp_path):
    original = sdgzsl.evaluate

    def corrupt(*args, **kwargs):
        report = original(*args, **kwargs)
        key = next(iter(report.per_class_acc))
        n = ref_sizes[key]
        acc = dict(report.per_class_acc)
        acc[key] = (round(acc[key] * n) + 1) % (n + 1) / n
        return dataclasses.replace(report, per_class_acc=acc)

    ds, params = _tiny_run()
    ref_sizes = reference.Reference(params, ds).class_sizes()
    monkeypatch.setattr(sdgzsl, "evaluate", corrupt)
    rep = harness.run_rep(tiny("train_heavy"), 11, tmp_path / "rep", first_probe=0.04)
    failed = {op for op, message in rep.ops.items() if message}
    assert failed == {"evaluate:ol", "evaluate:dl", "evaluate:ws"}


def test_a_digest_that_changes_between_repetitions_is_a_failed_operation(monkeypatch, tmp_path):
    reps = iter([harness.Rep(5, digests={"report_ol.kv": "a"}, ops={"gen": None}),
                 harness.Rep(5, digests={"report_ol.kv": "b"}, ops={"gen": None})])
    monkeypatch.setattr(harness, "run_rep", lambda *args, **kwargs: next(reps))
    result = harness.run_workload(tiny("eval_heavy"), 5, 0, False, tmp_path)
    assert (result.attempted, result.failed) == (3, 1)


def _bindings():
    """Every function binding the tracer may touch, by location."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if not (mod_name == "sdgzsl" or mod_name.startswith("sdgzsl.")):
            continue
        for key, value in vars(mod).items():
            out[(mod_name, key)] = value
            if isinstance(value, dict):
                out.update({(mod_name, key, k): v for k, v in value.items()})
            elif isinstance(value, type):
                out.update({(mod_name, key, "attr", k): v for k, v in vars(value).items()})
    return out


def test_tracing_wraps_every_binding_and_restores_them():
    before = _bindings()
    matmul, gate_ol = sdgzsl.linalg.matmul, sdgzsl.gates.gate_ol
    undo = tracing.install(tracing.Tracer(), layers.TARGETS, "sdgzsl")
    try:
        assert sdgzsl.mlp.matmul is sdgzsl.linalg.matmul is sdgzsl.matmul
        assert sdgzsl.mlp.matmul is not matmul
        assert sdgzsl.gates.GATE_FUNCTIONS["ol"] is sdgzsl.gates.gate_ol is not gate_ol
        assert sdgzsl.SplitMix64.gauss_array is not before[("sdgzsl.rng", "SplitMix64", "attr",
                                                             "gauss_array")]
    finally:
        tracing.uninstall(undo)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_is_duration_minus_time_covered_by_children():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0])
    t = tracing.Tracer(clock=lambda: next(ticks))
    hot = t.wrap_hot("hot", lambda: None)
    with t.span("a") as a:  # 0 .. 10
        with t.span("b") as b:  # 1 .. 4, with a hot call 2 .. 3
            hot()
        hot()  # 5 .. 7
    assert a.duration == 10.0 and b.duration == 3.0
    assert t.self_time(b) == 3.0 - 1.0
    assert t.self_time(a) == 10.0 - 3.0 - 2.0
    assert tracing.covered_length([(0, 2), (1, 3), (5, 6), (9, 12)], 0, 10) == 5.0


def test_each_stage_is_scaled_by_the_probes_on_either_side_of_it():
    ref = harness.REFERENCE_PROBE_S
    marks = harness.SpeedMarks(ref)
    marks.probes += [3 * ref, ref, ref / 2]
    rep = harness.Rep(1, marks, gen_s=1.0, load_s=0.5, train_s=2.0, eval_s=3.0)
    assert rep.reference_s() == {"setup": 0.75, "train": 1.0, "eval": 4.0, "total": 5.5}
    assert rep.wall_s == 6.0
