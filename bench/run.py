"""sdgzsl benchmark: one workload per process, seeded, checked, optionally traced.

    python3 bench/run.py --workload train_heavy --seed 1 --seconds 30 --trace 0

Run from the repository root.  The library is imported from ``src/`` of
the checkout this file sits in.  With ``--trace 0`` the last line of
stdout is a JSON object whose metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics.
Lines before it give a human-readable table (every metric with its unit)
and one ``record`` JSON line with the environment, every timing sample,
the sha256 digests of every rendered ``report_*.kv`` and ``thresholds.kv``,
near-tie row counts and any failure messages.  Times are medians over
the run's repetitions in reference seconds, wall time scaled by a fixed
speed probe (see ``harness`` for why); ``total_wall_s`` is the raw one.

BLAS is pinned to one thread before numpy is imported: on a 2-core
machine that was no slower than two threads and is far steadier.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORTS = 5  # times set-up imports sdgzsl afresh; the best one counts


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        "seed": seed,
    }


def time_import(package: str):
    """Best of ``IMPORTS`` fresh imports of ``package``; returns (seconds, module).

    Modules of ``package`` imported before the call are put back afterwards,
    so callers holding them keep seeing the modules ``sys.modules`` serves.
    """
    def ours():
        return [n for n in sys.modules if n == package or n.startswith(package + ".")]

    saved = {name: sys.modules[name] for name in ours()}
    best = float("inf")
    for _ in range(IMPORTS):
        for name in ours():
            del sys.modules[name]
        t0 = time.perf_counter()
        module = importlib.import_module(package)
        best = min(best, time.perf_counter() - t0)
    if saved:
        for name in ours():
            del sys.modules[name]
        sys.modules.update(saved)
        module = saved[package]
    return best, module


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    for key in BLAS_ENV:
        os.environ[key] = BLAS_THREADS
    src = ROOT / "src"
    for path in (src, BENCH_DIR):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import numpy  # noqa: F401  (set-up times the import of sdgzsl, not of numpy)

    try:
        import_s, sdgzsl = time_import("sdgzsl")
    except ImportError as exc:
        print(f"cannot import sdgzsl from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(sdgzsl.__file__).resolve().is_relative_to(src):
        print(f"sdgzsl was imported from {sdgzsl.__file__}, not from {src}", file=sys.stderr)
        return 2

    import harness
    import layers

    import_s *= harness.REFERENCE_PROBE_S / harness.speed_probe()

    args = parse_args(argv, harness.WORKLOADS)
    w = harness.WORKLOADS[args.workload]
    result = harness.run_workload(w, args.seed, args.seconds, bool(args.trace), ROOT)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    e2e = harness.end_to_end(result, import_s, peak_rss_mb)
    e2e_units = {"setup_s": "s", "train_rows_per_s": "rows/s", "eval_rows_per_s": "rows/s",
                 "total_s": "s", "peak_rss_mb": "MB", "total_wall_s": "s", "h_min": "ratio",
                 "gate_bacc_min": "ratio", "error_rate": "ratio"}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values, units = harness.per_layer(result), layers.PER_LAYER_UNITS
        reported = [m["name"] for m in bench["per_layer"]]
    else:
        values, units = e2e, e2e_units
        reported = [m["name"] for m in bench["end_to_end"]]

    not_applicable = layers.LIBRARY_NOT_APPLICABLE if args.trace and not w.via_cli else {}
    for name, value in values.items():
        note = f"  (n/a: {not_applicable[name]})" if name in not_applicable else ""
        print(f"{w.name:>12} {name:<36} {value:>16.6g} {units[name]}{note}")
    record = {
        "workload": w.name,
        "environment": environment(args.seed),
        "repetitions": {"untraced": len(result.untraced), "traced": len(result.traced)},
        "wall_samples_s": {stage: [getattr(r, stage) for r in result.untraced if r.completed]
                           for stage in ("gen_s", "load_s", "train_s", "eval_s", "wall_s")},
        "speed_probes_s": [r.marks.probes for r in result.untraced if r.completed],
        "end_to_end": e2e,
        "digests": result.digests,
        "near_tie_rows": {f"{r.data_seed}/{tag}": n for r in result.untraced
                          for tag, n in r.near_rows.items() if n},
        "failures": result.failures,
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in reported},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
