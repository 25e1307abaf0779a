"""Command-line front end: generate data, train the mapper, evaluate gates.

Subcommands::

    sdgzsl gen   --seen 10 --unseen 3 --dim 32 --sem 16 --sigma 0.05 --seed 7 --out data/
    sdgzsl train --data data/ --out run/ [--lr --epochs --batch --seed --hidden]
    sdgzsl eval  --data data/ --ckpt run/model.ckpt --out run/ [--strategy all|ol|dl|ws]
                 [--sweep] [--lam 1.0] [--calibration-split train|test]

Exit codes: 0 success, 1 runtime failure, 2 usage error.  Every value can
also come from a JSON config file (``--config``); explicit flags win over
the config file, which wins over built-in defaults.  Output files contain
no timestamps or absolute paths, so identical seeds give byte-identical
artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from .data import (
    EMBEDDING_FILES,
    FEATURE_FILES,
    LABEL_FILES,
    SyntheticSpec,
    _is_finite,
    _is_integer,
    generate_synthetic,
    load_dataset,
    save_dataset,
    summarize,
)
from .errors import ConfigError, GzslError, ValidationError
from .gates import calibrate, save_thresholds
from .mlp import TrainConfig, load_checkpoint, save_checkpoint, train
from .pipeline import STRATEGIES, evaluate_sweep, render_report_kv, render_report_text

_GEN_DEFAULTS = {
    "seen": 10, "unseen": 3, "dim": 32, "sem": 16, "sigma": 0.05, "seed": 7,
    "train_per_class": 50, "test_per_class": 20, "norm": 1.0,
}
_TRAIN_DEFAULTS = {"lr": 1e-2, "epochs": 100, "batch": 64, "seed": 0, "hidden": "default"}
_EVAL_DEFAULTS = {"strategy": "all", "lam": 1.0, "calibration_split": "train", "sweep": False}


def _config_value(key: str, value, default):
    """``value`` coerced to the type of ``default``, or None if it has another type.

    An int is accepted where a float is expected; a bool is never a number;
    ``hidden`` also takes a list of ints.
    """
    if key == "hidden" and isinstance(value, list):
        return value if all(_is_integer(v) for v in value) else None
    if isinstance(default, (bool, str)):
        return value if type(value) is type(default) else None
    if isinstance(default, int):
        return value if _is_integer(value) else None
    if isinstance(value, float):
        return value
    return float(value) if _is_integer(value) and _is_finite(value) else None


def _merge(defaults: dict, args: argparse.Namespace, parser) -> dict:
    """flags > config file > defaults."""
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            loaded = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"--config {config_path}: {exc}")
        if not isinstance(loaded, dict):
            parser.error(f"--config {config_path}: expected a JSON object")
        unknown = set(loaded) - set(defaults)
        if unknown:
            parser.error(f"--config {config_path}: unknown keys {sorted(unknown)}")
        for key, raw in loaded.items():
            value = _config_value(key, raw, defaults[key])
            if value is None:
                parser.error(f"--config {config_path}: {key}={raw!r} does not match the "
                             f"type of its default {defaults[key]!r}")
            merged[key] = value
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _parse_hidden(text: str, parser) -> list[int] | None:
    if text == "default":
        return None
    if text == "linear":
        return []
    try:
        return [int(tok) for tok in text.split(",")]  # an empty size ("4,,5") fails here
    except ValueError:
        parser.error(f"--hidden expects 'default', 'linear', or comma-separated ints, got {text!r}")


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _dataset_fingerprint(data_dir: Path) -> str:
    """sha256 over the name and sha256 of each file ``save_dataset`` writes.

    Other files in the directory, such as reports an ``eval --out`` there
    wrote, stay out of it, so a rerun's provenance does not change.
    """
    names = ["meta.json", *FEATURE_FILES.values(), *LABEL_FILES.values(),
             *EMBEDDING_FILES.values()]
    digest = hashlib.sha256()
    for name in sorted(names):
        digest.update(name.encode())
        digest.update(_sha256_file(data_dir / name).encode())
    return digest.hexdigest()


def cmd_gen(args, parser) -> int:
    cfg = _merge(_GEN_DEFAULTS, args, parser)
    if args.out is None:
        parser.error("gen requires --out")
    spec = SyntheticSpec(
        n_seen_classes=cfg["seen"],
        n_unseen_classes=cfg["unseen"],
        feature_dim=cfg["dim"],
        semantic_dim=cfg["sem"],
        per_class_train=cfg["train_per_class"],
        per_class_test=cfg["test_per_class"],
        cluster_spread=cfg["sigma"],
        seed=cfg["seed"],
        unified_norm=cfg["norm"],
    )
    try:
        spec.validate()
    except ValidationError as exc:
        parser.error(str(exc))
    ds = generate_synthetic(spec)
    out = save_dataset(ds, args.out)
    print(f"wrote dataset to {out}")
    print(summarize(ds))
    return 0


def cmd_train(args, parser) -> int:
    cfg = _merge(_TRAIN_DEFAULTS, args, parser)
    if args.data is None or args.out is None:
        parser.error("train requires --data and --out")
    hidden = cfg["hidden"]
    if isinstance(hidden, str):
        hidden = _parse_hidden(hidden, parser)
    train_cfg = TrainConfig(
        learning_rate=cfg["lr"],
        epochs=cfg["epochs"],
        batch_size=cfg["batch"],
        seed=cfg["seed"],
        hidden_sizes=hidden,
    )
    try:
        train_cfg.validate()
    except ValidationError as exc:
        parser.error(str(exc))

    dataset = load_dataset(args.data)
    t0 = time.perf_counter()
    params, history = train(dataset, train_cfg)
    elapsed = time.perf_counter() - t0

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = save_checkpoint(params, out / "model.ckpt", seed=train_cfg.seed,
                           unified_norm=dataset.unified_norm)
    loss_csv = out / "loss.csv"
    loss_csv.write_text(
        "epoch,loss\n" + "".join(f"{i},{loss!r}\n" for i, loss in enumerate(history))
    )
    print(f"trained {len(history)} epochs in {elapsed:.2f}s, final loss {history[-1]:.6g}")
    print(f"checkpoint: {ckpt}")
    print(f"loss log:   {loss_csv}")
    return 0


def cmd_eval(args, parser) -> int:
    cfg = _merge(_EVAL_DEFAULTS, args, parser)
    if args.data is None or args.ckpt is None or args.out is None:
        parser.error("eval requires --data, --ckpt, and --out")
    if cfg["strategy"] not in (*STRATEGIES, "all"):
        parser.error(f"--strategy must be one of {STRATEGIES + ('all',)}, got {cfg['strategy']!r}")
    if cfg["calibration_split"] not in ("train", "test"):
        parser.error(f"--calibration-split must be 'train' or 'test', got {cfg['calibration_split']!r}")
    if not (_is_finite(cfg["lam"]) and cfg["lam"] >= 0):
        parser.error(f"--lam must be a finite number >= 0, got {cfg['lam']!r}")

    dataset = load_dataset(args.data)
    mapper, header = load_checkpoint(args.ckpt)
    if mapper.in_dim != dataset.feature_dim or mapper.out_dim != dataset.semantic_dim:
        raise ConfigError(
            f"checkpoint maps {mapper.in_dim}->{mapper.out_dim} but dataset needs "
            f"{dataset.feature_dim}->{dataset.semantic_dim}"
        )
    l = header.get("l")  # null: saved without a norm, so there is nothing to compare
    if l is not None and l != dataset.unified_norm:
        raise ConfigError(f"checkpoint was trained at unified norm {l!r} but dataset has "
                          f"{dataset.unified_norm!r}")

    split = "seen_train" if cfg["calibration_split"] == "train" else "seen_test"
    thresholds = calibrate(mapper, dataset, lam=cfg["lam"], split=split)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_thresholds(thresholds, out / "thresholds.kv")

    provenance = {
        "lambda": repr(thresholds.lam),
        "l": repr(thresholds.l),
        "calibration_split": split,
        "train_seed": header.get("seed"),
        "dataset_sha256": _dataset_fingerprint(Path(args.data)),
        "checkpoint_sha256": _sha256_file(Path(args.ckpt)),
    }

    run_sweep = bool(cfg["sweep"]) or cfg["strategy"] == "all"
    reports = evaluate_sweep(mapper, thresholds, dataset)
    if not run_sweep:
        reports = [r for r in reports if r.strategy == cfg["strategy"]]
    print(f"evaluated {len(reports)} reports in {reports[0].runtime:.2f}s")

    for report in reports:
        (out / f"report_{report.strategy}.txt").write_text(render_report_text(report))
        (out / f"report_{report.strategy}.kv").write_text(
            render_report_kv(report, {**provenance, "strategy": report.strategy})
        )
        print(
            f"{report.strategy:>6}: acc_s={report.acc_s:.4f} acc_u={report.acc_u:.4f} "
            f"h={report.h:.4f} balanced_gate={report.balanced_gate_accuracy():.4f}"
        )

    if run_sweep:
        rows = ["strategy,acc_s,acc_u,h,gate_seen_recall,gate_unseen_recall,balanced_gate_accuracy"]
        for r in reports:
            sr, ur = r.gate_recalls()
            rows.append(
                f"{r.strategy},{r.acc_s!r},{r.acc_u!r},{r.h!r},{sr!r},{ur!r},"
                f"{r.balanced_gate_accuracy()!r}"
            )
        (out / "sweep.csv").write_text("\n".join(rows) + "\n")
        print(f"sweep table: {out / 'sweep.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdgzsl",
        description="Seen/unseen gating in semantic space for generalized zero-shot learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset directory")
    gen.add_argument("--seen", type=int, help="number of seen classes (>= 2)")
    gen.add_argument("--unseen", type=int, help="number of unseen classes")
    gen.add_argument("--dim", type=int, help="feature dimension")
    gen.add_argument("--sem", type=int, help="semantic embedding dimension")
    gen.add_argument("--sigma", type=float, help="per-cluster Gaussian spread")
    gen.add_argument("--seed", type=int, help="generator seed")
    gen.add_argument("--train-per-class", type=int, dest="train_per_class")
    gen.add_argument("--test-per-class", type=int, dest="test_per_class")
    gen.add_argument("--norm", type=float, help="unified embedding norm")
    gen.add_argument("--config", help="JSON config file (flags override it)")
    gen.add_argument("--out", help="dataset directory to write")
    gen.set_defaults(func=cmd_gen)

    tr = sub.add_parser("train", help="train the semantic mapper on seen classes")
    tr.add_argument("--data", help="dataset directory")
    tr.add_argument("--out", help="output directory for checkpoint and loss log")
    tr.add_argument("--lr", type=float, help="SGD learning rate")
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--batch", type=int, help="mini-batch size")
    tr.add_argument("--seed", type=int, help="init/shuffle seed")
    tr.add_argument("--hidden", help="'default', 'linear', or comma-separated sizes")
    tr.add_argument("--config", help="JSON config file (flags override it)")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="calibrate thresholds and evaluate gate strategies")
    ev.add_argument("--data", help="dataset directory")
    ev.add_argument("--ckpt", help="trained mapper checkpoint")
    ev.add_argument("--out", help="output directory for reports")
    ev.add_argument("--strategy", choices=(*STRATEGIES, "all"),
                    help="gate strategy to evaluate, or 'all'")
    ev.add_argument("--sweep", action="store_true", default=None,
                    help="evaluate every strategy plus the no-gate baseline into one table")
    ev.add_argument("--lam", "--lambda", dest="lam", type=float,
                    help="weight of msd in the weighted-sum gate")
    ev.add_argument("--calibration-split", dest="calibration_split",
                    choices=("train", "test"),
                    help="calibrate thresholds on seen train (default) or seen test data")
    ev.add_argument("--config", help="JSON config file (flags override it)")
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (GzslError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a spec that passes validation can still outgrow memory
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
