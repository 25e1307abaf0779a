import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sdgzsl
from sdgzsl import forward, load_checkpoint, load_dataset, load_thresholds, train
from sdgzsl.cli import main
from sdgzsl.pipeline import STRATEGIES


def run_cli(*argv):
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


GEN_FLAGS = ["--seen", 10, "--unseen", 3, "--dim", 32, "--sem", 16,
             "--sigma", 0.05, "--seed", 7]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One gen + train shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    assert run_cli("gen", *GEN_FLAGS, "--train-per-class", 50, "--test-per-class", 20,
                   "--out", data) == 0
    assert run_cli("train", "--data", data, "--out", run) == 0
    return data, run


class TestGen:
    def test_output_is_loadable(self, workspace):
        data, _ = workspace
        ds = load_dataset(data)
        assert ds.n_seen_classes == 10 and ds.n_unseen_classes == 3

    def test_deterministic_files(self, tmp_path):
        for sub in ("a", "b"):
            assert run_cli("gen", *GEN_FLAGS, "--out", tmp_path / sub) == 0
        for f in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()

    def test_single_seen_class_is_usage_error(self, tmp_path):
        assert run_cli("gen", "--seen", 1, "--out", tmp_path / "x") == 2

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert run_cli("gen", "--bogus", 3, "--out", tmp_path / "x") == 2

    def test_config_value_of_wrong_type_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for bad in ({"seen": "ten"}, {"seen": True}, {"seed": 7.5}, {"sigma": "0.1"},
                    {"norm": 10**400}):
            cfg.write_text(json.dumps(bad))
            assert run_cli("gen", "--config", cfg, "--out", tmp_path / "x") == 2
            assert "does not match the type" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key, text", [
        ("seen", "100000000000000000000000"),
        ("sigma", "1e400"),
        ("sigma", "NaN"),
        ("norm", "1e400"),
        ("dim", "4611686018427387904"),
    ])
    def test_oversized_or_non_finite_value_is_usage_error(self, tmp_path, capsys, key, text):
        # from --config (1e400 parses as inf) and from the matching flag
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"{key}": {text}}}')
        flag = "--" + key.replace("_", "-")
        for argv in (("--config", cfg), (flag, text)):
            assert run_cli("gen", *argv, "--out", tmp_path / "x") == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err
            errors = [line for line in err.splitlines() if "error:" in line]
            assert len(errors) == 1 and "invalid SyntheticSpec" in errors[0]
        assert not (tmp_path / "x").exists()

    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        def no_memory(spec):
            raise MemoryError("Unable to allocate 116. TiB")

        monkeypatch.setattr("sdgzsl.cli.generate_synthetic", no_memory)
        assert run_cli("gen", "--seen", 2, "--unseen", 1, "--dim", 10**12, "--sem", 16,
                       "--out", tmp_path / "x") == 1
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 116. TiB\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flag, message", [("--sigma", "non-finite feature"),
                                               ("--norm", "non-finite feature")])
    def test_a_value_past_the_float32_range_is_one_error_line(self, tmp_path, capsys, flag,
                                                              message):
        assert run_cli("gen", *GEN_FLAGS, flag, "1e300", "--out", tmp_path / "x") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
        assert not (tmp_path / "x").exists()

    def test_large_norm_generates_and_reloads(self, tmp_path):
        assert run_cli("gen", *GEN_FLAGS, "--norm", "1e7", "--out", tmp_path / "x") == 0
        ds = load_dataset(tmp_path / "x")
        norms = np.sqrt((ds.seen_emb * ds.seen_emb).sum(axis=1))
        assert ds.unified_norm == 1e7 and np.abs(norms - 1e7).max() <= 1e-2

    def test_config_int_accepted_where_float_expected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigma": 0, "norm": 2}))
        assert run_cli("gen", "--config", cfg, "--out", tmp_path / "x") == 0
        assert load_dataset(tmp_path / "x").unified_norm == 2.0


class TestTrain:
    def test_default_flags_on_noiseless_data(self, tmp_path):
        data = tmp_path / "d0"
        assert run_cli("gen", *GEN_FLAGS[:-2], "--seed", 11, "--sigma", 0.0,
                       "--out", data) == 0
        assert run_cli("train", "--data", data, "--out", tmp_path / "r0") == 0
        rows = (tmp_path / "r0" / "loss.csv").read_text().strip().splitlines()
        assert rows[0] == "epoch,loss"
        assert len(rows) == 101
        assert float(rows[-1].split(",")[1]) < 1e-3

    def test_zero_epochs_is_usage_error(self, workspace, tmp_path):
        data, _ = workspace
        assert run_cli("train", "--data", data, "--out", tmp_path / "r", "--epochs", 0) == 2

    @pytest.mark.parametrize("lr", ["nan", "inf", "-inf", "0"])
    def test_rate_that_is_not_a_finite_positive_number_is_usage_error(self, workspace, tmp_path,
                                                                      capsys, lr):
        data, _ = workspace
        assert run_cli("train", "--data", data, "--out", tmp_path / "r", f"--lr={lr}") == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "learning_rate must be a finite number > 0" in errors[0]
        assert not (tmp_path / "r").exists()

    def test_finite_rate_that_overflows_reports_divergence(self, workspace, tmp_path, capsys):
        data, _ = workspace
        assert run_cli("train", "--data", data, "--out", tmp_path / "r", "--lr", "1e308") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: non-finite training loss at epoch 0")

    def test_checkpoint_reproduces_forward_bitwise(self, workspace):
        data, run = workspace
        ds = load_dataset(data)
        params, _ = load_checkpoint(run / "model.ckpt")
        from sdgzsl import TrainConfig

        retrained, _ = train(ds, TrainConfig())
        x = ds.seen_test_x[0]
        assert np.array_equal(forward(params, x), forward(retrained, x))

    def test_config_file_with_flag_override(self, workspace, tmp_path):
        data, _ = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 3, "lr": 0.005}))
        out = tmp_path / "rcfg"
        assert run_cli("train", "--data", data, "--out", out, "--config", cfg,
                       "--epochs", 2) == 0
        rows = (out / "loss.csv").read_text().strip().splitlines()
        assert len(rows) == 3  # header + 2 epochs: flag wins over config file

    def test_unknown_config_key_is_usage_error(self, workspace, tmp_path):
        data, _ = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epoch": 3}))
        assert run_cli("train", "--data", data, "--out", tmp_path / "r", "--config", cfg) == 2

    def test_config_value_of_wrong_type_is_usage_error(self, workspace, tmp_path):
        data, _ = workspace
        cfg = tmp_path / "cfg.json"
        for bad in ({"epochs": True}, {"batch": "64"}, {"hidden": [8, 2.5]}, {"hidden": 8},
                    {"lr": None}):
            cfg.write_text(json.dumps(bad))
            assert run_cli("train", "--data", data, "--out", tmp_path / "r",
                           "--config", cfg) == 2
        assert not (tmp_path / "r").exists()

    def test_config_hidden_takes_a_list_of_ints(self, workspace, tmp_path):
        data, _ = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hidden": [5], "epochs": 1}))
        assert run_cli("train", "--data", data, "--out", tmp_path / "r", "--config", cfg) == 0
        params, _ = load_checkpoint(tmp_path / "r" / "model.ckpt")
        assert params.layer_sizes() == [32, 5, 16]

    @pytest.mark.parametrize("hidden", ["", ",", "4,,5", "4,", " ", "4, ,5"])
    def test_an_empty_hidden_size_is_usage_error(self, workspace, tmp_path, hidden):
        data, _ = workspace
        assert run_cli("train", "--data", data, "--out", tmp_path / "r", "--hidden", hidden,
                       "--epochs", 1) == 2
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("argv, sizes", [
        (["--hidden", "linear"], [32, 16]),
        (["--hidden", " 4, 5"], [32, 4, 5, 16]),  # spaces around a size are allowed
        (["--config", {"hidden": []}], [32, 16]),
    ])
    def test_hidden_sizes_from_the_flag_or_the_config(self, workspace, tmp_path, argv, sizes):
        data, _ = workspace
        if argv[0] == "--config":
            (tmp_path / "cfg.json").write_text(json.dumps(argv[1]))
            argv = ["--config", tmp_path / "cfg.json"]
        assert run_cli("train", "--data", data, "--out", tmp_path / "r", *argv,
                       "--epochs", 1) == 0
        assert load_checkpoint(tmp_path / "r" / "model.ckpt")[0].layer_sizes() == sizes


class TestEval:
    def test_strategy_all_writes_everything(self, workspace, tmp_path):
        data, run = workspace
        out = tmp_path / "eval"
        assert run_cli("eval", "--data", data, "--ckpt", run / "model.ckpt",
                       "--out", out, "--strategy", "all") == 0
        for tag in (*STRATEGIES, "nogate"):
            assert (out / f"report_{tag}.txt").is_file()
            assert (out / f"report_{tag}.kv").is_file()
        assert (out / "thresholds.kv").is_file()
        assert (out / "sweep.csv").is_file()
        load_thresholds(out / "thresholds.kv")

    def test_single_strategy(self, workspace, tmp_path, capsys):
        data, run = workspace
        out = tmp_path / "eval1"
        assert run_cli("eval", "--data", data, "--ckpt", run / "model.ckpt",
                       "--out", out, "--strategy", "dl") == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "report_dl.kv", "report_dl.txt", "thresholds.kv"]
        assert "evaluated 1 reports in " in capsys.readouterr().out

    def test_sweep_prints_the_shared_time_once(self, workspace, tmp_path, capsys):
        data, run = workspace
        assert run_cli("eval", "--data", data, "--ckpt", run / "model.ckpt",
                       "--out", tmp_path / "e", "--strategy", "all", "--sweep") == 0
        stdout = capsys.readouterr().out
        assert stdout.count("evaluated 4 reports in ") == 1
        assert not re.search(r"\(\d+\.\d+s\)", stdout)  # no per-report "(0.00s)"
        assert len((tmp_path / "e" / "sweep.csv").read_text().splitlines()) == 5

    def test_one_strategy_with_sweep_writes_the_full_sweep(self, workspace, tmp_path):
        data, run = workspace
        outs = {}
        for flags in (["--strategy", "all"], ["--strategy", "dl", "--sweep"]):
            out = tmp_path / flags[1]
            assert run_cli("eval", "--data", data, "--ckpt", run / "model.ckpt",
                           "--out", out, *flags) == 0
            outs[flags[1]] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(outs["all"]) == 2 * (len(STRATEGIES) + 1) + 2
        assert outs["all"] == outs["dl"]

    def test_reports_do_not_depend_on_where_they_are_written(self, workspace, tmp_path):
        # the dataset fingerprint covers the dataset's own files, so reports
        # an earlier eval wrote into the data dir leave the provenance alone
        data, run = workspace
        shared = tmp_path / "data"
        shutil.copytree(data, shared)
        reports = []
        for out in (shared, shared, tmp_path / "elsewhere"):
            assert run_cli("eval", "--data", shared, "--ckpt", run / "model.ckpt",
                           "--out", out, "--strategy", "all") == 0
            reports.append({p.name: p.read_bytes() for p in out.glob("report_*.kv")})
        assert len(reports[0]) == len(STRATEGIES) + 1
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("lam", ["nan", "-1", "inf"])
    def test_non_finite_or_negative_lambda_is_usage_error(self, workspace, tmp_path, capsys, lam):
        data, run = workspace
        assert run_cli("eval", "--data", data, "--ckpt", run / "model.ckpt",
                       "--out", tmp_path / "e", "--lam", lam) == 2
        assert "--lam must be a finite number >= 0" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    @pytest.mark.filterwarnings("error")
    def test_a_lambda_whose_statistics_overflow_is_one_error_line(self, workspace, tmp_path,
                                                                  capsys):
        # finite samples d_l + lam * msd, about 1e306, whose squared deviations overflow
        data, run = workspace
        assert run_cli("eval", "--data", data, "--ckpt", run / "model.ckpt",
                       "--out", tmp_path / "e", "--lam", "1e306") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0] == "error: non-finite threshold fields ['std_ws']"
        assert not (tmp_path / "e").exists()

    def test_config_value_of_wrong_type_is_usage_error(self, workspace, tmp_path):
        data, run = workspace
        cfg = tmp_path / "cfg.json"
        for bad in ({"lam": "1.0"}, {"sweep": 1}, {"strategy": 3}, {"lam": False}):
            cfg.write_text(json.dumps(bad))
            assert run_cli("eval", "--data", data, "--ckpt", run / "model.ckpt",
                           "--out", tmp_path / "e", "--config", cfg) == 2
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("bad, message", [
        ({"strategy": "bogus"}, "--strategy must be one of"),
        ({"calibration_split": "x"}, "--calibration-split must be 'train' or 'test'"),
    ])
    def test_config_value_outside_the_choices_is_usage_error(self, workspace, tmp_path, capsys,
                                                             bad, message):
        # argparse's choices see only flags, so the config file's value is checked in cmd_eval
        data, run = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))
        assert run_cli("eval", "--data", data, "--ckpt", run / "model.ckpt",
                       "--out", tmp_path / "e", "--config", cfg) == 2
        err = capsys.readouterr().err.splitlines()
        assert sum(line.startswith("usage:") for line in err) == 1
        errors = [line for line in err if "error:" in line]
        assert len(errors) == 1 and message in errors[0]
        assert not (tmp_path / "e").exists()

    def test_config_int_lambda_is_written_as_a_float(self, workspace, tmp_path):
        data, run = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lam": 0, "strategy": "ws"}))
        out = tmp_path / "e"
        assert run_cli("eval", "--data", data, "--ckpt", run / "model.ckpt",
                       "--out", out, "--config", cfg) == 0
        assert "lambda=0.0\n" in (out / "thresholds.kv").read_text()

    def test_meta_value_of_wrong_type_is_one_error_line(self, workspace, tmp_path, capsys):
        data, run = workspace
        bad = tmp_path / "data"
        shutil.copytree(data, bad)
        meta = json.loads((bad / "meta.json").read_text())
        meta["l"] = "abc"
        (bad / "meta.json").write_text(json.dumps(meta))
        assert run_cli("eval", "--data", bad, "--ckpt", run / "model.ckpt",
                       "--out", tmp_path / "e") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "'l'" in err[0]

    def test_checkpoint_header_of_wrong_shape_is_one_error_line(self, workspace, tmp_path,
                                                               capsys):
        data, run = workspace
        blob = (run / "model.ckpt").read_bytes()
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(b'{"layers": [[2]], "activations": ["linear"]}' + blob[blob.find(b"\n"):])
        assert run_cli("eval", "--data", data, "--ckpt", ckpt, "--out", tmp_path / "e") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "'layers'" in err[0]

    def test_missing_checkpoint_is_runtime_error(self, workspace, tmp_path):
        data, _ = workspace
        assert run_cli("eval", "--data", data, "--ckpt", tmp_path / "nope.ckpt",
                       "--out", tmp_path / "e") == 1

    def test_dimension_mismatch_is_runtime_error(self, workspace, tmp_path):
        data, run = workspace
        other = tmp_path / "small"
        assert run_cli("gen", "--seen", 4, "--unseen", 2, "--dim", 8, "--sem", 4,
                       "--sigma", 0.05, "--seed", 3, "--train-per-class", 5,
                       "--test-per-class", 2, "--out", other) == 0
        assert run_cli("eval", "--data", other, "--ckpt", run / "model.ckpt",
                       "--out", tmp_path / "e2") == 1

    def test_checkpoint_of_another_norm_is_runtime_error(self, tmp_path, capsys):
        small = ["--seen", 4, "--unseen", 2, "--dim", 8, "--sem", 4, "--sigma", 0.05,
                 "--seed", 3, "--train-per-class", 5, "--test-per-class", 2]
        for norm in (1, 2):
            assert run_cli("gen", *small, "--norm", norm, "--out", tmp_path / f"l{norm}") == 0
        assert run_cli("train", "--data", tmp_path / "l2", "--epochs", 2,
                       "--out", tmp_path / "run") == 0
        capsys.readouterr()
        assert run_cli("eval", "--data", tmp_path / "l1", "--ckpt", tmp_path / "run" / "model.ckpt",
                       "--out", tmp_path / "e") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "unified norm 2.0" in err[0] and "1.0" in err[0]
        assert not (tmp_path / "e").exists()

    def test_checkpoint_without_a_norm_is_accepted(self, workspace, tmp_path):
        data, run = workspace
        ckpt = tmp_path / "model.ckpt"
        blob = (run / "model.ckpt").read_bytes()
        assert b'"l": 1.0' in blob
        ckpt.write_bytes(blob.replace(b'"l": 1.0', b'"l": null', 1))
        assert run_cli("eval", "--data", data, "--ckpt", ckpt, "--out", tmp_path / "e",
                       "--strategy", "ol") == 0

    def test_kv_h_consistency(self, workspace, tmp_path):
        data, run = workspace
        out = tmp_path / "eval_kv"
        assert run_cli("eval", "--data", data, "--ckpt", run / "model.ckpt",
                       "--out", out, "--strategy", "ws") == 0
        kv = dict(
            line.split("=", 1)
            for line in (out / "report_ws.kv").read_text().strip().splitlines()
        )
        acc_s, acc_u, h = (float(kv[k]) for k in ("acc_s", "acc_u", "h"))
        expected = 0.0 if acc_s + acc_u == 0 else 2 * acc_s * acc_u / (acc_s + acc_u)
        assert h == pytest.approx(expected, rel=1e-12)

    def test_sweep_table_covers_all_strategies(self, workspace, tmp_path):
        data, run = workspace
        out = tmp_path / "sweep"
        assert run_cli("eval", "--data", data, "--ckpt", run / "model.ckpt",
                       "--out", out, "--sweep") == 0
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert rows[0].startswith("strategy,acc_s,acc_u,h")
        assert [r.split(",")[0] for r in rows[1:]] == ["ol", "dl", "ws", "nogate"]


class TestEndToEndDeterminism:
    def test_two_full_runs_byte_identical(self, tmp_path):
        outputs = {}
        for sub in ("x", "y"):
            base = tmp_path / sub
            assert run_cli("gen", *GEN_FLAGS, "--out", base / "data") == 0
            assert run_cli("train", "--data", base / "data", "--out", base / "run",
                           "--epochs", 5) == 0
            assert run_cli("eval", "--data", base / "data", "--ckpt", base / "run" / "model.ckpt",
                           "--out", base / "run", "--strategy", "all") == 0
            outputs[sub] = {
                p.name: p.read_bytes()
                for p in (base / "run").iterdir()
                if p.suffix in (".kv", ".csv", ".txt")
            }
        assert outputs["x"] == outputs["y"]


def test_module_entry_point_runs():
    """``python -m sdgzsl.cli``, the README's entry point, reaches ``main``."""
    src = str(Path(sdgzsl.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "sdgzsl.cli", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert all(cmd in done.stdout for cmd in ("gen", "train", "eval"))
