"""Byte-identity gate: the acceptance fixture's outputs keep their recorded digests.

The digests were recorded by running ``gen -> train -> eval --strategy all
--sweep`` on the acceptance fixture (the README quick start) before the
per-row evaluation path was replaced by the batched core, with numpy 2.4
on x86-64.  Any change to projection, statistics, gating, classification,
scoring or rendering that moves a single bit of a report shows up here.
"""

import hashlib

from sdgzsl.cli import main

GOLDEN_SHA256 = {
    "report_dl.kv": "467b163aee899fb0286b7ce21f4bda463e067387d14daa8fc56dd041319dc8d6",
    "report_nogate.kv": "b2cd0cecbfb5edf983885b1396f2b7853f0e707b37b14b588972ad327b354128",
    "report_ol.kv": "dce8fa2642f5f99ef366e5cc494dd79d4bd7c7654c2ae50ecb11fff44d65a4e7",
    "report_ws.kv": "3aa572f94530aed5665ace1af1fdc62d76448ce3fe7378601f8dc35322287af0",
    "thresholds.kv": "4ed05353b0612d522b3b70ccfa268f6d6205cf1e5880cf794ffa0f0ad2ae57a2",
    "sweep.csv": "a2552833dc2fcccc10f5a18cca8afbf6b1a2acf73e731bc1d7edac1a48c2e4d1",
}


def test_acceptance_fixture_outputs_keep_their_recorded_digests(tmp_path):
    data, run = tmp_path / "data", tmp_path / "run"
    assert main(["gen", "--seen", "10", "--unseen", "3", "--dim", "32", "--sem", "16",
                 "--sigma", "0.05", "--seed", "7", "--train-per-class", "50",
                 "--test-per-class", "20", "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--out", str(run)]) == 0
    assert main(["eval", "--data", str(data), "--ckpt", str(run / "model.ckpt"),
                 "--out", str(run), "--strategy", "all", "--sweep"]) == 0
    got = {name: hashlib.sha256((run / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256
