"""Byte-identity gate: fixture outputs keep their recorded digests.

The report digests were recorded by running ``gen -> train -> eval
--strategy all --sweep`` on the acceptance fixture (the README quick
start) before the per-row evaluation path was replaced by the batched
core; the dataset, checkpoint and loss-log digests were recorded before
the array draws of ``SplitMix64`` were built on uint64 blocks.  All with
numpy 2.4 on x86-64.  Any change to generation, initialization,
shuffling, training, projection, statistics, gating, classification,
scoring or rendering that moves a single bit of an output shows up here.

The odd-shaped fixture has an odd feature dimension (33), an odd
semantic dimension (15) and an odd number of seen-train rows (35), so a
Box-Muller spare crosses every row and class boundary of the generator
and the per-epoch permutation runs over an odd length.
"""

import hashlib

from sdgzsl.cli import main

GOLDEN_SHA256 = {
    "report_dl.kv": "467b163aee899fb0286b7ce21f4bda463e067387d14daa8fc56dd041319dc8d6",
    "report_nogate.kv": "b2cd0cecbfb5edf983885b1396f2b7853f0e707b37b14b588972ad327b354128",
    "report_ol.kv": "dce8fa2642f5f99ef366e5cc494dd79d4bd7c7654c2ae50ecb11fff44d65a4e7",
    "report_ws.kv": "3aa572f94530aed5665ace1af1fdc62d76448ce3fe7378601f8dc35322287af0",
    "thresholds.kv": "b320bc2bb51fcf2125df8d985850d88773d8f8a72981c7a0663274e20e8d109f",
    "sweep.csv": "a2552833dc2fcccc10f5a18cca8afbf6b1a2acf73e731bc1d7edac1a48c2e4d1",
}

ACCEPTANCE_FLAGS = ["--seen", "10", "--unseen", "3", "--dim", "32", "--sem", "16",
                    "--sigma", "0.05", "--seed", "7", "--train-per-class", "50",
                    "--test-per-class", "20"]
ODD_FLAGS = ["--seen", "5", "--unseen", "3", "--dim", "33", "--sem", "15",
             "--sigma", "0.05", "--seed", "7", "--train-per-class", "7",
             "--test-per-class", "5"]

# every file ``gen`` writes, then ``train``'s checkpoint and loss log
ACCEPTANCE_DATA_SHA256 = {
    "meta.json": "98651cc83cea9ee0760be8970241f036de998f015773d84b49a960bd7a4ffce1",
    "seen_emb.f32": "9a2bb5958e5a96af21619043a8feea3154028ec36254892c78371e59674c420d",
    "seen_test.f32": "92213747fc76fd55691be32e11588accb8c2859147d346b8edd315b559facaad",
    "seen_test.labels": "321330617fb2634cec33d4abeb79492341b0b696684e83dd3129907bca11ad55",
    "seen_train.f32": "2a57ab81acea2d36673ee20b9fe0d2beaafe7e79c0fd5a181eb8ad17927f8019",
    "seen_train.labels": "600cf3a6d98cb7a1313a281ebebb0cbc571c86535b317ca6b600834be768d986",
    "unseen_emb.f32": "ba387165cec240b723ef7527dfeb61f34182d2ac60da4f0e514116346351767c",
    "unseen_test.f32": "cd80c458c344f537f361f707f4c0b6c0f2809337eececd64d7ea8cf58ce66ddb",
    "unseen_test.labels": "eec2888a5ce682d2d90f4251d9275ada7e4d6a0f8895c5920a87aaed6d1fcab9",
}
ACCEPTANCE_RUN_SHA256 = {
    "loss.csv": "7b2137659ce96bc2aa2e02bc5b2252034e829e51a645b7cfd14f307b74b2004f",
    "model.ckpt": "e742dee145a9515c70d5aedb44aa1af36b4497fc30c02ebf40a2ad6f1e61da85",
}
ODD_DATA_SHA256 = {
    "meta.json": "c83d0687aeafddef34af758ab3bd8326d7aabc9c4f6a621a8b6f8001e8627ca8",
    "seen_emb.f32": "91e78c327eebbbc4e8f260f6698eedc861fe6811112ed314e5511b081b2524ea",
    "seen_test.f32": "a9aefbb2dbfaf0a19a38fb4ad4523cfdf09bd6ffc883a8d9a7c626c35db05b75",
    "seen_test.labels": "3b13af805c9b632b6319284996d7d334c3ebd6b594dcbf0d961fe5fe107d3860",
    "seen_train.f32": "90874f7e87ff016b20b141126be6f150383850576887dd03e537ee58bfab9123",
    "seen_train.labels": "e64c8150fc155fbc378cbd503405972ef1a6e3b34653ca6755a2f9911dc0844d",
    "unseen_emb.f32": "f4d6f7cbcd1a313bf5553ef5f95a76d1ae24805c44a3a3163dabfed1a9ec8de3",
    "unseen_test.f32": "19c4b92276cde5461bf011943b6b25628326607b2ce6a6ff89a9faed5e529a68",
    "unseen_test.labels": "09be9bab3131b6f8c959abaf1e8a772e788dd090326e547d62eb9d0fb50ae0f8",
}
ODD_RUN_SHA256 = {
    "loss.csv": "635000f25d80066b486e43956b172e67b8458508d3a3943cebacc3425d290d1e",
    "model.ckpt": "d738fd95d962a3977757db81a9883b139d07e6f4f2d43c135b908f471507f0b5",
}


def _digests(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


def _gen_and_train(tmp_path, flags):
    data, run = tmp_path / "data", tmp_path / "run"
    assert main(["gen", *flags, "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--out", str(run)]) == 0
    # no file beyond the recorded ones may appear unchecked
    assert sorted(p.name for p in data.iterdir()) == sorted(ACCEPTANCE_DATA_SHA256)
    return data, run


def test_acceptance_fixture_outputs_keep_their_recorded_digests(tmp_path):
    data, run = _gen_and_train(tmp_path, ACCEPTANCE_FLAGS)
    assert _digests(data, ACCEPTANCE_DATA_SHA256) == ACCEPTANCE_DATA_SHA256
    assert _digests(run, ACCEPTANCE_RUN_SHA256) == ACCEPTANCE_RUN_SHA256
    assert main(["eval", "--data", str(data), "--ckpt", str(run / "model.ckpt"),
                 "--out", str(run), "--strategy", "all", "--sweep"]) == 0
    assert _digests(run, GOLDEN_SHA256) == GOLDEN_SHA256


def test_odd_shaped_fixture_data_and_training_keep_their_recorded_digests(tmp_path):
    data, run = _gen_and_train(tmp_path, ODD_FLAGS)
    assert _digests(data, ODD_DATA_SHA256) == ODD_DATA_SHA256
    assert _digests(run, ODD_RUN_SHA256) == ODD_RUN_SHA256
