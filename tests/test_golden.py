"""Byte-identity gate: fixture outputs keep their recorded digests.

Every digest was recorded by running ``gen -> train -> eval --strategy
all --sweep`` on the acceptance fixture (the README quick start) and
``gen -> train`` on the odd-shaped one, once class embeddings were stored
as float64 (``*_emb.f64``).  All with numpy 2.4 on x86-64 and an AVX-512
(SkylakeX) OpenBLAS kernel.  The files ``gen`` writes keep their bits
under every kernel, so their digests are a test of their own; the
training and report digests depend on the kernel.  Any change to
generation, initialization, shuffling, training, projection, statistics,
gating, classification, scoring or rendering that moves a single bit of
an output shows up here.

The odd-shaped fixture has an odd feature dimension (33), an odd
semantic dimension (15) and an odd number of seen-train rows (35), so a
Box-Muller spare crosses every row and class boundary of the generator
and the per-epoch permutation runs over an odd length.
"""

import hashlib

import pytest

from sdgzsl.cli import main

GOLDEN_SHA256 = {
    "report_dl.kv": "4de69bc1660752aa0c9b0755e474939addf5a43eb4e0abe2dd39b48e4eab4ba0",
    "report_nogate.kv": "3ae4a01c34ac1a16802ad7b8f29dbcd5198f4bca7ee9575d83b8d22df09ce477",
    "report_ol.kv": "f9a0923df2a594e9a98daf5deead6b9038b877d927ef7c8400dc3db859f34efb",
    "report_ws.kv": "58e6f11fcd46d63899618228e30b200e772a5732b42b4e6e060f50d1bb8e9a1f",
    "thresholds.kv": "0ca54900c1475d0c5a9efcc73992837a8c7c2d53dc7346f94c903e1418390ad5",
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
    "seen_emb.f64": "01f9ad1897adaf392455bf3355b6b4afcef9d46cd27301fc3145d031aea8824d",
    "seen_test.f32": "7bcb95ce4fc16dda8e49b30bdd8e870fc592afb5ce23115d4835a8add4033ef0",
    "seen_test.labels": "321330617fb2634cec33d4abeb79492341b0b696684e83dd3129907bca11ad55",
    "seen_train.f32": "c0a90a32dc1065536279c9512f954ceecc6e3facfb9c4ce6d967b7dfd65bb692",
    "seen_train.labels": "600cf3a6d98cb7a1313a281ebebb0cbc571c86535b317ca6b600834be768d986",
    "unseen_emb.f64": "d33422911a14d116850884db45e18142a8c3424ec4f32c217fdaf5954b4799a3",
    "unseen_test.f32": "361c5948ba80d2f99c73f9f3ed071c9f53f70f5ca0514f90194beb1553385b4e",
    "unseen_test.labels": "eec2888a5ce682d2d90f4251d9275ada7e4d6a0f8895c5920a87aaed6d1fcab9",
}
ACCEPTANCE_RUN_SHA256 = {
    "loss.csv": "122a60704a7163fa244ab94e51ec6678e50694527ec3460782ffd1b00f8d870d",
    "model.ckpt": "d83a2b9069037cb584f7bf9ac5d615d150d3b23e60ae9db37c4b7e0c3520da3e",
}
ODD_DATA_SHA256 = {
    "meta.json": "c83d0687aeafddef34af758ab3bd8326d7aabc9c4f6a621a8b6f8001e8627ca8",
    "seen_emb.f64": "e74045c2cd307b8eddd7403296c1227ea20c149bda014609692874ae98aed497",
    "seen_test.f32": "807aa8f518bb928b5ea02afdf6a2bbeda0b561192c5e82c3df87c3584f68b49e",
    "seen_test.labels": "3b13af805c9b632b6319284996d7d334c3ebd6b594dcbf0d961fe5fe107d3860",
    "seen_train.f32": "23f8a055827f8dfb7c39baedba05a4876fc1992b3656d6515126811cc37ed085",
    "seen_train.labels": "e64c8150fc155fbc378cbd503405972ef1a6e3b34653ca6755a2f9911dc0844d",
    "unseen_emb.f64": "689b08a415481948a6df36919cc6091e14ae0e9eaf4394988333e3300ba9ae0b",
    "unseen_test.f32": "f076647ae02737cfd384fadec29b5be3f5f10a9eda0d6b760e7766288d633fcc",
    "unseen_test.labels": "09be9bab3131b6f8c959abaf1e8a772e788dd090326e547d62eb9d0fb50ae0f8",
}
ODD_RUN_SHA256 = {
    "loss.csv": "106308612360b6a4f4033ea34f4b82a5d804b8e8c279c2c23671b29f86566ebd",
    "model.ckpt": "0b57f0a2a22d79437540940be5d99f3a481587a9235f8bc5f82bf845326085fb",
}


def _digests(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


def _gen_and_train(tmp_path, flags):
    data, run = tmp_path / "data", tmp_path / "run"
    assert main(["gen", *flags, "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--out", str(run)]) == 0
    return data, run


@pytest.mark.parametrize("flags, recorded", [(ACCEPTANCE_FLAGS, ACCEPTANCE_DATA_SHA256),
                                             (ODD_FLAGS, ODD_DATA_SHA256)],
                         ids=["acceptance", "odd"])
def test_generated_files_keep_their_recorded_digests(tmp_path, flags, recorded):
    data = tmp_path / "data"
    assert main(["gen", *flags, "--out", str(data)]) == 0
    # no file beyond the recorded ones may appear unchecked
    assert sorted(p.name for p in data.iterdir()) == sorted(recorded)
    assert _digests(data, recorded) == recorded


def test_acceptance_fixture_outputs_keep_their_recorded_digests(tmp_path):
    data, run = _gen_and_train(tmp_path, ACCEPTANCE_FLAGS)
    assert _digests(run, ACCEPTANCE_RUN_SHA256) == ACCEPTANCE_RUN_SHA256
    assert main(["eval", "--data", str(data), "--ckpt", str(run / "model.ckpt"),
                 "--out", str(run), "--strategy", "all", "--sweep"]) == 0
    assert _digests(run, GOLDEN_SHA256) == GOLDEN_SHA256


def test_odd_shaped_fixture_training_keeps_its_recorded_digests(tmp_path):
    _, run = _gen_and_train(tmp_path, ODD_FLAGS)
    assert _digests(run, ODD_RUN_SHA256) == ODD_RUN_SHA256
