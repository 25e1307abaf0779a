"""The CLI takes each default that a dataclass has from that dataclass, so a run
with no flags writes what the library writes at its defaults."""

import numpy as np

from sdgzsl import (
    SyntheticSpec,
    TrainConfig,
    generate_synthetic,
    load_dataset,
    save_checkpoint,
    save_dataset,
    train,
)
from sdgzsl.cli import main


def test_gen_without_norm_writes_the_spec_default(tmp_path):
    assert main(["gen", "--seed", "5", "--out", str(tmp_path / "cli")]) == 0
    want = save_dataset(generate_synthetic(SyntheticSpec(10, 3, 32, 16, 50, 20, 0.05, seed=5)),
                        tmp_path / "lib")
    for f in sorted(want.iterdir()):
        assert (tmp_path / "cli" / f.name).read_bytes() == f.read_bytes(), f.name


def test_train_without_flags_writes_the_checkpoint_of_the_default_config(tmp_path):
    data = tmp_path / "data"
    assert main(["gen", "--seen", "3", "--unseen", "2", "--dim", "6", "--sem", "4",
                 "--train-per-class", "6", "--test-per-class", "2", "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run")]) == 0
    ds = load_dataset(data)
    cfg = TrainConfig()
    params, history = train(ds, cfg)
    want = save_checkpoint(params, tmp_path / "lib.ckpt", seed=cfg.seed,
                           unified_norm=ds.unified_norm)
    assert (tmp_path / "run" / "model.ckpt").read_bytes() == want.read_bytes()
    losses = np.loadtxt(tmp_path / "run" / "loss.csv", delimiter=",", skiprows=1)[:, 1]
    assert losses.tolist() == history
