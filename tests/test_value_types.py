"""Every public value type is frozen and checks itself when made, so a field
added later lands on that one check path, not on a ``validate()`` that callers
must remember to run."""

import dataclasses

import numpy as np
import pytest

import sdgzsl
from sdgzsl import (
    CalibrationError,
    GzslDataset,
    MlpParams,
    SyntheticSpec,
    ThresholdSet,
    TrainConfig,
    ValidationError,
    calibrate,
    generate_synthetic,
    train,
)

PUBLIC_DATACLASSES = sorted(
    (getattr(sdgzsl, name) for name in sdgzsl.__all__
     if dataclasses.is_dataclass(getattr(sdgzsl, name))),
    key=lambda cls: cls.__name__,
)


@pytest.mark.parametrize("cls", PUBLIC_DATACLASSES, ids=lambda cls: cls.__name__)
def test_every_public_dataclass_is_frozen_and_has_no_validate(cls):
    assert cls.__dataclass_params__.frozen
    assert not hasattr(cls, "validate")


@pytest.fixture(scope="module")
def values():
    spec = SyntheticSpec(3, 2, 6, 4, 6, 4, 0.05, seed=11)
    ds = generate_synthetic(spec)
    cfg = TrainConfig(epochs=2, seed=12)
    params, _ = train(ds, cfg)
    return {SyntheticSpec: spec, TrainConfig: cfg, GzslDataset: ds, MlpParams: params,
            ThresholdSet: calibrate(params, ds)}


@pytest.mark.parametrize("cls, bad, error", [
    (SyntheticSpec, {"n_seen_classes": 1}, ValidationError),
    (TrainConfig, {"epochs": 0}, ValidationError),
    (GzslDataset, {"unified_norm": 0.0}, ValidationError),
    (MlpParams, {"activations": ("tanh", "linear")}, ValidationError),
    (ThresholdSet, {"lam": np.nan}, CalibrationError),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_each_checked_type_refuses_a_bad_replace(values, cls, bad, error):
    dataclasses.replace(values[cls])  # an unchanged copy passes
    with pytest.raises(error):
        dataclasses.replace(values[cls], **bad)


def test_the_checked_types_are_the_public_dataclasses_with_a_post_init():
    checked = {cls for cls in PUBLIC_DATACLASSES if hasattr(cls, "__post_init__")}
    assert checked == {SyntheticSpec, TrainConfig, GzslDataset, MlpParams, ThresholdSet}
