import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sdgzsl
from sdgzsl import DomainError, SplitMix64, SyntheticSpec, TrainConfig, generate_synthetic, train
from sdgzsl import rng as rng_module

# published splitmix64 reference outputs
SEED0_FIRST3 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
SEED1234567_FIRST3 = [6457827717110365317, 3203168211198807973, 9817491932198370423]


def test_reference_vectors_seed_zero():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == SEED0_FIRST3


def test_reference_vectors_seed_1234567():
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(3)] == SEED1234567_FIRST3


def test_same_seed_same_stream():
    a, b = SplitMix64(99), SplitMix64(99)
    assert [a.next_u64() for _ in range(64)] == [b.next_u64() for _ in range(64)]
    assert a.gauss_array(65).tobytes() == b.gauss_array(65).tobytes()


def test_split_derives_distinct_stream():
    parent = SplitMix64(5)
    child = parent.split()
    assert [parent.next_u64() for _ in range(8)] != [child.next_u64() for _ in range(8)]


def test_uniform_range():
    vals = SplitMix64(3).uniform_array(0.0, 1.0, 5000)
    assert np.all((0.0 <= vals) & (vals < 1.0))
    assert abs(vals.mean() - 0.5) < 0.02


def test_gauss_moments_and_finiteness():
    n = 2 * 10**6
    vals = SplitMix64(42).gauss_array(n)
    assert np.all(np.isfinite(vals))
    # within 5 standard errors of N(0, 1): 1/sqrt(n) for the mean, sqrt(2/n) for the variance
    assert abs(vals.mean()) < 5 / math.sqrt(n)
    assert abs(vals.var() - 1.0) < 5 * math.sqrt(2 / n)


def test_permutation_is_permutation():
    for seed in range(5):
        perm = SplitMix64(seed).permutation(37)
        assert sorted(perm) == list(range(37))


def test_permutation_below_its_domain_raises_before_any_draw():
    rng, ref = SplitMix64(3), SplitMix64(3)
    with pytest.raises(DomainError, match=r"permutation\(n\) needs n >= 0, got -1"):
        rng.permutation(-1)
    assert rng.next_u64() == ref.next_u64()


def test_uniform_array_bounds():
    arr = SplitMix64(8).uniform_array(-2.0, 3.0, (7, 5))
    assert arr.shape == (7, 5)
    assert arr.min() >= -2.0 and arr.max() < 3.0


SMALL_SPEC = SyntheticSpec(
    n_seen_classes=6, n_unseen_classes=3, feature_dim=12, semantic_dim=5,
    per_class_train=4, per_class_test=2, cluster_spread=0.05, seed=7,
)


@pytest.mark.parametrize("kind", [np.int32, np.int64, np.uint64])
def test_a_numpy_integer_seed_acts_as_the_equal_int(kind):
    assert SplitMix64(kind(7))._u64_block(5).tolist() == SplitMix64(7)._u64_block(5).tolist()
    want = generate_synthetic(SMALL_SPEC)
    got = generate_synthetic(dataclasses.replace(SMALL_SPEC, seed=kind(7)))
    for field in dataclasses.fields(want):
        assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name
    cfg = TrainConfig(epochs=2, seed=7, hidden_sizes=[4])
    want_params, want_losses = train(want, cfg)
    got_params, got_losses = train(want, dataclasses.replace(cfg, seed=kind(7)))
    assert got_losses == want_losses
    for w, g in zip(want_params.weights + want_params.biases, got_params.weights + got_params.biases):
        assert g.tobytes() == w.tobytes()


# --- array draws against oracles built from next_u64 alone, as the module docstring defines them ---

WRAP_SEED = 2**64 - 1  # the first state increment wraps past 2**64
BLOCK_VALUES = 2 * rng_module._BLOCK  # one gauss_array block of pairs


def oracle_gauss(rng, n):
    """``n`` Gaussians: the spare first, if any, then Box-Muller pairs of
    consecutive ``next_u64`` draws, cosine variate first, all in one
    ``_box_muller`` call with no blocks; an odd tail leaves its sine
    variate as the spare."""
    out = []
    if n and rng._spare_gauss is not None:
        out.append(rng._spare_gauss)
        rng._spare_gauss = None
    pairs = (n - len(out) + 1) // 2
    if pairs:
        k = np.array([rng.next_u64() >> 11 for _ in range(2 * pairs)], dtype=np.int64)
        cos_variates, sin_variates = np.empty(pairs), np.empty(pairs)
        rng_module._box_muller(k[0::2] + 1, k[1::2], cos_variates, sin_variates)
        out += np.stack([cos_variates, sin_variates], axis=1).ravel().tolist()
    if len(out) > n:
        rng._spare_gauss = out.pop()
    return np.array(out, dtype=np.float64)


def oracle_uniform(rng, low, high, n):
    span = high - low
    return np.array([low + span * ((rng.next_u64() >> 11) * 2.0**-53) for _ in range(n)],
                    dtype=np.float64)


def oracle_permutation(rng, n):
    idx = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def assert_same_state(fast, ref):
    """Same spare, and the next ``next_u64`` agrees."""
    assert fast._spare_gauss == ref._spare_gauss
    assert fast.next_u64() == ref.next_u64()


@pytest.mark.parametrize("seed", [0, 20260809, WRAP_SEED])
def test_u64_block_equals_next_u64(seed):
    fast, ref = SplitMix64(seed), SplitMix64(seed)
    for k in (0, 1, 2, 7, 1000):
        block = fast._u64_block(k)
        assert block.dtype == np.uint64
        assert block.tolist() == [ref.next_u64() for _ in range(k)]
    assert_same_state(fast, ref)


@pytest.mark.parametrize("seed", [0, 20260809, WRAP_SEED])
def test_gauss_array_byte_equals_the_pair_oracle_over_three_blocks(seed):
    n = 3 * BLOCK_VALUES - 1  # odd: the last pair leaves its sine variate cached
    fast, ref = SplitMix64(seed), SplitMix64(seed)
    assert fast.gauss_array((n,)).tobytes() == oracle_gauss(ref, n).tobytes()
    assert fast._spare_gauss is not None
    assert_same_state(fast, ref)


@pytest.mark.parametrize("seed", [31, WRAP_SEED])
def test_interleaved_gauss_draws_byte_equal_the_pair_oracle(seed):
    # 0, 1, odd, and one block of pairs -1/0/+1, each entered with and
    # without a cached spare, with one-value draws mixed in
    lengths = [0, 1, 0, 3, BLOCK_VALUES - 2, BLOCK_VALUES, BLOCK_VALUES + 2, 1,
               BLOCK_VALUES - 1, BLOCK_VALUES + 1, BLOCK_VALUES + 3, 2, 5,
               2 * BLOCK_VALUES + 1]
    fast, ref = SplitMix64(seed), SplitMix64(seed)
    for step, n in enumerate(lengths):
        spare_at_entry = fast._spare_gauss is not None
        got = fast.gauss_array((n,))
        assert got.tobytes() == oracle_gauss(ref, n).tobytes(), (step, n, spare_at_entry)
        assert fast._spare_gauss == ref._spare_gauss
        if step % 3 == 0:
            assert fast.gauss_array(1).tobytes() == oracle_gauss(ref, 1).tobytes()
    assert_same_state(fast, ref)


def test_gauss_array_keeps_shape_and_row_major_order():
    fast, ref = SplitMix64(4), SplitMix64(4)
    fast.gauss_array(1)
    oracle_gauss(ref, 1)
    got = fast.gauss_array((3, 5, 7))
    assert got.shape == (3, 5, 7)
    assert got.ravel().tobytes() == oracle_gauss(ref, 105).tobytes()
    assert_same_state(fast, ref)


BAD_SHAPES = {
    "gauss, a float entry": lambda r: r.gauss_array((2.5,)),
    "gauss, a negative entry": lambda r: r.gauss_array((3, -1)),
    "gauss, a negative length": lambda r: r.gauss_array(-2),
    "gauss, a bool entry": lambda r: r.gauss_array((2, True)),
    "uniform, a float entry": lambda r: r.uniform_array(0.0, 1.0, (3, 1.5)),
    "uniform, a string entry": lambda r: r.uniform_array(0.0, 1.0, ("4",)),
}


@pytest.mark.parametrize("draw", BAD_SHAPES.values(), ids=BAD_SHAPES)
def test_a_bad_shape_raises_before_any_draw(draw):
    fast, ref = SplitMix64(3), SplitMix64(3)
    fast.gauss_array(1)  # a spare cached at entry
    oracle_gauss(ref, 1)
    with pytest.raises(DomainError, match=r"^shape needs integers >= 0, got "):
        draw(fast)
    assert_same_state(fast, ref)


def test_a_shape_may_hold_numpy_integers_and_zeros():
    fast, ref = SplitMix64(6), SplitMix64(6)
    assert fast.gauss_array((np.int64(2), np.uint8(3))).tobytes() == oracle_gauss(ref, 6).tobytes()
    assert fast.gauss_array((4, 0)).shape == (4, 0)
    assert fast.uniform_array(0.0, 1.0, np.int32(0)).shape == (0,)
    assert fast.gauss_array(()).tobytes() == oracle_gauss(ref, 1).tobytes()
    assert_same_state(fast, ref)


@pytest.mark.parametrize("seed", [1, WRAP_SEED])
def test_uniform_array_equals_low_plus_span_times_uniform(seed):
    fast, ref = SplitMix64(seed), SplitMix64(seed)
    for low, high, n in ((-2.0, 3.0, 0), (-2.0, 3.0, 1), (0.0, 1.0, 4095), (-0.25, 0.5, 4096),
                         (np.float64(-0.3), np.float64(0.3), 4097), (5.0, 5.5, 10_000),
                         (-1.0, 1.0, rng_module._BLOCK - 1), (-1.0, 1.0, rng_module._BLOCK + 1),
                         (-1.0, 1.0, 2 * rng_module._BLOCK + 1)):
        got = fast.uniform_array(low, high, (n,))
        assert got.tobytes() == oracle_uniform(ref, low, high, n).tobytes(), (low, high, n)
    assert_same_state(fast, ref)


@pytest.mark.parametrize("n", [0, 1, 2, 37, 2000])
def test_permutation_equals_scalar_fisher_yates(n):
    fast, ref = SplitMix64(WRAP_SEED), SplitMix64(WRAP_SEED)
    for _ in range(3):
        perm = fast.permutation(n)
        assert perm.dtype == np.int64
        assert perm.shape == (n,)
        assert perm.tolist() == oracle_permutation(ref, n)
    assert_same_state(fast, ref)


def test_every_mix_of_array_calls_and_splits_keeps_the_stream():
    fast, ref = SplitMix64(2024), SplitMix64(2024)
    for step in range(40):
        kind, n = step % 4, (step * 37) % 211
        if kind == 0:
            assert fast.gauss_array((n,)).tobytes() == oracle_gauss(ref, n).tobytes()
        elif kind == 1:
            got = fast.uniform_array(-1.0, 1.0, (n,))
            assert got.tobytes() == oracle_uniform(ref, -1.0, 1.0, n).tobytes()
        elif kind == 2:
            assert fast.permutation(n).tolist() == oracle_permutation(ref, n)
        else:
            fast, ref = fast.split(), ref.split()
        assert_same_state(fast, ref)


# --- Box-Muller v2 against the libm recipe it replaced, a reference digest, and dispatch ---

# sha256 of the little-endian float64 bytes of SplitMix64(0).gauss_array(2**16 + 1): the
# length is odd, so the last pair's sine variate is left as the spare; a check for ports
GAUSS_SEED0_SHA256 = "6e98c04d1d6e5b4b771cca9b800ab61033d3e3eb15d027adba05e447ba746dc3"


def math_box_muller(seed, pairs):
    """Box-Muller of the same u64 draws with ``math.log``, ``math.cos`` and ``math.sin``."""
    k = SplitMix64(seed)._u64_block(2 * pairs) >> np.uint64(11)
    u1 = ((k[0::2] + np.uint64(1)) * 2.0**-53).tolist()
    angle = ((2.0 * math.pi) * (k[1::2] * 2.0**-53)).tolist()
    r = np.sqrt(-2.0 * np.fromiter(map(math.log, u1), np.float64, pairs))
    out = np.empty(2 * pairs)
    out[0::2] = r * np.fromiter(map(math.cos, angle), np.float64, pairs)
    out[1::2] = r * np.fromiter(map(math.sin, angle), np.float64, pairs)
    return out


def test_gauss_array_is_within_1e_14_of_the_math_box_muller():
    pairs = 10**6
    got = SplitMix64(11).gauss_array(2 * pairs)
    assert np.abs(got - math_box_muller(11, pairs)).max() <= 1e-14


def test_reference_gauss_digest_seed_zero():
    got = SplitMix64(0).gauss_array(2**16 + 1)
    assert hashlib.sha256(got.astype("<f8").tobytes()).hexdigest() == GAUSS_SEED0_SHA256


# numpy's dispatch to its AVX-512 loops, switched off for one process
DISPATCH_OFF = "AVX512_SPR AVX512_ICL X86_V4"
DRAW = """
import numpy as np
from sdgzsl import DomainError, SplitMix64
k = SplitMix64(0)._u64_block(200_002) >> np.uint64(11)
numpy_log = np.log((k[0::2] + np.uint64(1)) * 2.0**-53).tobytes()
gauss = SplitMix64(0).gauss_array(200_001).tobytes()
"""


def test_gauss_array_does_not_depend_on_numpy_cpu_dispatch():
    """The draw keeps its bits when numpy loses its AVX-512 loops; ``np.log`` of
    the same ``u1`` does not, where the CPU has them (numpy ignores feature
    names it does not know, so this runs on any CPU)."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    here = {}
    exec(DRAW, here)
    src = str(Path(sdgzsl.__file__).resolve().parent.parent)
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": DISPATCH_OFF, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = DRAW + "import sys\nsys.stdout.buffer.write(gauss + numpy_log)\n"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    n = len(here["gauss"])
    assert done.stdout[:n] == here["gauss"]
    if __cpu_features__.get("X86_V4"):
        assert done.stdout[n:] != here["numpy_log"]
