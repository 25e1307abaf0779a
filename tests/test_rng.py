import numpy as np
import pytest

from sdgzsl import SplitMix64
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
    assert [a.gauss() for _ in range(64)] == [b.gauss() for _ in range(64)]


def test_split_derives_distinct_stream():
    parent = SplitMix64(5)
    child = parent.split()
    assert [parent.next_u64() for _ in range(8)] != [child.next_u64() for _ in range(8)]


def test_uniform_range():
    rng = SplitMix64(3)
    vals = [rng.uniform() for _ in range(5000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert abs(np.mean(vals) - 0.5) < 0.02


def test_gauss_moments_and_finiteness():
    rng = SplitMix64(42)
    vals = np.array([rng.gauss() for _ in range(20000)])
    assert np.all(np.isfinite(vals))
    assert abs(vals.mean()) < 0.03
    assert abs(vals.std() - 1.0) < 0.03


def test_permutation_is_permutation():
    for seed in range(5):
        perm = SplitMix64(seed).permutation(37)
        assert sorted(perm) == list(range(37))


def test_uniform_array_bounds():
    arr = SplitMix64(8).uniform_array(-2.0, 3.0, (7, 5))
    assert arr.shape == (7, 5)
    assert arr.min() >= -2.0 and arr.max() < 3.0


# --- array draws against a reference built only from the scalar methods ---

WRAP_SEED = 2**64 - 1  # the first state increment wraps past 2**64
BLOCK_VALUES = 2 * rng_module._BLOCK  # one gauss_array block of pairs


def scalar_gauss(rng, n):
    return np.array([rng.gauss() for _ in range(n)], dtype=np.float64)


def scalar_uniform(rng, low, high, n):
    span = high - low
    return np.array([low + span * rng.uniform() for _ in range(n)], dtype=np.float64)


def scalar_permutation(rng, n):
    idx = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def assert_same_state(fast, ref):
    """Same spare, and the next scalar draw agrees."""
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
def test_gauss_array_byte_equals_scalar_over_a_million_draws(seed):
    n = 1_000_001  # odd: the last pair leaves its sine variate cached
    fast, ref = SplitMix64(seed), SplitMix64(seed)
    assert fast.gauss_array((n,)).tobytes() == scalar_gauss(ref, n).tobytes()
    assert fast._spare_gauss is not None
    assert_same_state(fast, ref)


def test_interleaved_gauss_draws_byte_equal_the_scalar_stream():
    # 0, 1, odd, and one block of pairs -1/0/+1, each entered with and
    # without a cached spare, with scalar draws mixed in
    lengths = [0, 1, 0, 3, BLOCK_VALUES - 2, BLOCK_VALUES, BLOCK_VALUES + 2, 1,
               BLOCK_VALUES - 1, BLOCK_VALUES + 1, BLOCK_VALUES + 3, 2, 5,
               2 * BLOCK_VALUES + 1]
    fast, ref = SplitMix64(31), SplitMix64(31)
    for step, n in enumerate(lengths):
        spare_at_entry = fast._spare_gauss is not None
        got = fast.gauss_array((n,))
        assert got.tobytes() == scalar_gauss(ref, n).tobytes(), (step, n, spare_at_entry)
        assert fast._spare_gauss == ref._spare_gauss
        if step % 3 == 0:
            assert fast.gauss() == ref.gauss()
    assert_same_state(fast, ref)


def test_gauss_array_keeps_shape_and_row_major_order():
    fast, ref = SplitMix64(4), SplitMix64(4)
    fast.gauss()
    ref.gauss()
    got = fast.gauss_array((3, 5, 7))
    assert got.shape == (3, 5, 7)
    assert got.ravel().tobytes() == scalar_gauss(ref, 105).tobytes()
    assert_same_state(fast, ref)


@pytest.mark.parametrize("seed", [1, WRAP_SEED])
def test_uniform_array_equals_low_plus_span_times_uniform(seed):
    fast, ref = SplitMix64(seed), SplitMix64(seed)
    for low, high, n in ((-2.0, 3.0, 0), (-2.0, 3.0, 1), (0.0, 1.0, 4095), (-0.25, 0.5, 4096),
                         (np.float64(-0.3), np.float64(0.3), 4097), (5.0, 5.5, 10_000)):
        got = fast.uniform_array(low, high, (n,))
        assert got.tobytes() == scalar_uniform(ref, low, high, n).tobytes(), (low, high, n)
    assert_same_state(fast, ref)


@pytest.mark.parametrize("n", [0, 1, 2, 37, 2000])
def test_permutation_equals_scalar_fisher_yates(n):
    fast, ref = SplitMix64(WRAP_SEED), SplitMix64(WRAP_SEED)
    for _ in range(3):
        perm = fast.permutation(n)
        assert perm.dtype == np.int64
        assert perm.shape == (n,)
        assert perm.tolist() == scalar_permutation(ref, n)
    assert_same_state(fast, ref)


def test_every_mix_of_array_and_scalar_calls_keeps_the_stream():
    fast, ref = SplitMix64(2024), SplitMix64(2024)
    for step in range(40):
        kind, n = step % 5, (step * 37) % 211
        if kind == 0:
            assert fast.gauss_array((n,)).tobytes() == scalar_gauss(ref, n).tobytes()
        elif kind == 1:
            got = fast.uniform_array(-1.0, 1.0, (n,))
            assert got.tobytes() == scalar_uniform(ref, -1.0, 1.0, n).tobytes()
        elif kind == 2:
            assert fast.permutation(n).tolist() == scalar_permutation(ref, n)
        elif kind == 3:
            assert fast.gauss() == ref.gauss()
            assert fast.below(n + 1) == ref.below(n + 1)
        else:
            fast, ref = fast.split(), ref.split()
        assert_same_state(fast, ref)
