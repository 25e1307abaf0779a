import math
import warnings

import numpy as np
import pytest

from sdgzsl import DomainError, ShapeError, matmul, mean_and_popstd, min_semantic_distance
from sdgzsl.linalg import _prepare, _row_norms, _screen, _screen_rows, check_finite, nearest


def naive_matmul(a, b):
    """Triple-loop reference, deliberately independent of numpy matmul."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        eye = [[1, 0], [0, 1]]
        m = [[5, 6], [7, 8]]
        assert np.array_equal(matmul(eye, m), np.array(m, dtype=float))

    def test_dot_product_case(self):
        assert matmul([[1, 2]], [[3], [4]]) == pytest.approx(np.array([[11.0]]))

    def test_matches_triple_loop_oracle(self, np_rng):
        a = np_rng.normal(size=(3, 4))
        b = np_rng.normal(size=(4, 2))
        assert matmul(a, b) == pytest.approx(naive_matmul(a, b), rel=1e-12)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(np.ones((2, 3)), np.ones((2, 2)))

    def test_associative_on_random_triples(self, np_rng):
        for _ in range(10):
            a = np_rng.normal(size=(3, 5))
            b = np_rng.normal(size=(5, 4))
            c = np_rng.normal(size=(4, 2))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            assert left == pytest.approx(right, rel=1e-9)


class TestCheckFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_non_finite_entry_raises(self, bad):
        a = np.ones((64, 32))
        a[17, 5] = bad
        with pytest.raises(DomainError, match="grad: non-finite entries"):
            check_finite(a, "grad")

    def test_finite_entries_whose_sum_overflows_pass(self):
        # a check through the sum would read this inf as a non-finite entry
        a = np.full((4, 3), 1e308)
        with np.errstate(over="ignore"):
            assert np.isinf(a.sum())
        assert check_finite(a, "grad") is a


class TestSqDist:
    """The squared distance ``nearest`` returns, on one-row tables."""

    @staticmethod
    def sq_dist(a, b):
        return float(nearest(np.array([a], dtype=float), np.array([b], dtype=float))[0][0])

    def test_identical_is_exact_zero(self):
        assert self.sq_dist([1, 0], [1, 0]) == 0.0

    def test_unit_axis_pair(self):
        assert self.sq_dist([1, 0], [0, 1]) == 2.0

    def test_hand_expanded_sum(self):
        assert self.sq_dist([1, 2, 3], [4, 6, 3]) == 25.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            min_semantic_distance([[1.0, 2.0]], [[1.0, 2.0, 3.0]])

    def test_equals_norm_of_difference_squared(self, np_rng):
        for _ in range(50):
            n = int(np_rng.integers(1, 10))
            a, b = np_rng.normal(size=n), np_rng.normal(size=n)
            assert self.sq_dist(a, b) == pytest.approx(np.linalg.norm(a - b) ** 2,
                                                       rel=1e-9, abs=1e-12)


class TestMeanAndPopStd:
    def test_constant_sequence(self):
        assert mean_and_popstd([5, 5, 5]) == (5.0, 0.0)

    def test_zero_two_four(self):
        m, s = mean_and_popstd([0, 2, 4])
        assert m == 2.0
        assert s == pytest.approx(math.sqrt(8.0 / 3.0), rel=1e-12)

    def test_singleton(self):
        assert mean_and_popstd([1]) == (1.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            mean_and_popstd([])

    @pytest.mark.filterwarnings("error")
    def test_a_sum_past_the_float_range_gives_inf_without_a_warning(self):
        assert mean_and_popstd([1e308, 1e308]) == (math.inf, math.inf)
        # a finite mean whose squared deviations overflow
        assert mean_and_popstd([-1e308, 1e308]) == (0.0, math.inf)

    def test_matches_two_pass_oracle(self, np_rng):
        # two-pass oracle in plain python sums, divides by N (population form)
        for _ in range(1000):
            xs = np_rng.normal(loc=np_rng.normal(), size=int(np_rng.integers(1, 30)))
            m_ref = sum(xs) / len(xs)
            s_ref = math.sqrt(sum((x - m_ref) ** 2 for x in xs) / len(xs))
            m, s = mean_and_popstd(xs)
            assert m == pytest.approx(m_ref, abs=1e-12)
            assert s == pytest.approx(s_ref, abs=1e-12)


def broadcast_nearest(points, table):
    """The plain ``(32, C, S)`` broadcast that ``nearest`` must reproduce."""
    n = points.shape[0]
    dist, index = np.empty(n), np.empty(n, dtype=np.intp)
    for start in range(0, n, 32):
        rows = slice(start, start + 32)
        diff = points[rows, None, :] - table[None, :, :]
        d = np.sum(diff * diff, axis=2)
        dist[rows], index[rows] = d.min(axis=1), d.argmin(axis=1)
    return dist, index


def assert_same_bits(points, table):
    """``nearest``, and ``_screen`` given the row norms as the statistics pass
    gives them, both match the broadcast bit for bit."""
    with np.errstate(all="ignore"):
        want_d, want_i = broadcast_nearest(points, table)
        screens = [nearest(points, table), _screen(points, _prepare(table), _row_norms(points))]
    for got_d, got_i in screens:
        assert got_d.dtype == np.float64 and got_i.dtype == np.intp
        # int64 views compare NaN payloads and the sign of zero too
        assert np.array_equal(got_d.view(np.int64), want_d.view(np.int64))
        assert np.array_equal(got_i, want_i)


def nearest_case(rng, n, c, s, scale):
    """Points with exact hits, duplicate table rows and 1-ulp near-ties."""
    table = rng.normal(size=(c, s))
    if c > 2:
        table[c - 1] = table[0]  # a duplicate: the tie goes to row 0
    points = rng.normal(size=(n, s))
    if n:
        hits = rng.integers(0, n, size=max(1, n // 4))
        points[hits] = table[rng.integers(0, c, size=hits.size)]
    if n > 1 and c > 1:
        # midpoints of two rows, nudged by one ulp either way
        ties = rng.integers(0, n, size=max(1, n // 8))
        mid = 0.5 * (table[0] + table[1])
        for t in ties:
            points[t] = np.nextafter(mid, mid + rng.choice([-1.0, 0.0, 1.0]))
    return points * scale, table * scale


# point counts at the edges of a table's screen block, as (whole blocks,
# points more): none, one, a block less one, a block, a block and one, and
# several blocks with a ragged tail
SCREEN_ROWS = ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 5))
# (rows, width) of each table; the 1000-row one screens fewer points per
# block than a statistics chunk of the benchmark's shapes holds
SCREEN_TABLES = ((1, 1), (1, 9), (7, 1), (3, 2), (12, 17), (40, 33), (1000, 3))


class TestNearest:
    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1.0, 1e155])
    @pytest.mark.parametrize("blocks, more", SCREEN_ROWS)
    def test_matches_the_broadcast_bit_for_bit(self, blocks, more, scale):
        rng = np.random.default_rng([blocks, more + 1, 7])
        for c, s in SCREEN_TABLES:
            n = blocks * _screen_rows(c) + more
            assert_same_bits(*nearest_case(rng, n, c, s, scale))

    def test_a_wide_table_screens_in_blocks_smaller_than_a_chunk(self):
        assert _screen_rows(1000) < 128 < 1024 <= _screen_rows(60)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("scale", [1e-170, 1.0, 1e155])
    def test_non_finite_table_entry_matches_the_broadcast(self, bad, scale):
        rng = np.random.default_rng(11)
        points, table = nearest_case(rng, _screen_rows(6) + 1, 6, 5, scale)
        table[2, 3] = bad
        assert_same_bits(points, table)
        table[:, 0] = bad
        assert_same_bits(points, table)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_point_matches_the_broadcast(self, bad):
        rng = np.random.default_rng(12)
        points, table = nearest_case(rng, 40, 6, 5, 1.0)
        points[3, 1] = bad
        points[7] = bad
        assert_same_bits(points, table)
        table[4, 1] = np.inf  # inf - inf in the plain sum
        assert_same_bits(points, table)

    def test_a_row_whose_norm_overflows_is_still_summed(self):
        # |e|^2 of row 0 overflows while |p|^2 and p.e do not: the screen
        # reads inf - inf for that row, yet its plain sum is the smallest
        points, table = np.array([[0.6e154]]), np.array([[1.35e154], [-0.2367e154]])
        assert_same_bits(points, table)
        assert nearest(points, table)[1].tolist() == [0]

    @pytest.mark.parametrize("s", [1, 2, 5])
    def test_row_norms_on_both_sides_of_the_overflow_edge(self, s):
        # sqrt(DBL_MAX) ~ 1.34e154: the rows along +u have |e|^2 = inf, the
        # rows along -u do not.  Points at 0.3..0.55 of the edge reach a +u
        # row first from about 0.4 on, with |p|^2 and, below 0.5, p.e finite.
        rng = np.random.default_rng(15 + s)
        edge = np.sqrt(np.finfo(np.float64).max)
        u = rng.normal(size=s)
        u /= np.linalg.norm(u)
        table = edge * np.outer([1.001, 1.01, 1.05, -0.2, -0.5, -0.999], u)
        points = edge * np.outer(rng.uniform(0.3, 0.55, size=600), u)
        points += 0.01 * edge * rng.normal(size=(600, s))
        assert_same_bits(points, table)

    # at 1e160 the plain sums overflow to inf
    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1.0, 1e150, 1e160])
    def test_finite_inputs_emit_no_runtime_warning(self, scale):
        rng = np.random.default_rng(13)
        points, table = nearest_case(rng, 600, 12, 17, scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            nearest(points, table)

    def test_screen_overflow_emits_no_runtime_warning(self):
        # |p|^2 and |e|^2 overflow at this scale, the plain sums do not
        rng = np.random.default_rng(14)
        table = 1e154 * (1.0 + 0.01 * rng.normal(size=(5, 4)))
        points = table[[2, 0, 4]] + 1e151 * rng.normal(size=(3, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            dist, index = nearest(points, table)
        assert np.all(np.isfinite(dist)) and index.tolist() == [2, 0, 4]
        assert_same_bits(points, table)

    @pytest.mark.parametrize("s", [2, 9, 64])
    def test_points_far_beyond_the_table_on_a_bisector(self, s):
        # |p| = 1e4 |e|: the plain sums round by about eps |p|^2, far more than
        # the exact gap between two rows the points are nearly equidistant
        # from, so their order is the rounding's and only the |p| term of the
        # margin keeps the row attaining the smaller plain sum
        rng = np.random.default_rng(20 + s)
        a, d = rng.normal(size=s), rng.normal(size=s)
        table = np.array([a + d, a - d, a + 3 * d])
        w = rng.normal(size=(400, s))
        w -= np.outer(w @ d / (d @ d), d)  # across d: the same exact distance to rows 0 and 1
        points = a + 1e4 * w / np.linalg.norm(w, axis=1)[:, None]
        assert_same_bits(points, table)

    def test_row_norms_from_1e_minus_3_to_1e3(self):
        # E = max |e| = 1e3 sets every point's margin, so points among the
        # small rows keep several candidates while the others keep one
        rng = np.random.default_rng(16)
        c, s = 40, 9
        table = rng.normal(size=(c, s))
        table *= (np.logspace(-3, 3, c) / np.linalg.norm(table, axis=1))[:, None]
        near = table[rng.integers(0, c, size=500)]
        points = near * (1.0 + 1e-3 * rng.normal(size=near.shape))
        points[:100] = 1e-3 * rng.normal(size=(100, s))
        points[100] = 0.0
        points[101:120] = table[:19]
        assert_same_bits(points, table)

    def test_a_block_with_one_two_candidate_point(self):
        # row 5 duplicates row 2: the point on row 2 keeps both rows, so its
        # block takes the scatter path; every other point keeps one row, so
        # the next block takes the one-candidate path
        rng = np.random.default_rng(18)
        table = rng.normal(size=(6, 4))
        table[5] = table[2]
        points = table[[0, 1, 3, 4]][rng.integers(0, 4, size=2 * _screen_rows(6))]
        points += 1e-3 * rng.normal(size=points.shape)
        points[7] = table[2]
        dist, index = nearest(points, table)
        assert index[7] == 2 and dist[7] == 0.0
        assert_same_bits(points, table)

    def test_the_ulp_floor_covers_rounding_below_the_underflow_threshold(self):
        # On a 2^-537 grid every product and square rounds to a whole number
        # of 2^-1074 ulps and every sum is exact.  In each coordinate
        # q_0 - q_1 exceeds b_0 - b_1 by two ulps, so over S coordinates
        # q_0 - q_1 = 2S - 1 ulps while the plain sums read b_0 = 0 and
        # b_1 = 1 ulp: a margin under 2S - 1 ulps would drop the nearest row.
        s, t = 64, 2.0 ** -537
        points = np.full((1, s), -2.5 * t)
        table = np.array([np.full(s, -1.875 * t), np.full(s, -2.3125 * t)])
        table[1, 0] = -1.75 * t
        dist, index = nearest(points, table)
        assert index.tolist() == [0] and dist.tolist() == [0.0]
        assert_same_bits(points, table)

    @pytest.mark.parametrize("scale", [1e-170, 1.0, 1e155])
    def test_one_prepared_table_screens_every_block_alike(self, scale):
        # the evaluation pass prepares each table once per split and
        # screens it chunk by chunk; every chunk must read as one call
        rng = np.random.default_rng(19)
        points, table = nearest_case(rng, 600, 12, 17, scale)
        table[3, 2] = np.nan
        prepared, norms = _prepare(table), _row_norms(points)
        with np.errstate(all="ignore"):
            want_d, want_i = nearest(points, table)
            for start in (0, 100, 356, 599):
                rows = slice(start, start + 256)
                d, i = _screen(points[rows], prepared, norms[rows])
                assert np.array_equal(d.view(np.int64), want_d[rows].view(np.int64))
                assert np.array_equal(i, want_i[rows])
