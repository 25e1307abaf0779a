import numpy as np
import pytest

from sdgzsl import (
    DomainError,
    NearestEmbeddingClassifier,
    ShapeError,
    SplitMix64,
)
from sdgzsl.mlp import MlpParams, forward_batch, init_params


def identity_mapper(dim):
    return MlpParams([np.eye(dim)], [np.zeros(dim)], ["linear"]).validate()


class TestNearestEmbedding:
    def test_exact_hit(self, np_rng):
        emb = np_rng.normal(size=(5, 4))
        mapper = identity_mapper(4)
        assert NearestEmbeddingClassifier(mapper, emb).classify(emb).tolist() == [0, 1, 2, 3, 4]

    def test_tie_breaks_to_lowest_index(self):
        mapper = identity_mapper(2)
        table = np.array([[5.0, 5.0], [1.0, 0.0], [0.0, 1.0]])
        # [0, 0] is exactly equidistant from rows 1 and 2
        assert NearestEmbeddingClassifier(mapper, table).classify(np.zeros((3, 2))).tolist() == [1] * 3

    def test_matches_brute_force_oracle(self, np_rng):
        mapper = init_params(6, [5], 4, SplitMix64(31))
        emb = np_rng.normal(size=(5, 4))
        xs = np_rng.normal(size=(50, 6))
        expected = []
        for p in forward_batch(mapper, xs):
            best, best_d = 0, float("inf")
            for idx, row in enumerate(emb):
                d = float(((p - row) ** 2).sum())
                if d < best_d:
                    best, best_d = idx, d
            expected.append(best)
        assert NearestEmbeddingClassifier(mapper, emb).classify(xs).tolist() == expected

    def test_single_class_domain(self, np_rng):
        mapper = identity_mapper(3)
        emb = np_rng.normal(size=(1, 3))
        classes = NearestEmbeddingClassifier(mapper, emb).classify(np_rng.normal(size=(10, 3)))
        assert classes.tolist() == [0] * 10

    def test_empty_table_rejected(self):
        with pytest.raises(DomainError):
            NearestEmbeddingClassifier(identity_mapper(3), np.empty((0, 3)))

    def test_dim_mismatch_rejected(self, np_rng):
        with pytest.raises(ShapeError):
            NearestEmbeddingClassifier(identity_mapper(3), np_rng.normal(size=(4, 5)))

    def test_score_scale_invariance(self, np_rng):
        # the chosen class maximises the score -|p - e|^2, and rescaling all
        # scores by a positive constant preserves that argmax
        mapper = init_params(4, [], 3, SplitMix64(8))
        emb = np_rng.normal(size=(6, 3))
        xs = np_rng.normal(size=(20, 4))
        diff = forward_batch(mapper, xs)[:, None, :] - emb[None, :, :]
        scores = -np.sum(diff * diff, axis=2)
        chosen = NearestEmbeddingClassifier(mapper, emb).classify(xs)
        assert np.array_equal(np.argmax(scores, axis=1), chosen)
        assert np.array_equal(np.argmax(2.5 * scores, axis=1), chosen)

    def test_a_single_row_must_come_as_a_batch(self):
        clf = NearestEmbeddingClassifier(identity_mapper(3), np.eye(3))
        with pytest.raises(ShapeError):
            clf.classify(np.zeros(3))
        assert clf.classify(np.zeros((1, 3))).shape == (1,)

    def test_ranges_stay_inside_their_table(self, bench_dataset, bench_mapper):
        params, _ = bench_mapper
        seen = NearestEmbeddingClassifier(params, bench_dataset.seen_emb)
        unseen = NearestEmbeddingClassifier(params, bench_dataset.unseen_emb)
        xs = bench_dataset.seen_test_x[:40]
        for clf, n in ((seen, bench_dataset.n_seen_classes), (unseen, bench_dataset.n_unseen_classes)):
            classes = clf.classify(xs)
            assert classes.shape == (40,) and np.issubdtype(classes.dtype, np.integer)
            assert 0 <= classes.min() and classes.max() < n
