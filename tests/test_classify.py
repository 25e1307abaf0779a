import numpy as np
import pytest

from sdgzsl import (
    DomainError,
    NearestEmbeddingClassifier,
    ShapeError,
    SplitMix64,
)
from sdgzsl.mlp import MlpParams, forward
from sdgzsl.mlp import init_params


def identity_mapper(dim):
    return MlpParams([np.eye(dim)], [np.zeros(dim)], ["linear"]).validate()


class TestNearestEmbedding:
    def test_exact_hit(self, np_rng):
        emb = np_rng.normal(size=(5, 4))
        mapper = identity_mapper(4)
        assert NearestEmbeddingClassifier(mapper, emb).classify(emb[3]) == 3

    def test_tie_breaks_to_lowest_index(self):
        mapper = identity_mapper(2)
        table = np.array([[5.0, 5.0], [1.0, 0.0], [0.0, 1.0]])
        # [0, 0] is exactly equidistant from rows 1 and 2
        assert NearestEmbeddingClassifier(mapper, table).classify(np.zeros(2)) == 1

    def test_matches_brute_force_oracle(self, np_rng):
        mapper = init_params(6, [5], 4, SplitMix64(31))
        emb = np_rng.normal(size=(5, 4))
        for _ in range(50):
            x = np_rng.normal(size=6)
            p = forward(mapper, x)
            best, best_d = 0, float("inf")
            for idx, row in enumerate(emb):
                d = float(((p - row) ** 2).sum())
                if d < best_d:
                    best, best_d = idx, d
            assert NearestEmbeddingClassifier(mapper, emb).classify(x) == best

    def test_single_class_domain(self, np_rng):
        mapper = identity_mapper(3)
        emb = np_rng.normal(size=(1, 3))
        for _ in range(10):
            assert NearestEmbeddingClassifier(mapper, emb).classify(np_rng.normal(size=3)) == 0

    def test_empty_table_rejected(self):
        with pytest.raises(DomainError):
            NearestEmbeddingClassifier(identity_mapper(3), np.empty((0, 3)))

    def test_dim_mismatch_rejected(self, np_rng):
        with pytest.raises(ShapeError):
            NearestEmbeddingClassifier(identity_mapper(3), np_rng.normal(size=(4, 5)))

    def test_score_scale_invariance(self, np_rng):
        # rescaling all scores by a positive constant preserves the argmax
        mapper = init_params(4, [], 3, SplitMix64(8))
        emb = np_rng.normal(size=(6, 3))
        clf = NearestEmbeddingClassifier(mapper, emb)
        for _ in range(20):
            x = np_rng.normal(size=4)
            scores = np.array([clf.score(x, row) for row in emb])
            chosen = clf.classify(x)
            assert int(np.argmax(scores)) == chosen
            assert int(np.argmax(2.5 * scores)) == chosen

    def test_ranges_stay_inside_their_table(self, bench_dataset, bench_mapper):
        params, _ = bench_mapper
        seen = NearestEmbeddingClassifier(params, bench_dataset.seen_emb)
        unseen = NearestEmbeddingClassifier(params, bench_dataset.unseen_emb)
        for x in bench_dataset.seen_test_x[:40]:
            assert 0 <= seen.classify(x) < bench_dataset.n_seen_classes
            assert 0 <= unseen.classify(x) < bench_dataset.n_unseen_classes
