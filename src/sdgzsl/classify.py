"""Per-domain classifier slots with a nearest-embedding default.

Both the seen-domain and unseen-domain slots accept any object exposing
``classify(feature_vector) -> class index``; the pipeline routes to one
of the two based on the gate decision and never mixes their index
spaces.  The default scores a candidate class by the negative squared
distance between the projected feature and the class embedding, so it
needs no training beyond the shared semantic mapper.  The evaluation
core computes that default for a whole block of rows at once with the
same ``linalg.nearest``, so it calls a classifier object only for a slot
the caller filled.
"""

from __future__ import annotations

from .linalg import as_table, as_vector, nearest
from .mlp import MlpParams, forward


class NearestEmbeddingClassifier:
    """Nearest projected embedding, ties broken toward the lowest index."""

    def __init__(self, mapper: MlpParams, embeddings):
        self.mapper = mapper
        self.embeddings = as_table(embeddings, mapper.out_dim, "class embeddings")

    def score(self, feature, embedding) -> float:
        """Negative squared distance between projection and one embedding."""
        p = forward(self.mapper, as_vector(feature, "feature"))
        diff = p - as_vector(embedding, "embedding")
        return float(-(diff @ diff))

    def classify(self, feature) -> int:
        p = forward(self.mapper, as_vector(feature, "feature"))
        return int(nearest(p[None, :], self.embeddings)[1][0])
