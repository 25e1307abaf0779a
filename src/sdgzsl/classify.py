"""Per-domain classifier slots with a nearest-embedding default.

Both the seen-domain and unseen-domain slots accept any object exposing
``classify(feature_rows) -> class indices``: a 2-D batch of feature rows
in, one integer index per row out, inside the slot's own domain.  The
pipeline calls a slot once per split with the rows gated into its domain
and never mixes the two index spaces.  The default picks, for each row,
the class embedding nearest (in squared distance) to the row's
projection, so it needs no training beyond the shared semantic mapper.
The evaluation core computes that default itself with the same
``linalg.nearest``, so it calls a classifier object only for a slot the
caller filled.
"""

from __future__ import annotations

import numpy as np

from .linalg import as_matrix, as_table, nearest
from .mlp import MlpParams, forward_batch


class NearestEmbeddingClassifier:
    """Nearest projected embedding, ties broken toward the lowest index."""

    def __init__(self, mapper: MlpParams, embeddings):
        self.mapper = mapper
        self.embeddings = as_table(embeddings, mapper.out_dim, "class embeddings")

    def classify(self, rows) -> np.ndarray:
        """Index of the nearest class embedding for each feature row."""
        proj = forward_batch(self.mapper, as_matrix(rows, "feature rows"))
        return nearest(proj, self.embeddings)[1]
