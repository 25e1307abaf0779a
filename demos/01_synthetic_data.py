"""Generate a synthetic seen/unseen benchmark and poke at its structure.

The generator draws one unit direction per class in semantic space, maps
it through a fixed random linear map to get a feature-space center, and
scatters instances around that center with Gaussian noise.  Unseen
directions are resampled until they are genuinely far (cosine <= 0.95)
from every seen embedding.
"""

import tempfile
from pathlib import Path

import numpy as np

from sdgzsl import SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from sdgzsl.data import summarize

spec = SyntheticSpec(
    n_seen_classes=10,
    n_unseen_classes=3,
    feature_dim=32,
    semantic_dim=16,
    per_class_train=50,
    per_class_test=20,
    cluster_spread=0.05,
    seed=7,
)
ds = generate_synthetic(spec)

print("== dataset summary ==")
print(summarize(ds))

print("\n== embedding geometry ==")
seen_norms = np.sqrt((ds.seen_emb**2).sum(axis=1))
unseen_norms = np.sqrt((ds.unseen_emb**2).sum(axis=1))
print(f"seen embedding norms:   min={seen_norms.min():.12f} max={seen_norms.max():.12f}")
print(f"unseen embedding norms: min={unseen_norms.min():.12f} max={unseen_norms.max():.12f}")
cos = ds.unseen_emb @ ds.seen_emb.T / ds.unified_norm**2
print(f"max cosine between any unseen and seen embedding: {cos.max():.4f} (capped at 0.95)")

print("\n== per-class cluster tightness ==")
for c in range(3):
    rows = ds.seen_train_x[ds.seen_train_y == c]
    center = rows.mean(axis=0)
    spread = np.sqrt(((rows - center) ** 2).sum(axis=1)).mean()
    print(f"seen class {c}: {len(rows)} train instances, mean distance to center {spread:.4f}")

print("\n== disk round trip ==")
with tempfile.TemporaryDirectory() as td:
    out = save_dataset(ds, Path(td) / "bench")
    reloaded = load_dataset(out)
    diff = max(
        np.abs(getattr(ds, f) - getattr(reloaded, f)).max()
        for f in ("seen_train_x", "seen_test_x", "unseen_test_x", "seen_emb", "unseen_emb")
    )
    files = sorted(p.name for p in out.iterdir())
    print(f"wrote {files}")
    print(f"largest save->load difference: {diff:.3g} (exact: both sides use normalize_embeddings)")
