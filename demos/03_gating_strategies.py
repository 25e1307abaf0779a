"""Look inside the discriminator: statistics, thresholds, and the three rules.

Seen instances project close to an embedding of the right norm, so both
their length gap and their minimum distance to the seen table stay small.
Unseen instances were never part of the regression, so the mapper sends
them somewhere with the wrong norm and far from every seen embedding.
The thresholds are simply mean + population std of the seen statistics.
The statistics shown here are the ones ``evaluate`` gates on, bit for bit:
``forward_batch`` is the projection of its statistics pass.
"""

import numpy as np

from sdgzsl import (
    SyntheticSpec,
    TrainConfig,
    calibrate,
    gate_statistics,
    generate_synthetic,
    train,
)
from sdgzsl.gates import GATE_FUNCTIONS
from sdgzsl.mlp import forward_batch

ds = generate_synthetic(SyntheticSpec(10, 3, 32, 16, 50, 20, 0.05, seed=7))
params, _ = train(ds, TrainConfig())


def stats_for(xs):
    """(d_l, msd) of every row of ``xs``, as two vectors: the bits ``evaluate`` reads."""
    return gate_statistics(forward_batch(params, xs), ds.seen_emb, ds.unified_norm)


seen_dl, seen_msd = stats_for(ds.seen_test_x)
unseen_dl, unseen_msd = stats_for(ds.unseen_test_x)

print("== statistic separation (test splits) ==")
print(f"seen   d_l: mean={seen_dl.mean():.4f}  p95={np.percentile(seen_dl, 95):.4f}")
print(f"unseen d_l: mean={unseen_dl.mean():.4f}  p5 ={np.percentile(unseen_dl, 5):.4f}")
print(f"seen   msd: mean={seen_msd.mean():.4f}  p95={np.percentile(seen_msd, 95):.4f}")
print(f"unseen msd: mean={unseen_msd.mean():.4f}  p5 ={np.percentile(unseen_msd, 5):.4f}")

th = calibrate(params, ds, lam=1.0)
print("\n== calibrated thresholds (mean + pop-std of seen TRAIN statistics) ==")
print(f"r_ol = {th.m_dl:.4f} + {th.std_dl:.4f} = {th.r_ol:.4f}")
print(f"r_0  = {th.m_msd:.4f} + 2*{th.std_msd:.4f} = {th.r_0:.4f}")
print(f"r_1  = {th.m_msd:.4f} + {th.std_msd:.4f} = {th.r_1:.4f}")
print(f"r_ws = {th.m_ws:.4f} + {th.std_ws:.4f} = {th.r_ws:.4f}   (lambda = {th.lam})")

print("\n== the three rules on a few instances ==")
names = [f"seen/{y}" for y in ds.seen_test_y[:4]] + [f"unseen/{y}" for y in ds.unseen_test_y[:4]]
d_l = np.concatenate([seen_dl[:4], unseen_dl[:4]])
msd = np.concatenate([seen_msd[:4], unseen_msd[:4]])
# one mask per rule over all eight rows, shown as the gated domain
gated = {tag: np.where(rule(d_l, msd, th), "seen", "unseen")
         for tag, rule in GATE_FUNCTIONS.items()}
print(f"{'instance':<14} {'d_l':>7} {'msd':>7}   ol      dl      ws")
for name, d, m, ol, dl, ws in zip(names, d_l, msd, gated["ol"], gated["dl"], gated["ws"]):
    print(f"{name:<14} {d:>7.4f} {m:>7.4f}   {ol:<7} {dl:<7} {ws}")

print("\n== gate quality per strategy (balanced accuracy on the test splits) ==")
for tag, rule in GATE_FUNCTIONS.items():
    seen_ok = rule(seen_dl, seen_msd, th).mean()
    unseen_ok = 1.0 - rule(unseen_dl, unseen_msd, th).mean()
    print(f"{tag}: seen recall {seen_ok:.3f}, unseen recall {unseen_ok:.3f}, "
          f"balanced {(seen_ok + unseen_ok) / 2:.3f}")
