"""End-to-end evaluation: gated strategies vs the no-gate baseline.

The headline number is the harmonic mean H of the per-class top-1
accuracies on the seen and unseen test splits.  A plain nearest-embedding
scan over the union of both tables collapses on the unseen side (the
mapper was only fit on seen classes), which is exactly the failure the
gate exists to prevent.
"""

from sdgzsl import (
    SyntheticSpec,
    TrainConfig,
    calibrate,
    evaluate_sweep,
    generate_synthetic,
    train,
)
from sdgzsl.gates import Domain
from sdgzsl.pipeline import render_report_text

ds = generate_synthetic(SyntheticSpec(10, 3, 32, 16, 50, 20, 0.05, seed=7))
params, history = train(ds, TrainConfig())
print(f"mapper trained, final loss {history[-1]:.4f}")

th = calibrate(params, ds)
# one pass over each test split serves the three gates and the baseline
reports = evaluate_sweep(params, th, ds)

print(f"\n{'strategy':<8} {'acc_s':>7} {'acc_u':>7} {'H':>7} {'balanced gate':>14}")
for r in reports:
    print(f"{r.strategy:<8} {r.acc_s:>7.3f} {r.acc_u:>7.3f} {r.h:>7.3f} "
          f"{r.balanced_gate_accuracy():>14.3f}")

best = max(reports, key=lambda r: r.h)
print(f"\nbest H: {best.strategy} at {best.h:.3f}")

nogate = reports[-1]
leak = nogate.gate_confusion[(Domain.UNSEEN, Domain.SEEN)]
total = leak + nogate.gate_confusion[(Domain.UNSEEN, Domain.UNSEEN)]
print(f"without a gate, {leak}/{total} unseen instances are pulled into the seen table")

print("\n== full report for the best strategy ==")
print(render_report_text(best))
