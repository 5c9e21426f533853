"""Tour of the composite loss: the four components on a single sample, the
warm-up gate, and a finite-difference check of the analytic gradients.
"""

import numpy as np

from flarecast import (
    ClassWeights,
    FlareClass,
    HeadState,
    bss_grad_w,
    bss_loss,
    ce_loss,
    flare_loss,
    ib_factor_bss,
    ib_factor_ce,
    one_hot,
    softmax,
)

rng = np.random.default_rng(0)

# A head state: hidden vector, head weights, logits, softmax probabilities.
state = HeadState.from_hidden(rng.standard_normal(6), rng.standard_normal((4, 6)))
y = one_hot(FlareClass.X)
print("probabilities:", np.round(state.probs, 4), "| true class: X")

print("\nper-sample components:")
print("  cross-entropy:        ", round(ce_loss(y, state.probs), 4))
print("  quadratic (Brier-type):", round(bss_loss(y, state.probs), 4))
print("  CE influence factor:  ", round(ib_factor_ce(state, y), 4))
print("  BSS influence factor: ", round(ib_factor_bss(state, y), 4))

# The BSS influence factor IS the total absolute head-weight gradient: samples
# that push the decision boundary hard get divided down the most.
grad_sum = np.abs(bss_grad_w(state, y)).sum()
print("  sum |d(bss)/dW|:      ", round(float(grad_sum), 4), "(equals the factor)")

# Batch loss with inverse-frequency class weights, before and after warm-up.
batch = [
    (HeadState.from_hidden(rng.standard_normal(6), rng.standard_normal((4, 6))), one_hot(FlareClass(int(k))))
    for k in rng.integers(0, 4, size=8)
]
weights = ClassWeights(np.array([0.66, 0.72, 1.09, 5.62]))  # rare classes weigh more
for ib_active in (False, True):
    b = flare_loss(batch, weights, lambda_bss=3.0, ib_active=ib_active)
    phase = "warm-up (influence terms off)" if not ib_active else "after warm-up"
    print(f"\n{phase}:")
    print(f"  wce={b.wce:.4f} ib_ce={b.ib_ce:.4f} wbss={b.wbss:.4f} ib_bss={b.ib_bss:.4f} total={b.total:.4f}")

# Gradient sanity: analytic logit gradient vs central finite differences,
# holding the influence factors fixed at their current values.
from flarecast.losses import batch_factors_arrays, flare_loss_arrays, gradient_error

probs = np.stack([s.probs for s, _ in batch])
ys = np.stack([t for _, t in batch])
h_l1 = np.array([np.abs(s.hidden).sum() for s, _ in batch])
sample_w = ys @ weights.weights
frozen = batch_factors_arrays(probs, ys, h_l1)
_, analytic = flare_loss_arrays(probs, ys, h_l1, sample_w, 3.0, ib_active=True, frozen_factors=frozen)

logits = np.stack([s.logits for s, _ in batch])
err = gradient_error(
    lambda: flare_loss_arrays(softmax(logits), ys, h_l1, sample_w, 3.0, True, frozen_factors=frozen)[0].total,
    logits,
    analytic,
)
print(f"\nmax relative error, analytic vs finite-difference logit gradient: {err:.2e}")
