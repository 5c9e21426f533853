"""Tour of the composite loss on its array API: the four components and the
influence factors of one sample, the warm-up gate on a batch, and a
finite-difference check of the analytic logit gradient.

Everything is a per-row array: probabilities (B, 4), one-hot targets (B, 4),
the L1 norm of each row's head input (B,) and per-sample weights (B,).
"""

import numpy as np

from flarecast import ClassWeights, flare_loss_arrays, softmax
from flarecast.losses import batch_factors_arrays, gradient_error

rng = np.random.default_rng(0)

# One sample: head input h, head weights W, probabilities softmax(W h).
h = rng.standard_normal(6)
w = rng.standard_normal((4, 6))
probs = softmax(w @ h)[None, :]
y = np.eye(4)[[3]]  # true class X
h_l1 = np.abs(h).sum(keepdims=True)
print("probabilities:", np.round(probs[0], 4), "| true class: X")

# With unit weight and the influence terms off, the kernel's wce and wbss are
# this sample's cross-entropy and squared error.
one, _ = flare_loss_arrays(probs, y, h_l1, np.ones(1), lambda_bss=1.0, ib_active=False)
f_ce, f_bss = batch_factors_arrays(probs, y, h_l1)
print("\nper-sample components:")
print("  cross-entropy:        ", round(one.wce, 4))
print("  quadratic (Brier-type):", round(one.wbss, 4))
print("  CE influence factor:  ", round(float(f_ce[0]), 4))
print("  BSS influence factor: ", round(float(f_bss[0]), 4))

# The BSS influence factor IS the total absolute head-weight gradient
# sum_kl |2 h_l p_k (delta_k - delta . p)|: samples that push the decision
# boundary hard get divided down the most.
delta = probs[0] - y[0]
grad_w = np.outer(2.0 * probs[0] * (delta - delta @ probs[0]), h)
print("  sum |d(bss)/dW|:      ", round(float(np.abs(grad_w).sum()), 4), "(equals the factor)")

# A batch through one shared head, with inverse-frequency class weights,
# before and after warm-up.
hidden = rng.standard_normal((8, 6))
logits = hidden @ w.T
labels = rng.integers(0, 4, size=8)
ys = np.eye(4)[labels]
h_l1 = np.abs(hidden).sum(axis=1)
sample_w = ClassWeights(np.array([0.66, 0.72, 1.09, 5.62])).weights[labels]  # rare classes weigh more
for ib_active in (False, True):
    b, _ = flare_loss_arrays(softmax(logits), ys, h_l1, sample_w, lambda_bss=3.0, ib_active=ib_active)
    phase = "warm-up (influence terms off)" if not ib_active else "after warm-up"
    print(f"\n{phase}:")
    print(f"  wce={b.wce:.4f} ib_ce={b.ib_ce:.4f} wbss={b.wbss:.4f} ib_bss={b.ib_bss:.4f} total={b.total:.4f}")

# Gradient sanity: analytic logit gradient vs central finite differences,
# holding the influence factors fixed at their current values.
frozen = batch_factors_arrays(softmax(logits), ys, h_l1)
_, analytic = flare_loss_arrays(softmax(logits), ys, h_l1, sample_w, 3.0, ib_active=True, frozen_factors=frozen)
err = gradient_error(
    lambda: flare_loss_arrays(softmax(logits), ys, h_l1, sample_w, 3.0, True, frozen_factors=frozen)[0].total,
    logits,
    analytic,
)
print(f"\nmax relative error, analytic vs finite-difference logit gradient: {err:.2e}")
