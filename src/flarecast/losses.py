"""Composite loss family for a softmax head under severe class imbalance.

Four ingredients, combined per batch:

* weighted cross-entropy (inverse-frequency class weights),
* its influence-balanced variant, which divides each sample's loss by the
  magnitude of its gradient influence on the final layer,
* a weighted quadratic probability loss (squared error between the predicted
  distribution and the one-hot target),
* the influence-balanced variant of that quadratic loss, with the weighting
  factor derived analytically from the loss gradient w.r.t. the head weights.

The influence terms are gated by ``ib_active`` so trainers can disable them
during a warm-up phase. Influence factors are always treated as detached
per-sample constants when differentiating.

The batch math is one function, :func:`flare_loss_arrays`, which every training
step, ``gradcheck`` and the tests call: it takes per-row arrays (probabilities,
target distributions, head-input L1 norms, sample weights) and returns a checked
:class:`LossBreakdown`, whose total :meth:`LossBreakdown.of` forms for a batch
or an epoch, with the logit gradient. The Brier logit gradient exists once; the
loss computes it and the residual ``probs - ys`` once per batch and shares both
with the influence factors, which :func:`batch_factors_arrays` also exposes.
:func:`gradient_error` is the one central-difference check, shared by the
trainer's first-batch verification and ``gradcheck``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = [
    "LossBreakdown",
    "softmax",
    "batch_factors_arrays",
    "flare_loss_arrays",
    "gradient_error",
]

PROB_FLOOR = 1e-12   # floor inside logarithms; keeps CE finite on saturated softmax
FACTOR_FLOOR = 1e-8  # floor for influence factors, which vanish at perfect predictions
FD_STEP = 1e-6  # central-difference step of gradient_error


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    z = np.asarray(logits, dtype=float)
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _bss_logit_grad(probs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Gradient of each row's squared error ``sum_k (p_k - y_k)^2`` w.r.t. its
    logits: ``2 p_k (delta_k - delta . p)`` with ``delta = probs - ys``."""
    return _bss_grad_of_delta(probs, probs - ys)


def _bss_grad_of_delta(probs: np.ndarray, delta: np.ndarray) -> np.ndarray:
    return 2.0 * probs * (delta - np.add.reduce(delta * probs, axis=1, keepdims=True))


@dataclass(frozen=True)
class LossBreakdown:
    """Loss components of a batch or an epoch's weighted means. Influence terms are exactly 0 when inactive."""

    wce: float
    ib_ce: float
    wbss: float
    ib_bss: float
    total: float
    ib_active: bool

    def __post_init__(self) -> None:
        parts = (self.wce, self.ib_ce, self.wbss, self.ib_bss, self.total)
        if not all(math.isfinite(v) for v in parts):
            raise ValueError("loss components must be finite")

    @classmethod
    def of(cls, terms, lambda_bss: float, ib_active: bool) -> "LossBreakdown":
        """The breakdown of the terms ``(wce, ib_ce, wbss, ib_bss)`` with their composite total."""
        wce, ib_ce, wbss, ib_bss = terms
        return cls(wce, ib_ce, wbss, ib_bss, (wce + ib_ce) + lambda_bss * (wbss + ib_bss), ib_active)


def batch_factors_arrays(probs: np.ndarray, ys: np.ndarray, hidden_l1: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized influence factors (CE factor, quadratic factor) per sample."""
    delta = probs - ys
    return _factors(delta, _bss_grad_of_delta(probs, delta), hidden_l1)


def _factors(delta: np.ndarray, bss_grad: np.ndarray, hidden_l1: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Influence factors ``||delta||_1 ||h||_1`` and ``||bss_grad||_1 ||h||_1`` from a batch's residual
    ``delta = probs - ys`` and Brier logit gradient: each is the L1 norm of its term's head-weight gradient."""
    f_ce = np.add.reduce(np.abs(delta), axis=1) * hidden_l1
    f_bss = np.add.reduce(np.abs(bss_grad), axis=1) * hidden_l1
    return np.maximum(f_ce, FACTOR_FLOOR), np.maximum(f_bss, FACTOR_FLOOR)


def flare_loss_arrays(
    probs: np.ndarray,
    ys: np.ndarray,
    hidden_l1: np.ndarray,
    sample_weights: np.ndarray,
    lambda_bss: float,
    ib_active: bool,
    frozen_factors: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[LossBreakdown, np.ndarray]:
    """Vectorized composite loss over a batch and its gradient w.r.t. every
    sample's logits (B x 4).

    Each row of ``ys`` is a target distribution: one-hot in training, and
    soft targets are accepted. The influence factors are computed once per
    batch (or taken from ``frozen_factors``) and detached: each acts as a
    fixed per-sample scale and is not differentiated through; ``hidden_l1`` is
    read only to compute them. A non-finite term or total raises ValueError.
    """
    b = probs.shape[0]
    if b == 0:
        raise ValueError("empty batch")
    ce = -np.add.reduce(ys * np.log(np.maximum(probs, PROB_FLOOR)), axis=1)
    delta = probs - ys
    bss = np.add.reduce(delta * delta, axis=1)
    bss_grad = _bss_grad_of_delta(probs, delta)
    w_ce = sample_weights * ce
    w_bss = sample_weights * bss
    wce = float(np.add.reduce(w_ce)) / b
    wbss = float(np.add.reduce(w_bss)) / b
    w = sample_weights / b
    if ib_active:
        if frozen_factors is None:
            frozen_factors = _factors(delta, bss_grad, hidden_l1)
        f_ce, f_bss = frozen_factors
        ib_ce = float(np.add.reduce(w_ce / f_ce)) / b
        ib_bss = float(np.add.reduce(w_bss / f_bss)) / b
        ce_w = w * (1.0 + 1.0 / f_ce)
        bss_w = w * (lambda_bss + lambda_bss / f_bss)
    else:
        ib_ce = 0.0
        ib_bss = 0.0
        ce_w = w  # w * 1.0, exactly
        bss_w = w * lambda_bss
    breakdown = LossBreakdown.of((wce, ib_ce, wbss, ib_bss), lambda_bss, ib_active)
    return breakdown, ce_w[:, None] * delta + bss_w[:, None] * bss_grad


def gradient_error(f: Callable[[], float], x: np.ndarray, analytic: np.ndarray) -> float:
    """Relative error of an analytic gradient against central differences.

    ``f`` evaluates the scalar function at the current contents of the
    contiguous array ``x``; each entry of ``x`` is moved by ``FD_STEP`` in
    place on both sides and then restored exactly. The error is
    ``max |analytic - fd| / max(1, max |analytic|)``. A non-contiguous ``x``
    raises ValueError: its ``ravel`` is a copy, which the moves would miss.
    """
    if not x.flags.c_contiguous:
        raise ValueError("gradient_error needs a C-contiguous x: its ravel() would be a copy that f never reads")
    flat = x.ravel()
    fd = np.empty(flat.size)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        up = f()
        flat[i] = orig - FD_STEP
        down = f()
        flat[i] = orig
        fd[i] = (up - down) / (2.0 * FD_STEP)
    a = np.asarray(analytic, dtype=float).ravel()
    return float(np.max(np.abs(a - fd))) / max(1.0, float(np.max(np.abs(a))))
