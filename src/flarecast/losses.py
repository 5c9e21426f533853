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

Per-sample functions are the reference implementations. The batch math has
one kernel, :func:`flare_loss_arrays`, which returns the loss breakdown and
its logit gradient together; the list API here and the trainer's hot path
both go through it. :func:`gradient_error` is the one central-difference
check, shared by the trainer's first-batch verification and ``gradcheck``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .core import N_CLASSES, ClassWeights, _frozen

__all__ = [
    "HeadState",
    "LossBreakdown",
    "softmax",
    "residual",
    "ce_loss",
    "bss_loss",
    "bss_grad_w",
    "ib_factor_bss",
    "ib_factor_ce",
    "flare_loss",
    "flare_loss_grad",
    "gradient_error",
]

PROB_FLOOR = 1e-12   # floor inside logarithms; keeps CE finite on saturated softmax
FACTOR_FLOOR = 1e-8  # floor for influence factors, which vanish at perfect predictions
FD_STEP = 1e-6  # central-difference step of gradient_error

IB_CE_MODES = ("residual", "literal")


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    z = np.asarray(logits, dtype=float)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class HeadState:
    """Final-layer snapshot for one sample: hidden vector, head weights, logits, probabilities."""

    hidden: np.ndarray
    weights: np.ndarray
    logits: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        h = np.asarray(self.hidden, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        z = np.asarray(self.logits, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if h.ndim != 1 or w.shape != (N_CLASSES, h.shape[0]) or z.shape != (N_CLASSES,) or p.shape != (N_CLASSES,):
            raise ValueError("inconsistent head-state shapes")
        if np.max(np.abs(z - w @ h)) > 1e-9:
            raise ValueError("logits do not match weights @ hidden")
        if np.max(np.abs(p - softmax(z))) > 1e-12 or abs(float(p.sum()) - 1.0) > 1e-12:
            raise ValueError("probabilities do not match softmax of logits")
        for name, arr in (("hidden", h), ("weights", w), ("logits", z), ("probs", p)):
            object.__setattr__(self, name, _frozen(arr.copy()))

    @classmethod
    def from_hidden(cls, hidden, weights) -> "HeadState":
        h = np.asarray(hidden, dtype=float)
        w = np.asarray(weights, dtype=float)
        z = w @ h
        return cls(h, w, z, softmax(z))


def residual(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Prediction residual ``probs - y``; components sum to zero within 1e-12."""
    d = np.asarray(probs, dtype=float) - np.asarray(y, dtype=float)
    if abs(float(d.sum())) > 1e-12:
        raise ValueError("residual does not sum to zero; inputs are not a distribution/one-hot pair")
    return d


def ce_loss(y: np.ndarray, probs: np.ndarray) -> float:
    """Cross-entropy of one sample, ``-sum_k y_k log p_k``, with floored probabilities."""
    p = np.maximum(np.asarray(probs, dtype=float), PROB_FLOOR)
    return float(-(np.asarray(y, dtype=float) * np.log(p)).sum())


def bss_loss(y: np.ndarray, probs: np.ndarray) -> float:
    """Squared error between the predicted distribution and the one-hot target, in [0, 2]."""
    d = np.asarray(probs, dtype=float) - np.asarray(y, dtype=float)
    return float((d * d).sum())


def _bss_logit_grad(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d(bss_loss)/d(logits): ``2 p_k (delta_k - delta . p)`` per class k."""
    d = probs - y
    return 2.0 * probs * (d - float(d @ probs))


def bss_grad_w(state: HeadState, y: np.ndarray) -> np.ndarray:
    """Analytic gradient of :func:`bss_loss` w.r.t. the head weight matrix.

    Entry (k, l) is ``2 h_l p_k (delta_k - sum_j delta_j p_j)`` with
    ``delta = probs - y``.
    """
    coef = _bss_logit_grad(state.probs, np.asarray(y, dtype=float))
    return np.outer(coef, state.hidden)


def ib_factor_bss(state: HeadState, y: np.ndarray) -> float:
    """Influence factor of the quadratic loss: total absolute head-weight gradient.

    Equals ``2 ||p * (delta - (delta . p))||_1 * ||h||_1``, which is exactly
    ``sum_kl |d(bss_loss)/dw_kl|``. Floored at ``FACTOR_FLOOR`` since it
    vanishes for perfect predictions.
    """
    d = residual(state.probs, y)
    val = 2.0 * float(np.abs(state.probs * (d - float(d @ state.probs))).sum()) * float(
        np.abs(state.hidden).sum()
    )
    return max(val, FACTOR_FLOOR)


def ib_factor_ce(state: HeadState, y: np.ndarray, mode: str = "residual") -> float:
    """Influence factor used with the cross-entropy term.

    ``mode="residual"`` (default): ``||p - y||_1 * ||h||_1``, proportional to
    the absolute head-weight gradient of the cross-entropy. ``mode="literal"``
    is the degenerate compatibility form ``||p||_1 * ||h||_1``, constant in p
    for softmax outputs. Both are floored at ``FACTOR_FLOOR``.
    """
    if mode not in IB_CE_MODES:
        raise ValueError(f"unknown influence-factor mode {mode!r}")
    h_l1 = float(np.abs(state.hidden).sum())
    if mode == "residual":
        val = float(np.abs(residual(state.probs, y)).sum()) * h_l1
    else:
        val = float(np.abs(state.probs).sum()) * h_l1
    return max(val, FACTOR_FLOOR)


@dataclass(frozen=True)
class LossBreakdown:
    """Per-batch loss components. Influence terms are exactly 0 when inactive."""

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


def _stack_batch(
    batch: Sequence[Tuple[HeadState, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    if len(batch) == 0:
        raise ValueError("empty batch")
    probs = np.stack([s.probs for s, _ in batch])
    ys = np.stack([np.asarray(y, dtype=float) for _, y in batch])
    h_l1 = np.array([float(np.abs(s.hidden).sum()) for s, _ in batch])
    return probs, ys, h_l1


def batch_factors_arrays(
    probs: np.ndarray, ys: np.ndarray, hidden_l1: np.ndarray, ib_ce_mode: str = "residual"
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized influence factors (CE factor, quadratic factor) per sample."""
    if ib_ce_mode not in IB_CE_MODES:
        raise ValueError(f"unknown influence-factor mode {ib_ce_mode!r}")
    delta = probs - ys
    if ib_ce_mode == "residual":
        f_ce = np.abs(delta).sum(axis=1) * hidden_l1
    else:
        f_ce = np.abs(probs).sum(axis=1) * hidden_l1
    dp = (delta * probs).sum(axis=1, keepdims=True)
    f_bss = 2.0 * np.abs(probs * (delta - dp)).sum(axis=1) * hidden_l1
    return np.maximum(f_ce, FACTOR_FLOOR), np.maximum(f_bss, FACTOR_FLOOR)


def flare_loss_arrays(
    probs: np.ndarray,
    ys: np.ndarray,
    hidden_l1: np.ndarray,
    sample_weights: np.ndarray,
    lambda_bss: float,
    ib_active: bool,
    ib_ce_mode: str = "residual",
    frozen_factors: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[LossBreakdown, np.ndarray]:
    """Vectorized composite loss over a batch and its gradient w.r.t. every
    sample's logits (B x 4).

    The influence factors are computed once per batch (or taken from
    ``frozen_factors``) and detached: each acts as a fixed per-sample scale
    and is not differentiated through.
    """
    b = probs.shape[0]
    if b == 0:
        raise ValueError("empty batch")
    ce = -(ys * np.log(np.maximum(probs, PROB_FLOOR))).sum(axis=1)
    delta = probs - ys
    bss = (delta * delta).sum(axis=1)
    wce = float((sample_weights * ce).sum() / b)
    wbss = float((sample_weights * bss).sum() / b)
    ce_scale = np.ones(b)
    bss_scale = np.full(b, lambda_bss)
    if ib_active:
        f_ce, f_bss = (
            frozen_factors
            if frozen_factors is not None
            else batch_factors_arrays(probs, ys, hidden_l1, ib_ce_mode)
        )
        ib_ce = float((sample_weights * ce / f_ce).sum() / b)
        ib_bss = float((sample_weights * bss / f_bss).sum() / b)
        ce_scale = ce_scale + 1.0 / f_ce
        bss_scale = bss_scale + lambda_bss / f_bss
    else:
        ib_ce = 0.0
        ib_bss = 0.0
    total = (wce + ib_ce) + lambda_bss * (wbss + ib_bss)
    breakdown = LossBreakdown(wce=wce, ib_ce=ib_ce, wbss=wbss, ib_bss=ib_bss, total=total, ib_active=ib_active)
    dp = (delta * probs).sum(axis=1, keepdims=True)
    bss_grad = 2.0 * probs * (delta - dp)
    w = sample_weights / b
    return breakdown, (w * ce_scale)[:, None] * delta + (w * bss_scale)[:, None] * bss_grad


def _batch_arrays(
    batch: Sequence[Tuple[HeadState, np.ndarray]], weights: ClassWeights
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    probs, ys, h_l1 = _stack_batch(batch)
    sample_w = ys @ weights.weights
    return probs, ys, h_l1, sample_w


def flare_loss(
    batch: Sequence[Tuple[HeadState, np.ndarray]],
    weights: ClassWeights,
    lambda_bss: float,
    ib_active: bool,
    ib_ce_mode: str = "residual",
    frozen_factors: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> LossBreakdown:
    """Composite loss of a batch of (head state, one-hot label) pairs.

    ``total = (wce + ib_ce) + lambda_bss * (wbss + ib_bss)`` where the
    influence terms are exactly zero while ``ib_active`` is false (warm-up).
    ``frozen_factors`` substitutes precomputed per-sample influence factors,
    which finite-difference checks need to hold constant.
    """
    if lambda_bss < 0.0:
        raise ValueError("lambda_bss must be non-negative")
    probs, ys, h_l1, sample_w = _batch_arrays(batch, weights)
    return flare_loss_arrays(probs, ys, h_l1, sample_w, lambda_bss, ib_active, ib_ce_mode, frozen_factors)[0]


def flare_loss_grad(
    batch: Sequence[Tuple[HeadState, np.ndarray]],
    weights: ClassWeights,
    lambda_bss: float,
    ib_active: bool,
    ib_ce_mode: str = "residual",
    frozen_factors: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> List[np.ndarray]:
    """Per-sample gradients of :func:`flare_loss` w.r.t. each sample's logits."""
    if lambda_bss < 0.0:
        raise ValueError("lambda_bss must be non-negative")
    probs, ys, h_l1, sample_w = _batch_arrays(batch, weights)
    _, g = flare_loss_arrays(probs, ys, h_l1, sample_w, lambda_bss, ib_active, ib_ce_mode, frozen_factors)
    return list(g)


def gradient_error(f: Callable[[], float], x: np.ndarray, analytic: np.ndarray) -> float:
    """Relative error of an analytic gradient against central differences.

    ``f`` evaluates the scalar function at the current contents of the
    contiguous array ``x``; each entry of ``x`` is moved by ``FD_STEP`` in
    place on both sides and then restored exactly. The error is
    ``max |analytic - fd| / max(1, max |analytic|)``.
    """
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
