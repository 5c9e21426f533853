"""Categorical and probabilistic forecast-verification scores.

Implements the Gerrity scoring matrix and the multicategory skill score built
on it (GMGS), the binarized true skill statistic and Brier skill score for
the >=M event, the per-cell influence decomposition of the GMGS, and the
harmonic mean used to summarize performance/reliability trade-offs.

All functions are pure; inputs are immutable containers from
:mod:`flarecast.core`.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .core import N_CLASSES, ConfusionMatrix, FlareClass, ScoringMatrix, _check_ranks, _climatology, build_confusion

__all__ = [
    "gerrity_matrix",
    "gmgs",
    "tss_ge_m",
    "bss_ge_m",
    "gmgs_influence",
    "harmonic_mean",
    "InfluenceEntry",
    "MetricReport",
    "build_report",
]

# Classes at or above this rank count as the binary "event" for TSS/BSS.
EVENT_THRESHOLD = FlareClass.M


def gerrity_matrix(climatology) -> ScoringMatrix:
    """Build the Gerrity scoring matrix for a 4-class ordinal climatology.

    Parameters
    ----------
    climatology : array_like
        Class probabilities ``p_i > 0`` summing to 1, in ascending class order.

    Returns
    -------
    ScoringMatrix
        Symmetric, equitable reward matrix whose climatology-weighted diagonal
        sums to 1. With cumulative odds ``a_r = (1 - D_r) / D_r`` over the
        cumulative probabilities ``D_r``, the entries are

        ``s_ii = (1/3) [ sum_{r<i} 1/a_r + sum_{r=i..3} a_r ]``
        ``s_ij = (1/3) [ sum_{r<i} 1/a_r - (j - i) + sum_{r=j..3} a_r ]``  (i < j)

        using 1-indexed classes, and ``s_ji = s_ij``.

    Raises
    ------
    ValueError
        If the climatology is not 4 positive probabilities summing to 1
        within 1e-9, or its cumulative probability reaches 1 before the last
        class.
    """
    p = _climatology(climatology)
    cum = np.cumsum(p)[:-1]
    if np.any(cum >= 1.0):
        raise ValueError("degenerate climatology: cumulative probability reaches 1 before last class")
    odds = (1.0 - cum) / cum
    inv = 1.0 / odds
    s = np.zeros((N_CLASSES, N_CLASSES))
    for i in range(N_CLASSES):
        for j in range(i, N_CLASSES):
            s[i, j] = (inv[:i].sum() - (j - i) + odds[j:].sum()) / (N_CLASSES - 1)
            s[j, i] = s[i, j]
    return ScoringMatrix(s, p)


def gmgs(cm: ConfusionMatrix, climatology=None) -> float:
    """Multicategory Gerrity-based skill score of a confusion matrix.

    Parameters
    ----------
    cm : ConfusionMatrix
        Observed-by-predicted counts.
    climatology : array_like, optional
        Explicit class probabilities for the scoring matrix. By default the
        observed (row-sum) distribution of ``cm`` is used.

    Returns
    -------
    float
        ``(1/N) sum_ij c_ij s_ij``. Perfect forecasts score 1; constant
        forecasts score 0 by equitability.
    """
    if climatology is None:
        climatology = cm.observed_counts() / cm.n
    s = gerrity_matrix(climatology)
    return float((cm.counts * s.scores).sum() / cm.n)


def _binarize(cm: ConfusionMatrix) -> Tuple[int, int, int, int]:
    t = int(EVENT_THRESHOLD)
    c = cm.counts
    tp = int(c[t:, t:].sum())
    fn = int(c[t:, :t].sum())
    fp = int(c[:t, t:].sum())
    tn = int(c[:t, :t].sum())
    return tp, fn, fp, tn


def tss_ge_m(cm: ConfusionMatrix) -> float:
    """True skill statistic after binarizing at the M-class threshold.

    Events are observations/predictions in {M, X}. Returns the hit rate minus
    the false-alarm rate, ``TP/(TP+FN) - FP/(FP+TN)``.

    Raises
    ------
    ValueError
        If the observed set is all-positive or all-negative after
        binarization.
    """
    tp, fn, fp, tn = _binarize(cm)
    if tp + fn == 0 or fp + tn == 0:
        raise ValueError("undefined TSS: binarized observations are single-class")
    return tp / (tp + fn) - fp / (fp + tn)


def bss_ge_m(probs, observed) -> float:
    """Brier skill score for the >=M event from probabilistic forecasts.

    Parameters
    ----------
    probs : array_like, shape (N, 4)
        One 4-class distribution per forecast; the event forecast is
        ``q = p_M + p_X``.
    observed : array_like of int, shape (N,)
        Observed class rank per forecast, aligned with ``probs``.

    Returns
    -------
    float
        ``1 - BS / BS_clim`` where ``BS`` is the mean squared error of ``q``
        against the binary outcome and ``BS_clim = r (1 - r)`` uses the event
        base rate ``r`` of the evaluated set itself.

    Raises
    ------
    ValueError
        If the set is empty, a rank is not an integer in 0..3, or the base rate is 0 or 1.
    """
    obs = _check_ranks(observed, "observed")
    if obs.size == 0:
        raise ValueError("empty evaluation set")
    p = np.asarray(probs, dtype=float)
    if obs.ndim != 1 or p.shape != (obs.size, N_CLASSES):
        raise ValueError(f"probs must have shape ({obs.size}, {N_CLASSES}) to match observed, got {p.shape}")
    t = int(EVENT_THRESHOLD)
    q = p[:, t:].sum(axis=1)
    o = (obs >= t).astype(float)
    rate = float(o.mean())
    if rate == 0.0 or rate == 1.0:
        raise ValueError("degenerate climatology for BSS")
    bs = float(((q - o) ** 2).mean())
    bs_clim = rate * (1.0 - rate)
    return 1.0 - bs / bs_clim


@dataclass(frozen=True)
class InfluenceEntry:
    """How much one misclassification cell degrades the GMGS."""

    observed: FlareClass
    predicted: FlareClass
    influence: float


def gmgs_influence(cm: ConfusionMatrix, s: ScoringMatrix) -> List[InfluenceEntry]:
    """Per-cell GMGS degradation ``c_ij (s_ii - s_ij) / N`` for i != j.

    Returns all off-diagonal cells sorted by descending influence (ties broken
    by class order for determinism). Diagonal cells contribute exactly zero
    and are excluded.
    """
    n = cm.n
    entries = [
        InfluenceEntry(FlareClass(i), FlareClass(j), float(cm.counts[i, j] * (s.scores[i, i] - s.scores[i, j]) / n))
        for i in range(N_CLASSES)
        for j in range(N_CLASSES)
        if i != j
    ]
    entries.sort(key=lambda e: (-e.influence, int(e.observed), int(e.predicted)))
    return entries


def harmonic_mean(a: float, b: float) -> float:
    """Harmonic mean ``2ab / (a + b)`` of two strictly positive scores."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("harmonic mean undefined for non-positive inputs")
    return 2.0 * a * b / (a + b)


@dataclass(frozen=True)
class MetricReport:
    """Bundle of verification scores for one evaluated forecast set."""

    gmgs: float
    tss_ge_m: float
    bss_ge_m: Optional[float]
    hm: Optional[float]
    confusion: ConfusionMatrix
    influence_table: Tuple[InfluenceEntry, ...]

    def __post_init__(self) -> None:
        vals = [e.influence for e in self.influence_table]
        if any(a < b for a, b in zip(vals, vals[1:])):
            raise ValueError("influence table must be sorted descending")
        if any(e.observed == e.predicted for e in self.influence_table):
            raise ValueError("influence table must exclude diagonal pairs")
        object.__setattr__(self, "influence_table", tuple(self.influence_table))

    def _scores(self) -> List[Tuple[str, Optional[float]]]:
        return [("gmgs", self.gmgs), ("tss_ge_m", self.tss_ge_m), ("bss_ge_m", self.bss_ge_m), ("hm", self.hm)]

    def to_text(self) -> str:
        """Plain-text table: scores, confusion matrix, top influence rows."""
        out = io.StringIO()
        out.write("metric        value\n")
        for name, value in self._scores():
            out.write(f"{name:<14}n/a\n" if value is None else f"{name:<14}{value: .6f}\n")
        names = [c.name for c in FlareClass]
        out.write("\nconfusion (rows observed, cols predicted)\n")
        out.write("      " + "".join(f"{n:>8}" for n in names) + "\n")
        for i, name in enumerate(names):
            row = "".join(f"{int(v):>8}" for v in self.confusion.counts[i])
            out.write(f"  {name:>4}{row}\n")
        out.write("\ntop influence (observed -> predicted)\n")
        for e in self.influence_table[:5]:
            out.write(f"  {e.observed.name} -> {e.predicted.name}  {e.influence:.6f}\n")
        return out.getvalue()

    def to_csv(self) -> str:
        """Machine-readable companion, one `metric,value` row per line."""
        rows = ["metric,value"] + [f"{name},{'n/a' if v is None else repr(v)}" for name, v in self._scores()]
        for i, obs in enumerate(FlareClass):
            for j, pred in enumerate(FlareClass):
                rows.append(f"confusion_{obs.name}_{pred.name},{int(self.confusion.counts[i, j])}")
        for e in self.influence_table:
            rows.append(f"influence_{e.observed.name}_{e.predicted.name},{e.influence!r}")
        return "\n".join(rows) + "\n"


def build_report(observed, predicted, probs=None, climatology=None) -> MetricReport:
    """Assemble a MetricReport from observed and predicted class-rank arrays.

    ``probs`` (one distribution per row, aligned with ``observed``) enables
    the Brier skill score; without it the report carries ``bss_ge_m=None``.
    The harmonic mean of GMGS and BSS is filled in only when both are
    strictly positive.
    """
    cm = build_confusion(observed, predicted)
    clim = cm.observed_counts() / cm.n if climatology is None else np.asarray(climatology, dtype=float)
    g = gmgs(cm, clim)
    tss = tss_ge_m(cm)
    bss = bss_ge_m(probs, observed) if probs is not None else None
    hm = harmonic_mean(g, bss) if (bss is not None and g > 0.0 and bss > 0.0) else None
    return MetricReport(
        gmgs=g,
        tss_ge_m=tss,
        bss_ge_m=bss,
        hm=hm,
        confusion=cm,
        influence_table=tuple(gmgs_influence(cm, gerrity_matrix(clim))),
    )
