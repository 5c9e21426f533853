"""Domain types shared by every flarecast module.

Four ordinal flare classes (O < C < M < X), the columnar sample table,
confusion matrices, inverse-frequency class weights, and the scoring matrix
container used by the Gerrity-based skill score. Everything here is immutable
after construction; arrays are frozen so instances can be shared freely
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import IntEnum
from typing import Sequence

import numpy as np

N_CLASSES = 4

SAMPLE_CADENCE_HOURS = 2.0
N_CHANNELS = 10

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
MICROSECOND = timedelta(microseconds=1)
GRID_US = timedelta(hours=SAMPLE_CADENCE_HOURS) // MICROSECOND  # the sample grid's step


class FlareClass(IntEnum):
    """Ordinal flare category, ascending severity. Rank doubles as array index."""

    O = 0
    C = 1
    M = 2
    X = 3

    @classmethod
    def from_name(cls, name: str) -> "FlareClass":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown flare class {name!r}") from None

    def __str__(self) -> str:
        return self.name


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _climatology(values) -> np.ndarray:
    """``values`` as a frozen float64 climatology: one probability per class
    rank, each positive, summing to 1 within 1e-9."""
    p = np.array(values, dtype=float)
    if p.shape != (N_CLASSES,):
        raise ValueError(f"climatology must have {N_CLASSES} probabilities, got shape {p.shape}")
    if not np.all(p > 0.0):
        raise ValueError(f"degenerate climatology: every class probability must be positive, got {p.tolist()}")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError(f"climatology must sum to 1 (got {float(p.sum())!r})")
    return _frozen(p)


def grid_us(t: datetime) -> int:
    """UTC epoch microseconds of ``t``; ValueError if it is naive or off the 2-hour grid."""
    if t.tzinfo is None:
        raise ValueError(f"timestamp must be UTC: {t!r}")
    us = (t - EPOCH) // MICROSECOND
    if us % GRID_US:
        raise ValueError(f"timestamp not aligned to the {SAMPLE_CADENCE_HOURS:g}-hour grid: {t.isoformat()}")
    return us


def _check_times(times, column: str) -> np.ndarray:
    """``times`` as int64 UTC epoch microseconds, the one time unit. ValueError names ``column`` and the dtype unless
    it is an integer one that int64 holds: a datetime64, float, bool or object time is refused (an empty one is not)."""
    t = np.asarray(times)
    if t.size and not (t.dtype.kind in "iu" and np.can_cast(t.dtype, np.int64)):
        why = 'convert datetime64 times t with t.astype("datetime64[us]").astype(np.int64)'
        raise ValueError(f"{column} must be int64 UTC epoch microseconds, got dtype {t.dtype}; {why}")
    return t.astype(np.int64, copy=False)


def _check_ranks(ranks, column: str) -> np.ndarray:
    """``ranks`` as int8 class ranks. ValueError names ``column`` and the dtype unless it is an integer one (an empty
    column's is not checked), or the first value outside 0..3, which is tested before the cast to int8, so that none
    wraps round."""
    r = np.asarray(ranks)
    if r.size and r.dtype.kind not in "iu":
        raise ValueError(f"{column} must be integer class ranks, got dtype {r.dtype}")
    bad = (r < 0) | (r >= N_CLASSES)
    if bad.any():
        raise ValueError(f"{column} holds {r[bad][0]}: class rank outside 0..{N_CLASSES - 1}")
    return r.astype(np.int8, copy=False)


def _check_aligned(**columns) -> None:
    """ValueError naming each column and its length unless all have one length: one entry per row."""
    lengths = [len(column) for column in columns.values()]
    if len(set(lengths)) > 1:
        got = " and ".join(map(str, lengths))
        raise ValueError(f"{' and '.join(columns)} must be aligned, one entry per row: got {got}")


def _check_grid(times) -> np.ndarray:
    """``times`` as int64 UTC epoch microseconds (see :func:`_check_times`); ValueError unless each is on the 2-hour
    grid (one in seconds is not)."""
    times = _check_times(times, "times")
    if np.any(times % GRID_US):
        why = "grid of UTC epoch microseconds; multiply times in seconds by 10**6"
        raise ValueError(f"timestamp not aligned to the {SAMPLE_CADENCE_HOURS:g}-hour {why}")
    return times


def _str_ids(ids, convert=np.array) -> np.ndarray:
    """``ids`` as a str array, through ``convert``; ValueError for an id ending in NUL, which such an array drops."""
    if not (isinstance(ids, np.ndarray) and ids.dtype.kind == "U"):  # a str array holds no trailing NUL
        ids = np.asarray(ids, dtype=object)
        if cut := next((sid for sid in ids.ravel().tolist() if isinstance(sid, str) and sid.endswith("\x00")), None):
            raise ValueError(f"id {cut!r} cannot be written: it ends in NUL, which a str array drops")
    return convert(ids, dtype=str)


@dataclass(frozen=True)
class SampleTable:
    """Observation instants as aligned columns, one row per instant.

    ``ids`` (str), ``times`` (int64 UTC epoch microseconds on the 2-hour grid),
    ``mask`` (bool ``(n, 10)`` channel presence) and ``features`` (float64
    ``(n, D)``): what ``samples.csv`` holds. Class ranks travel beside the
    table, as a column of their own. Construction checks that the columns are
    aligned and well-formed and freezes them. The constructor freezes copies of its
    arguments; the tables the library builds adopt the fresh arrays they made.
    """

    ids: np.ndarray
    times: np.ndarray
    mask: np.ndarray
    features: np.ndarray

    def __post_init__(self, convert=np.array) -> None:
        n = len(self.ids)
        columns = {
            "ids": _str_ids(self.ids, convert),
            "times": _check_grid(convert(self.times)),
            "mask": convert(self.mask, dtype=bool),
            "features": convert(self.features, dtype=float),
        }
        if columns["ids"].ndim != 1 or any(c.shape[:1] != (n,) for c in columns.values()):
            raise ValueError("sample columns must be aligned: one entry per id")
        if columns["features"].ndim != 2 or columns["mask"].shape != (n, N_CHANNELS):
            raise ValueError(f"features must be 2-d and the mask must have {N_CHANNELS} channels per row")
        for name, column in columns.items():
            object.__setattr__(self, name, _frozen(column))

    @classmethod
    def _adopt(cls, ids, times, mask, features) -> "SampleTable":
        table = object.__new__(cls)
        table.__dict__.update(ids=ids, times=times, mask=mask, features=features)
        table.__post_init__(np.asarray)  # the same checks; a column of the right dtype is kept, not copied
        return table

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class ConfusionMatrix:
    """4x4 counts: row = observed class, column = predicted class (O,C,M,X order)."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.counts)
        if c.shape != (N_CLASSES, N_CLASSES):
            raise ValueError(f"confusion matrix must be {N_CLASSES}x{N_CLASSES}, got {c.shape}")
        if not np.issubdtype(c.dtype, np.integer):
            if not np.all(c == np.round(c)):
                raise ValueError("confusion matrix entries must be integers")
            c = c.astype(np.int64)
        if np.any(c < 0):
            raise ValueError("confusion matrix entries must be non-negative")
        object.__setattr__(self, "counts", _frozen(c.astype(np.int64)))

    @property
    def n(self) -> int:
        """Total number of counted pairs."""
        return int(self.counts.sum())

    def observed_counts(self) -> np.ndarray:
        return self.counts.sum(axis=1)


def build_confusion(observed, predicted) -> ConfusionMatrix:
    """Count observed-by-predicted class ranks into a confusion matrix.

    Parameters
    ----------
    observed, predicted : array_like of int
        Class rank (0..3, or :class:`FlareClass` members) per evaluated
        sample, aligned by position.

    Raises
    ------
    ValueError
        If the arrays are empty, differ in shape, or are not integer class ranks 0..3.
    """
    obs, pred = _check_ranks(observed, "observed"), _check_ranks(predicted, "predicted")
    if obs.ndim != 1 or obs.shape != pred.shape:
        raise ValueError(f"observed and predicted must be 1-d and aligned, got shapes {obs.shape} and {pred.shape}")
    if obs.size == 0:
        raise ValueError("empty evaluation set")
    counts = np.bincount(N_CLASSES * obs + pred, minlength=N_CLASSES * N_CLASSES)
    return ConfusionMatrix(counts.reshape(N_CLASSES, N_CLASSES))


@dataclass(frozen=True)
class ClassWeights:
    """Per-class loss weights, inversely proportional to class frequency."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (N_CLASSES,):
            raise ValueError(f"class weights must have {N_CLASSES} entries")
        if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
            raise ValueError("class weights must be positive and finite")
        object.__setattr__(self, "weights", _frozen(w.copy()))

    @classmethod
    def uniform(cls) -> "ClassWeights":
        return cls(np.ones(N_CLASSES))


def class_weights(counts: Sequence[int]) -> ClassWeights:
    """Inverse-frequency weights, normalized to mean one over the dataset.

    With per-class counts ``n_k`` and ``N = sum(n_k)``, the weight of class k is
    ``(N / 4) / n_k``, so ``w_k * n_k`` is constant and ``sum_k (n_k / N) w_k = 1``.
    The normalization keeps weighted losses on the same scale as their
    unweighted counterparts.
    """
    n = np.asarray(counts, dtype=float)
    if n.shape != (N_CLASSES,):
        raise ValueError(f"expected {N_CLASSES} class counts")
    if np.any(n <= 0):
        raise ValueError("empty class")
    total = n.sum()
    return ClassWeights((total / N_CLASSES) / n)


@dataclass(frozen=True)
class ScoringMatrix:
    """Symmetric, equitable 4x4 reward matrix built from climatology.

    Invariants checked at construction: a climatology of 4 positive
    probabilities summing to 1 (1e-9), symmetry (1e-12), column equitability
    ``sum_i p_i s_ij = 0`` (1e-10), perfect-forecast normalization
    ``sum_i p_i s_ii = 1`` (1e-10), and per-row diagonal dominance.
    """

    scores: np.ndarray
    climatology: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.scores, dtype=float)
        if s.shape != (N_CLASSES, N_CLASSES):
            raise ValueError("scoring matrix must be 4x4")
        p = _climatology(self.climatology)
        if np.max(np.abs(s - s.T)) > 1e-12:
            raise ValueError("scoring matrix must be symmetric")
        col = p @ s
        if np.max(np.abs(col)) > 1e-10:
            raise ValueError(f"scoring matrix violates equitability (max column bias {np.max(np.abs(col)):.3e})")
        norm = float(p @ np.diag(s))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"scoring matrix diagonal not normalized (got {norm!r})")
        if np.any(np.diag(s)[:, None] < s):
            raise ValueError("scoring matrix violates diagonal dominance")
        object.__setattr__(self, "scores", _frozen(s.copy()))
        object.__setattr__(self, "climatology", p)
