"""Event-window labeling, channel-completeness policy, chronological splits,
synthetic data generation, and the CSV formats tying them together.

File formats (all comma-separated with a header row):

* events:  ``peak_time,class`` with ISO-8601 UTC timestamps and class O/C/M/X.
* samples: ``id,timestamp,mask,f0..f{D-1}`` with the 10-channel presence mask
  as a string of ten 0/1 characters.
* labels:  ``id,label``.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import N_CHANNELS, N_CLASSES, FlareClass, Sample

__all__ = [
    "FlareEvent",
    "SplitSpec",
    "Fold",
    "DataFileError",
    "label_max_class",
    "label_samples",
    "apply_channel_policy",
    "split_timeseries",
    "gen_synthetic",
    "events_for_samples",
    "read_events",
    "write_events",
    "read_samples",
    "write_samples",
    "read_labels",
    "write_labels",
]

DEFAULT_HORIZON_HOURS = 72.0

# Exclusion threshold: "at least 25%" of 10 channels is 3 or more missing.
MAX_MISSING_CHANNELS = 2

# Split sizes documented for the reference full-scale configuration
# (train, validation, test of its first fold over 47,895 samples).
REFERENCE_SPLIT_SIZES = (31_085, 4_107, 8_386)

DEFAULT_START_TIME = datetime(2011, 6, 1, 0, 0, tzinfo=timezone.utc)


class DataFileError(Exception):
    """A data file failed to parse; carries the offending path and line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


@dataclass(frozen=True)
class FlareEvent:
    """A single flare occurrence, identified by its peak time and class."""

    peak_time: datetime
    flare_class: FlareClass

    def __post_init__(self) -> None:
        if self.peak_time.tzinfo is None:
            raise ValueError("event peak_time must be timezone-aware UTC")


def label_max_class(
    t: datetime,
    events: Sequence[FlareEvent],
    horizon_hours: float = DEFAULT_HORIZON_HOURS,
) -> FlareClass:
    """Largest flare class with a peak inside the window ``(t, t + horizon]``.

    The window is half-open on the left: an event peaking exactly at ``t`` is
    excluded, one peaking exactly at ``t + horizon`` is included. Returns O
    when no event of class C or above peaks inside the window.
    """
    end = t + timedelta(hours=horizon_hours)
    best = FlareClass.O
    for ev in events:
        if t < ev.peak_time <= end and ev.flare_class > best:
            best = ev.flare_class
    return best


def label_samples(
    samples: Sequence[Sample],
    events: Sequence[FlareEvent],
    horizon_hours: float = DEFAULT_HORIZON_HOURS,
) -> List[FlareClass]:
    """Window-maximum label for every sample; sorts the events once and bisects."""
    evs = sorted(events, key=lambda e: e.peak_time)
    times = [e.peak_time for e in evs]
    labels = []
    for s in samples:
        lo = bisect_right(times, s.timestamp)
        hi = bisect_right(times, s.timestamp + timedelta(hours=horizon_hours))
        best = FlareClass.O
        for ev in evs[lo:hi]:
            if ev.flare_class > best:
                best = ev.flare_class
        labels.append(best)
    return labels


def _channel_blocks(dim: int) -> List[np.ndarray]:
    return np.array_split(np.arange(dim), N_CHANNELS)


def apply_channel_policy(samples: Sequence[Sample]) -> Tuple[List[Sample], int]:
    """Enforce the channel-completeness and labeled-only policy.

    Samples missing 3 or more of the 10 channels (at least 25%) are excluded,
    as are unlabeled samples. Samples missing 1-2 channels are kept with the
    corresponding feature blocks zero-filled; complete samples pass through
    unchanged. Returns the kept samples and the number excluded.
    """
    kept: List[Sample] = []
    excluded = 0
    for s in samples:
        if s.label is None or s.missing_channels > MAX_MISSING_CHANNELS:
            excluded += 1
            continue
        if s.missing_channels == 0:
            kept.append(s)
            continue
        feats = s.features.copy()
        for ch, block in enumerate(_channel_blocks(feats.shape[0])):
            if not s.channel_mask[ch]:
                feats[block] = 0.0
        kept.append(Sample(s.id, s.timestamp, feats, s.channel_mask, s.label))
    return kept, excluded


@dataclass(frozen=True)
class Fold:
    """Contiguous chronological index ranges: train, then validation, then test."""

    train: range
    validation: range
    test: range


@dataclass(frozen=True)
class SplitSpec:
    """Chronological cross-validation layout.

    Fold f (1-based) spans the first ``n * f / fold_count`` samples and is
    partitioned by the train/validation/test fractions, so later folds extend
    the training range (expanding window). ``sizes`` overrides the fractions
    with explicit fold-1 (train, validation, test) counts; successive folds
    then shift the evaluation window forward by its own length.
    """

    fold_count: int = 3
    train_frac: float = 0.6
    val_frac: float = 0.2
    test_frac: float = 0.2
    sizes: Optional[Tuple[int, int, int]] = None

    def __post_init__(self) -> None:
        if self.fold_count < 1:
            raise ValueError("fold_count must be positive")
        if self.sizes is None:
            fracs = (self.train_frac, self.val_frac, self.test_frac)
            if any(f <= 0.0 for f in fracs) or abs(sum(fracs) - 1.0) > 1e-9:
                raise ValueError("train/val/test fractions must be positive and sum to 1")
        elif any(v < 1 for v in self.sizes):
            raise ValueError("explicit split sizes must be positive")


def split_timeseries(samples: Sequence[Sample], spec: SplitSpec) -> List[Fold]:
    """Expanding-window chronological folds over time-sorted samples.

    Within every fold the train, validation, and test ranges are disjoint,
    contiguous, and chronologically ordered; the training range grows from
    fold to fold.

    Raises
    ------
    ValueError
        If the samples are not chronologically sorted or any fold segment
        would be empty.
    """
    n = len(samples)
    for a, b in zip(samples, samples[1:]):
        if b.timestamp < a.timestamp:
            raise ValueError("samples must be sorted chronologically")
    folds = []
    for f in range(1, spec.fold_count + 1):
        if spec.sizes is not None:
            n_train, n_val, n_test = spec.sizes
            start = n_train + (f - 1) * (n_val + n_test)
            bounds = (start, start + n_val, start + n_val + n_test)
        else:
            span = (n * f) // spec.fold_count
            bounds = (
                int(spec.train_frac * span + 1e-9),
                int((spec.train_frac + spec.val_frac) * span + 1e-9),
                span,
            )
        t_end, v_end, s_end = bounds
        if not (0 < t_end < v_end < s_end <= n):
            raise ValueError(f"too few samples ({n}) for {spec.fold_count} folds")
        folds.append(Fold(range(0, t_end), range(t_end, v_end), range(v_end, s_end)))
    return folds


def _stratified_counts(n: int, probs: np.ndarray) -> np.ndarray:
    """Largest-remainder apportionment of n samples to the target probabilities."""
    raw = probs * n
    counts = np.floor(raw).astype(int)
    short = n - counts.sum()
    order = np.argsort(-(raw - counts), kind="stable")
    counts[order[:short]] += 1
    return counts


def gen_synthetic(
    n: int,
    class_probs: Sequence[float],
    seed: int,
    feature_dim: int,
    spacing_steps: int = 1,
    start: datetime = DEFAULT_START_TIME,
    separation: float = 1.2,
) -> List[Sample]:
    """Deterministic labeled samples with class-conditional Gaussian features.

    Class counts follow the target probabilities exactly (largest-remainder
    rounding), so ``n=4`` with a uniform target yields one sample per class.
    Features are unit-variance Gaussians whose means step by ``separation``
    along a shared direction per class rank: adjacent classes overlap, so the
    task is learnable but not trivial. Timestamps advance ``spacing_steps``
    two-hour grid steps per sample; all channels are present.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if spacing_steps < 1:
        raise ValueError("spacing_steps must be at least 1")
    probs = np.asarray(class_probs, dtype=float)
    if probs.shape != (N_CLASSES,) or np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("class_probs must be 4 non-negative values summing to 1")
    rng = np.random.default_rng(seed)
    counts = _stratified_counts(n, probs)
    ranks = np.repeat(np.arange(N_CLASSES), counts)
    rng.shuffle(ranks)
    direction = np.ones(feature_dim) / np.sqrt(feature_dim)
    feats = rng.standard_normal((n, feature_dim))
    feats += (ranks[:, None] - 1.5) * separation * direction
    mask = (True,) * N_CHANNELS
    width = len(str(n))
    step = timedelta(hours=2.0 * spacing_steps)
    return [
        Sample(
            id=f"s{i:0{width}d}",
            timestamp=start + i * step,
            features=feats[i],
            channel_mask=mask,
            label=FlareClass(int(ranks[i])),
        )
        for i in range(n)
    ]


def events_for_samples(samples: Sequence[Sample], offset_hours: float = 36.0) -> List[FlareEvent]:
    """One event per labeled sample of class C or above, peaking inside its window.

    With samples spaced more than the labeling horizon apart the windows do
    not overlap, so :func:`label_samples` on the result reproduces the
    samples' own labels exactly.
    """
    return [
        FlareEvent(s.timestamp + timedelta(hours=offset_hours), s.label)
        for s in samples
        if s.label is not None and s.label > FlareClass.O
    ]


# ---------------------------------------------------------------------------
# CSV formats
# ---------------------------------------------------------------------------

def _format_time(t: datetime) -> str:
    return t.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _parse_time(text: str) -> datetime:
    raw = text.strip()
    if raw.endswith("Z"):
        raw = raw[:-1] + "+00:00"
    t = datetime.fromisoformat(raw)
    if t.tzinfo is None:
        raise ValueError(f"timestamp {text!r} lacks a UTC offset")
    return t.astimezone(timezone.utc)


def _new_id(raw: str, line_no: int, seen: Dict[str, int]) -> str:
    """Stripped row id, recorded in ``seen`` with its line; a repeat raises ValueError."""
    sid = raw.strip()
    if sid in seen:
        raise ValueError(f"duplicate id {sid!r} (first on line {seen[sid]})")
    seen[sid] = line_no
    return sid


def write_events(path, events: Sequence[FlareEvent]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["peak_time", "class"])
        for ev in events:
            w.writerow([_format_time(ev.peak_time), ev.flare_class.name])


def read_events(path) -> List[FlareEvent]:
    events = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["peak_time", "class"]:
            raise DataFileError(path, 1, "expected header 'peak_time,class'")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                if len(row) != 2:
                    raise ValueError(f"expected 2 fields, got {len(row)}")
                events.append(FlareEvent(_parse_time(row[0]), FlareClass.from_name(row[1])))
            except ValueError as exc:
                raise DataFileError(path, line_no, str(exc)) from None
    return events


def write_samples(path, samples: Sequence[Sample]) -> None:
    if not samples:
        raise ValueError("no samples to write")
    dim = samples[0].features.shape[0]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "timestamp", "mask"] + [f"f{i}" for i in range(dim)])
        for s in samples:
            mask = "".join("1" if b else "0" for b in s.channel_mask)
            w.writerow([s.id, _format_time(s.timestamp), mask] + [repr(float(v)) for v in s.features])


def read_samples(path) -> List[Sample]:
    samples = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 4 or [h.strip() for h in header[:3]] != ["id", "timestamp", "mask"]:
            raise DataFileError(path, 1, "expected header 'id,timestamp,mask,f0..'")
        dim = len(header) - 3
        seen: Dict[str, int] = {}
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                if len(row) != dim + 3:
                    raise ValueError(f"expected {dim + 3} fields, got {len(row)}")
                mask = row[2].strip()
                if len(mask) != N_CHANNELS or set(mask) - {"0", "1"}:
                    raise ValueError(f"mask must be {N_CHANNELS} characters of 0/1, got {mask!r}")
                samples.append(
                    Sample(
                        id=_new_id(row[0], line_no, seen),
                        timestamp=_parse_time(row[1]),
                        features=np.array([float(v) for v in row[3:]]),
                        channel_mask=tuple(c == "1" for c in mask),
                    )
                )
            except ValueError as exc:
                raise DataFileError(path, line_no, str(exc)) from None
    return samples


def write_labels(path, ids: Sequence[str], labels: Sequence[FlareClass]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "label"])
        for sid, label in zip(ids, labels):
            w.writerow([sid, label.name])


def read_labels(path) -> List[Tuple[str, FlareClass]]:
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["id", "label"]:
            raise DataFileError(path, 1, "expected header 'id,label'")
        seen: Dict[str, int] = {}
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                if len(row) != 2:
                    raise ValueError(f"expected 2 fields, got {len(row)}")
                out.append((_new_id(row[0], line_no, seen), FlareClass.from_name(row[1])))
            except ValueError as exc:
                raise DataFileError(path, line_no, str(exc)) from None
    return out
