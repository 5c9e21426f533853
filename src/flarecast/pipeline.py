"""Event-window labeling, channel-completeness policy, chronological splits,
synthetic data generation, and the CSV formats tying them together.

File formats (all comma-separated with a header row):

* events:  ``peak_time,class`` with ISO-8601 timestamps (any UTC offset and
  fraction) and class O/C/M/X, read as int64 UTC epoch microseconds and int8
  class ranks; written in UTC, with a 6-digit fraction only when needed.
* samples: ``id,timestamp,mask,f0..f{D-1}`` with the 10-channel presence mask
  as ten 0/1 characters and finite features, held as a :class:`~flarecast.core.SampleTable`.
* labels:  ``id,label``, read as an id column and an int8 class-rank column.
"""

from __future__ import annotations

import csv
import io
import multiprocessing
import os
import threading
from array import array
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    EPOCH,
    GRID_SECONDS,
    MICROSECOND,
    N_CHANNELS,
    N_CLASSES,
    FlareClass,
    SampleTable,
    grid_seconds,
)

__all__ = [
    "SplitSpec",
    "Fold",
    "DataFileError",
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
    "match_ids",
    "read_predictions",
    "write_labels",
]

DEFAULT_HORIZON_HOURS = 72.0

# Exclusion threshold: "at least 25%" of 10 channels is 3 or more missing.
MAX_MISSING_CHANNELS = 2

# Split sizes documented for the reference full-scale configuration
# (train, validation, test of its first fold over 47,895 samples).
REFERENCE_SPLIT_SIZES = (31_085, 4_107, 8_386)

DEFAULT_START_TIME = datetime(2011, 6, 1, 0, 0, tzinfo=timezone.utc)

# Rows per string that write_samples builds and writes at once.
_WRITE_BLOCK_ROWS = 4096

# Bytes of CSV text worth a forked worker process (see _processes).
_SPLIT_BYTES = 1 << 20

# The sample stamp read_samples converts in bulk: digits where the form has 0.
_STAMP_FORM = np.frombuffer(b"0000-00-00T00:00:00Z", dtype=np.uint8)
_MIN_SECONDS = (datetime.min.replace(tzinfo=timezone.utc) - EPOCH) // timedelta(seconds=1)

# Class ranks by exact name; other spellings go through FlareClass.from_name.
_RANKS = {c.name: int(c) for c in FlareClass}


class DataFileError(Exception):
    """A data file failed to parse; carries the offending path and line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


def _horizon_us(horizon_hours: float) -> int:
    """The horizon in whole microseconds; ValueError unless positive and within the datetime range."""
    if not 0.0 < horizon_hours <= (datetime.max - datetime.min) / timedelta(hours=1):
        raise ValueError(f"horizon must be positive and within the datetime range, got {horizon_hours!r} hours")
    return timedelta(hours=horizon_hours) // MICROSECOND


def label_samples(table: SampleTable, peak_us, ranks, horizon_hours: float = DEFAULT_HORIZON_HOURS) -> np.ndarray:
    """Largest class of the events peaking inside ``(t, t + horizon]``, for every row.

    Events are aligned peak times (int64 UTC epoch microseconds) and class ranks,
    in any order. An event peaking exactly at ``t`` is excluded, one peaking
    exactly at ``t + horizon`` is included. Returns int8 class ranks, 0 (O)
    where no event of class C or above peaks in the window. Times are compared
    in integer microseconds, so fractional seconds in event times and in the
    horizon keep their place relative to the boundaries.
    """
    window = _horizon_us(horizon_hours)
    ev_us, ev_cls = np.asarray(peak_us, dtype=np.int64), np.asarray(ranks, dtype=np.int8)
    order = np.argsort(ev_us, kind="stable")
    ev_us, ev_cls = ev_us[order], ev_cls[order]
    t_us = table.times * 1_000_000
    lo = np.searchsorted(ev_us, t_us, side="right")
    hi = np.searchsorted(ev_us, t_us + window, side="right")
    # The window max is the number of thresholds (>= C, >= M, >= X) with an event inside.
    labels = np.zeros(len(table), dtype=np.int8)
    for c in range(1, N_CLASSES):
        at_least = np.concatenate(([0], np.cumsum(ev_cls >= c)))
        labels += at_least[hi] > at_least[lo]
    return labels


def apply_channel_policy(table: SampleTable) -> Tuple[SampleTable, int]:
    """Enforce the channel-completeness and labeled-only policy.

    Rows missing 3 or more of the 10 channels (at least 25%) are excluded, as
    are unlabeled rows. Rows missing 1-2 channels are kept with the missing
    channels' ``np.array_split(range(D), 10)`` feature blocks set to +0.0;
    other features pass through unchanged. Returns the kept rows and the
    number excluded.
    """
    missing = N_CHANNELS - table.mask.sum(axis=1)
    kept = table.take((table.labels >= 0) & (missing <= MAX_MISSING_CHANNELS))
    dim = kept.features.shape[1]
    block_sizes = dim // N_CHANNELS + (np.arange(N_CHANNELS) < dim % N_CHANNELS)
    present = np.repeat(kept.mask, block_sizes, axis=1)
    return replace(kept, features=np.where(present, kept.features, 0.0)), len(table) - len(kept)


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


def split_timeseries(table: SampleTable, spec: SplitSpec) -> List[Fold]:
    """Expanding-window chronological folds over a time-sorted table.

    Within every fold the train, validation, and test ranges are disjoint,
    contiguous, and chronologically ordered; the training range grows from
    fold to fold.

    Raises
    ------
    ValueError
        If the samples are not chronologically sorted or any fold segment
        would be empty.
    """
    n = len(table)
    if np.any(np.diff(table.times) < 0):
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
) -> SampleTable:
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
    if feature_dim < 1:
        raise ValueError("feature_dim must be positive")
    if spacing_steps < 1:
        raise ValueError("spacing_steps must be at least 1")
    probs = np.asarray(class_probs, dtype=float)
    if probs.shape != (N_CLASSES,) or not np.all(probs >= 0) or abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("class_probs must be 4 non-negative values summing to 1")
    rng = np.random.default_rng(seed)
    counts = _stratified_counts(n, probs)
    ranks = np.repeat(np.arange(N_CLASSES), counts)
    rng.shuffle(ranks)
    direction = np.ones(feature_dim) / np.sqrt(feature_dim)
    feats = rng.standard_normal((n, feature_dim))
    feats += (ranks[:, None] - 1.5) * separation * direction
    return SampleTable(
        ids=np.char.mod(f"s%0{len(str(n))}d", np.arange(n)),
        times=grid_seconds(start) + np.arange(n, dtype=np.int64) * (GRID_SECONDS * spacing_steps),
        mask=np.ones((n, N_CHANNELS), dtype=bool),
        features=feats,
        labels=ranks,
    )


def events_for_samples(table: SampleTable, offset_hours: float = 36.0) -> Tuple[np.ndarray, np.ndarray]:
    """One event per row of class C or above, peaking ``offset_hours`` after
    it, as ``(peak_us, ranks)`` columns in table order.

    With samples spaced more than the labeling horizon apart the windows do
    not overlap, so :func:`label_samples` on the result reproduces the
    table's own labels exactly.
    """
    flaring = table.labels > FlareClass.O
    return table.times[flaring] * 1_000_000 + timedelta(hours=offset_hours) // MICROSECOND, table.labels[flaring]


# ---------------------------------------------------------------------------
# CSV formats
# ---------------------------------------------------------------------------

def _class_names(ranks) -> List[str]:
    """The class name of every rank; ValueError for a rank outside 0..3."""
    r = np.asarray(ranks, dtype=np.int64)
    if r.size and not (0 <= r.min() and r.max() < N_CLASSES):
        raise ValueError(f"class rank outside 0..{N_CLASSES - 1}")
    return np.array([c.name for c in FlareClass])[r].tolist()


def _parse_time(text: str) -> datetime:
    raw = text.strip()
    if raw.endswith("Z"):
        raw = raw[:-1] + "+00:00"
    t = datetime.fromisoformat(raw)
    if t.tzinfo is None:
        raise ValueError(f"timestamp {text!r} lacks a UTC offset")
    return t.astimezone(timezone.utc)


def _new_id(raw: str, line_no: int, seen: Dict[str, int]) -> str:
    """Stripped row id, recorded in ``seen`` with its line; a repeat, or a NUL
    character (numpy str arrays drop trailing NULs), raises ValueError."""
    sid = raw.strip()
    if "\x00" in sid:
        raise ValueError(f"id {sid!r} contains a NUL character")
    if sid in seen:
        raise ValueError(f"duplicate id {sid!r} (first on line {seen[sid]})")
    seen[sid] = line_no
    return sid


def _processes(size: int) -> int:
    """Processes for ``size`` bytes of CSV text: one per usable CPU and _SPLIT_BYTES,
    or 1 without fork or while another thread runs (a child gets only the forking one)."""
    forkable = hasattr(os, "sched_getaffinity") and "fork" in multiprocessing.get_all_start_methods()
    if not forkable or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), size // _SPLIT_BYTES))


def _send_all(func, items: Sequence, conn) -> None:
    for item in items:
        conn.send(func(item))


@contextmanager
def _in_order(func, items: Sequence, processes: int):
    """Yield ``map(func, items)``, computed here or by ``processes`` forked workers,
    which inherit ``func``; worker k pipes back items k, k + processes, ... one at a
    time to this thread. Leaving the block, also on an error, ends and joins them."""
    processes = min(processes, len(items))
    if processes < 2:
        yield map(func, items)
        return
    fork = multiprocessing.get_context("fork")
    workers, pipes = [], []
    try:
        for k in range(processes):
            receive, send = fork.Pipe(duplex=False)
            pipes.append(receive)
            with send:  # closed before the next fork, so that this worker's exit ends its pipe
                worker = fork.Process(target=_send_all, args=(func, items[k::processes], send), daemon=True)
                worker.start()
            workers.append(worker)
        yield (pipes[i % processes].recv() for i in range(len(items)))
    except EOFError:
        raise ChildProcessError("a CSV worker process ended early") from None
    finally:
        for receive, worker in zip(pipes, workers):
            worker.terminate()
            worker.join()
            receive.close()


@contextmanager
def _csv_rows(path, *headers: List[str], more: str = "", lines=None):
    """Open a CSV file (or read ``lines``) whose header, stripped and lowercased,
    is one of ``headers``, followed by one or more columns where ``more`` names
    them, and yield ``(header, rows)``: ``rows`` iterates ``(line_no, row)`` over
    the non-blank rows, each as wide as the header. A ValueError, OverflowError
    (a time outside the datetime range) or csv.Error (quoting is strict) from
    reading or using the header or a row becomes a DataFileError naming the file
    and the line its row starts on, the same ``line_no``.
    """
    with open(path, newline="") if lines is None else nullcontext(lines) as fh:
        reader = csv.reader(fh, strict=True)
        start = 1  # the line the row being read or used starts on

        def rows() -> Iterator[Tuple[int, List[str]]]:
            nonlocal start
            width = len(header)
            start = reader.line_num + 1
            for row in reader:
                if len(row) == width:
                    yield start, row
                elif row:
                    raise ValueError(f"expected {width} fields, got {len(row)}")
                start = reader.line_num + 1

        try:
            header = [h.strip().lower() for h in next(reader, [])]
            if not any(header[: len(f)] == f and (len(header) > len(f)) == bool(more) for f in headers):
                expected = " or ".join(repr(",".join(f + [more] if more else f)) for f in headers)
                raise ValueError(f"expected header {expected}")
            yield header, rows()
        except (csv.Error, ValueError, OverflowError) as exc:
            raise DataFileError(path, start, str(exc)) from None


def _read_csv(path, columns, *headers: List[str], more: str = "") -> tuple:
    """``columns(path, header, rows)`` over a file's :func:`_csv_rows`: arrays, ids first.

    A range per process, cut after LF bytes, is read under the header by forked
    workers. If one fails or holds a quote (a quoted field may hold an LF), or an
    id repeats across ranges, the file is read whole here for the exact error.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        processes = _processes(size)
        cuts = [len(fh.readline()) if processes > 1 else size]
        for k in range(1, processes):
            fh.seek(max(size * k // processes, cuts[-1]))
            fh.readline()
            cuts.append(fh.tell())
        cuts.append(size)

    def read_range(span: Tuple[int, int]):
        with open(path, "rb") as fh:
            head = fh.read(cuts[0])
            fh.seek(span[0])
            body = fh.read(span[1] - span[0])
        if b'"' in head or b'"' in body:
            return None
        text = chain(io.TextIOWrapper(io.BytesIO(head), newline=""), io.TextIOWrapper(io.BytesIO(body), newline=""))
        try:
            with _csv_rows(path, *headers, more=more, lines=text) as (header, rows):
                return columns(path, header, rows)
        except DataFileError:  # its line counts from the range; the whole-file read names the file's
            return None

    spans = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]
    if len(spans) > 1:
        with _in_order(read_range, spans, processes) as parts:
            parts = list(parts)
        if all(part is not None for part in parts):
            cols = tuple(map(np.concatenate, zip(*parts)))
            sorted_ids = np.sort(cols[0])
            if not (sorted_ids[1:] == sorted_ids[:-1]).any():
                return cols
    with _csv_rows(path, *headers, more=more) as (header, rows):
        return columns(path, header, rows)


def write_events(path, peak_us, ranks) -> None:
    """Write ``peak_time,class`` rows in UTC, with a 6-digit fraction only where a time is not a whole second."""
    names = _class_names(ranks)
    stamps = np.datetime_as_string(np.asarray(peak_us, dtype=np.int64).astype("datetime64[us]")).tolist()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["peak_time", "class"])
        w.writerows(zip((t.removesuffix(".000000") + "Z" for t in stamps), names))


def read_events(path) -> Tuple[np.ndarray, np.ndarray]:
    """``events.csv`` as columns: peak times (int64 UTC epoch microseconds) and class ranks (int8)."""
    peak_us, ranks = array("q"), array("b")
    with _csv_rows(path, ["peak_time", "class"]) as (_, rows):
        for _, row in rows:
            peak_us.append((_parse_time(row[0]) - EPOCH) // MICROSECOND)
            ranks.append(FlareClass.from_name(row[1]))
    return np.frombuffer(peak_us, dtype=np.int64), np.frombuffer(ranks, dtype=np.int8)


def _csv_fields(texts: List[str]) -> List[str]:
    """``texts`` as csv.writer's minimal quoting writes them: a text holding a
    comma, a quote, CR or LF is quoted, its quotes doubled."""
    joined = "".join(texts)
    if not any(c in joined for c in ',"\r\n'):
        return texts
    return ['"' + t.replace('"', '""') + '"' if any(c in t for c in ',"\r\n') else t for t in texts]


def write_samples(path, table: SampleTable) -> None:
    """Write ``id,timestamp,mask,f0..`` rows as csv.writer would (CRLF line
    ends, minimal quoting of ids), each feature as its ``repr``; one string
    and one write per block of rows, built by forked workers if worthwhile."""
    dim = table.features.shape[1]
    sep = "," if dim else ""

    def block_text(lo: int) -> str:
        block = slice(lo, lo + _WRITE_BLOCK_ROWS)
        stamps = np.datetime_as_string(table.times[block].astype("datetime64[s]")).tolist()
        masks = (table.mask[block].astype(np.uint8) + ord("0")).view(f"S{N_CHANNELS}").ravel().astype(str).tolist()
        rows = zip(_csv_fields(table.ids[block].tolist()), stamps, masks, table.features[block].tolist())
        return "".join(f"{sid},{stamp}Z,{mask}{sep}{','.join(map(repr, feats))}\r\n" for sid, stamp, mask, feats in rows)

    processes = _processes(20 * table.features.size)  # a feature's repr and comma take about 20 bytes
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["id", "timestamp", "mask"] + [f"f{i}" for i in range(dim)]) + "\r\n")
        with _in_order(block_text, range(0, len(table), _WRITE_BLOCK_ROWS), processes) as texts:
            fh.writelines(texts)


def _canonical_seconds(stamps: bytes) -> Tuple[np.ndarray, np.ndarray]:
    """UTC epoch seconds of timestamps packed 20 bytes each, and where each is
    a ``YYYY-MM-DDTHH:MM:SSZ`` stamp, within the datetime range and on the
    grid, whose text its seconds print back to (elsewhere the seconds are 0)."""
    packed = np.frombuffer(stamps, dtype=np.uint8).reshape(-1, 20)
    ok = np.where(_STAMP_FORM == ord("0"), packed - np.uint8(ord("0")) < 10, packed == _STAMP_FORM).all(axis=1)
    text = np.frombuffer(stamps, dtype="S20").astype("S19")
    seconds = np.zeros(len(text), dtype=np.int64)
    try:
        seconds[ok] = text[ok].astype("datetime64[s]").astype(np.int64)
    except ValueError:  # a field out of range, such as month 13: every stamp takes the slow path
        ok[:] = False
    # Printing back to the text also rejects whatever else the cast might accept and move.
    ok &= seconds.astype("datetime64[s]").astype("S19") == text
    ok &= (seconds >= _MIN_SECONDS) & (seconds % GRID_SECONDS == 0)
    return seconds, ok


def _sample_columns(path, header: List[str], rows) -> tuple:
    """The ids, UTC epoch seconds, masks and features of ``samples.csv`` rows."""
    ids: List[str] = []
    seen: Dict[str, int] = {}
    stamps = bytearray()
    masks = bytearray()
    feats = array("d")
    for line_no, row in rows:
        mask = row[2].strip()
        if len(mask) != N_CHANNELS or mask.strip("01"):
            raise ValueError(f"mask must be {N_CHANNELS} characters of 0/1, got {mask!r}")
        ids.append(_new_id(row[0], line_no, seen))
        stamp = row[1].encode()
        if len(stamp) != 20:  # checked now, and packed in the canonical form
            t = _parse_time(row[1])
            grid_seconds(t)
            stamp = t.isoformat()[:19].encode() + b"Z"
        stamps += stamp
        feats.extend(map(float, row[3:]))
        masks += mask.encode()
    n = len(ids)
    times, canonical = _canonical_seconds(stamps)
    for i in np.flatnonzero(~canonical).tolist():
        try:
            times[i] = grid_seconds(_parse_time(stamps[20 * i : 20 * i + 20].decode()))
        except (ValueError, OverflowError) as exc:
            raise DataFileError(path, seen[ids[i]], str(exc)) from None
    features = np.frombuffer(feats, dtype=np.float64).reshape(n, len(header) - 3)
    if not np.isfinite(features).all():
        sid = ids[int(np.isfinite(features).all(axis=1).argmin())]
        raise DataFileError(path, seen[sid], f"features of id {sid!r} must be finite")
    return np.array(ids, dtype=str), times, np.frombuffer(masks, dtype=np.uint8).reshape(n, N_CHANNELS) == ord("1"), features


def read_samples(path) -> SampleTable:
    """Stream ``samples.csv`` into an unlabeled table, row by row into flat buffers.

    ``YYYY-MM-DDTHH:MM:SSZ`` stamps are kept as text and converted in one cast
    after the last row; any other stamp, and any such stamp that does not
    convert back to its text or lies off the grid, goes through
    :func:`_parse_time` and :func:`~flarecast.core.grid_seconds` and is
    rejected with their message and its line.
    """
    return SampleTable(*_read_csv(path, _sample_columns, ["id", "timestamp", "mask"], more="f0.."))


def write_labels(path, ids: Sequence[str], labels) -> None:
    """Write ``id,label`` rows; ``labels`` are class ranks or :class:`FlareClass` members."""
    names = _class_names(labels)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "label"])
        w.writerows(zip(ids, names))


def _id_class_columns(path, header: List[str], rows) -> tuple:
    """The ids (str) of an ``id,label`` file's rows and their class ranks (int8),
    or of an ``id,p_o,p_c,p_m,p_x`` file's rows and their unscaled rows (float64)."""
    ids: List[str] = []
    seen: Dict[str, int] = {}
    ranks = array("b")
    probs = array("d")
    hard = len(header) == 2
    for line_no, row in rows:
        ids.append(_new_id(row[0], line_no, seen))
        if hard:
            name = row[1]
            ranks.append(_RANKS[name] if name in _RANKS else FlareClass.from_name(name))
            continue
        vec = list(map(float, row[1:]))
        if not (min(vec) >= 0 and abs(sum(vec) - 1.0) <= 1e-6):
            raise ValueError(f"probabilities must be non-negative and sum to 1, got {row[1:]}")
        probs.extend(vec)
    values = np.frombuffer(ranks, dtype=np.int8) if hard else np.frombuffer(probs).reshape(-1, N_CLASSES)
    return np.array(ids, dtype=str), values


def _read_id_classes(path, *headers: List[str]) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """An id-keyed class file whose header is one of ``headers``, as columns:
    the ids (str) and either the class ranks (int8) of an ``id,label`` file or
    the unscaled rows (float64) of an ``id,p_o,p_c,p_m,p_x`` file, the other None."""
    ids, values = _read_csv(path, _id_class_columns, *headers)
    return (ids, values, None) if values.ndim == 1 else (ids, None, values)


def read_labels(path) -> Tuple[np.ndarray, np.ndarray]:
    """``labels.csv`` as columns: the ids (str) and their class ranks (int8)."""
    return _read_id_classes(path, ["id", "label"])[:2]


def match_ids(keys: np.ndarray, wanted: np.ndarray, keys_path, wanted_path) -> np.ndarray:
    """Positions ``pos`` (np.intp) with ``keys[pos] == wanted``, for unique ``keys``.

    ValueError names the first id of ``wanted``, in its order, that ``keys``
    lacks, and the files the two sides came from.
    """
    order = np.argsort(keys)
    slot = np.searchsorted(keys, wanted, sorter=order)
    found = slot < len(keys)
    found[found] = keys[order[slot[found]]] == wanted[found]
    if not found.all():
        raise ValueError(f"id {str(wanted[~found][0])!r} in {wanted_path} has no row in {keys_path}")
    return order[slot]


def read_predictions(path) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Prediction file: either hard classes (`id,label`) or distributions
    (`id,p_o,p_c,p_m,p_x`). Returns the ids (str), the predicted class ranks
    (int8 for hard classes), and the distributions, each row scaled to sum to
    1 (None for hard classes)."""
    ids, ranks, dists = _read_id_classes(path, ["id", "label"], ["id", "p_o", "p_c", "p_m", "p_x"])
    if dists is None:
        return ids, ranks, None
    dists = dists / dists.sum(axis=1, keepdims=True)
    return ids, dists.argmax(axis=1), dists
