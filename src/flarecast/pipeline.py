"""Event-window labeling, channel-completeness policy, chronological splits,
synthetic data generation, and the CSV formats tying them together.

File formats (all comma-separated with a header row):

* events:  ``peak_time,class`` with ISO-8601 timestamps (any UTC offset and
  fraction) and class O/C/M/X, read as int64 UTC epoch microseconds and int8
  class ranks; written as canonical UTC stamps (see :func:`_encode_stamps`).
* samples: ``id,timestamp,mask,f0..f{D-1}`` with the 10-channel presence mask
  as ten 0/1 characters and finite features, held as a :class:`~flarecast.core.SampleTable`.
* labels:  ``id,label``, read as an id column and an int8 class-rank column.

All share the writers' dialect (see :func:`_fields`), tokenized by np.loadtxt in byte ranges and written by
:func:`_write_csv`; each format has one check over whole columns (``_check_*``), and a fault names its file and line.
"""

from __future__ import annotations

import functools
import io
import locale
import os
import pickle
import re
import signal
import threading
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    EPOCH,
    GRID_US,
    MICROSECOND,
    N_CHANNELS,
    N_CLASSES,
    FlareClass,
    SampleTable,
    _check_aligned,
    _check_ranks,
    _check_times,
    _str_ids,
    grid_us,
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

DEFAULT_START_TIME = datetime(2011, 6, 1, 0, 0, tzinfo=timezone.utc)  # gen_synthetic's first sample time
CLASS_SEPARATION = 1.2  # gen_synthetic's step between the feature means of adjacent classes
EVENT_OFFSET_HOURS = 36  # how long after its sample an event of events_for_samples peaks
_EVENT_OFFSET_US = timedelta(hours=EVENT_OFFSET_HOURS) // MICROSECOND

# The times a stamp holds, datetime's, in UTC epoch microseconds: 0001-01-01T00:00:00Z .. 9999-12-31T23:59:59.999999Z
_FIRST_US, _LAST_US = ((t.replace(tzinfo=timezone.utc) - EPOCH) // MICROSECOND for t in (datetime.min, datetime.max))

_BANNED = b'"\x00\x1c\x1d\x1e\x1f'  # in no CSV field: none is quoted, and np.loadtxt strips the rest around a number
_OUT_OF_DIALECT = re.compile(b"[" + re.escape(_BANNED) + rb"]|\r(?!\n)")  # or a CR not before its LF

# Rows per string that a writer builds and writes at once (see _write_csv), and per stamp decode.
_WRITE_BLOCK_ROWS = 4096

# Bytes of CSV text in a range that a reader parses at once, and worth a forked worker process (see _processes).
_SPLIT_BYTES = 1 << 20

MAX_ID_CHARS = 256  # characters an id may hold at most: the str array ids are read into is as wide as its longest


class DataFileError(Exception):
    """A data file failed to parse; carries the offending path and line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path, self.line_no, self.message = str(path), line_no, message

    def __reduce__(self):  # so that a forked reader can send one back
        return DataFileError, (self.path, self.line_no, self.message)


def _horizon_us(horizon_hours: float) -> int:
    """The horizon in whole microseconds; ValueError unless at least 1 and within the datetime range."""
    if not 0.0 < horizon_hours <= (datetime.max - datetime.min) / timedelta(hours=1) or not timedelta(hours=horizon_hours):
        raise ValueError(f"horizon must be positive and within the datetime range, ≥ 1 µs, got {horizon_hours!r} hours")
    return timedelta(hours=horizon_hours) // MICROSECOND


def label_samples(table: SampleTable, peak_us, ranks, horizon_hours: float = DEFAULT_HORIZON_HOURS) -> np.ndarray:
    """Largest class of the events peaking inside ``(t, t + horizon]``, for every row.

    Events are aligned peak times (int64 UTC epoch microseconds, as the table's
    times are) and class ranks, in any order. An event peaking exactly at ``t``
    is excluded, one peaking exactly at ``t + horizon`` is included. Returns int8
    class ranks, 0 (O) where no event of class C or above peaks in the window.
    Times are compared in integer microseconds, so fractional seconds in event
    times and in the horizon keep their place relative to the boundaries. ValueError for peak times or ranks of
    another dtype, a rank outside 0..3 (see :func:`flarecast.core._check_times` and ``_check_ranks``), or columns of
    different lengths.
    """
    window = _horizon_us(horizon_hours)
    ev_us, ev_cls = _check_times(peak_us, "peak times"), _check_ranks(ranks, "event ranks")
    _check_aligned(peak_us=ev_us, ranks=ev_cls)
    order = np.argsort(ev_us, kind="stable")
    ev_us, ev_cls = ev_us[order], ev_cls[order]
    lo = np.searchsorted(ev_us, table.times, side="right")
    hi = np.searchsorted(ev_us, table.times + window, side="right")
    # The window max is the number of thresholds (>= C, >= M, >= X) with an event inside.
    labels = np.zeros(len(table), dtype=np.int8)
    for c in range(1, N_CLASSES):
        at_least = np.concatenate(([0], np.cumsum(ev_cls >= c)))
        labels += at_least[hi] > at_least[lo]
    return labels


def apply_channel_policy(table: SampleTable, labels, order=None) -> Tuple[SampleTable, np.ndarray, int]:
    """Enforce the channel-completeness policy on a table and its class-rank ``labels``, one per row.

    Rows missing 3 or more of the 10 channels (at least 25%) are excluded. Rows
    missing 1-2 channels are kept with the missing channels'
    ``np.array_split(range(D), 10)`` feature blocks set to +0.0; other features
    pass through unchanged. Returns the kept rows, taken in ``order`` (row
    indices, else table order), a new int8 array of their labels, and the number
    excluded. Where every row is kept in table order and none misses a channel,
    the kept rows are the table itself. ValueError, before any row is taken, for an
    ``order`` that does not hold each row's index once, from 0.
    """
    labels = _check_ranks(labels, "labels")
    _check_aligned(table=table, labels=labels)
    if order is not None:  # checked with a flag a row, not a sorted copy, whose heap stays in train's peak RSS
        order, seen = np.asarray(order), np.zeros(len(table), bool)
        integral = order.dtype.kind in "iu"
        if integral and order.shape == seen.shape and (not seen.size or 0 <= order.min() <= order.max() < seen.size):
            seen[order] = True  # n indices in range(n) flag every row only if none repeats
        if not (integral and seen.all()):
            raise ValueError(f"order must be a permutation of range({len(table)}), each row's index once")
    keep = N_CHANNELS - table.mask.sum(axis=1) <= MAX_MISSING_CHANNELS
    rows = np.flatnonzero(keep) if order is None else order[keep[order]]
    if len(rows) == len(table) and (rows[1:] > rows[:-1]).all() and table.mask.all():  # rows 0.., nothing zeroed
        return table, labels[rows], 0
    mask, features = table.mask[rows], table.features[rows]
    block_sizes = [len(block) for block in np.array_split(range(features.shape[1]), N_CHANNELS)]
    np.copyto(features, 0.0, where=~np.repeat(mask, block_sizes, axis=1))
    return SampleTable._adopt(table.ids[rows], table.times[rows], mask, features), labels[rows], len(table) - len(rows)


@dataclass(frozen=True)
class Fold:
    """Contiguous chronological index ranges: train, then validation, then test."""

    train: range
    validation: range
    test: range


@dataclass(frozen=True)
class SplitSpec:
    """Chronological cross-validation layout; there is no other.

    Fold f (1-based) spans the first ``n * f / fold_count`` samples and is
    partitioned by the train/validation/test fractions, so later folds extend
    the training range (expanding window).
    """

    fold_count: int = 3
    train_frac: float = 0.6
    val_frac: float = 0.2
    test_frac: float = 0.2

    def __post_init__(self) -> None:
        if self.fold_count < 1:
            raise ValueError("fold_count must be positive")
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        if not all(0.0 < f <= 1.0 for f in fracs) or abs(sum(fracs) - 1.0) > 1e-9:  # NaN fails the first
            raise ValueError("train/val/test fractions must be positive and sum to 1")


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
        s_end = (n * f) // spec.fold_count
        t_end = int(spec.train_frac * s_end + 1e-9)
        v_end = int((spec.train_frac + spec.val_frac) * s_end + 1e-9)
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
    n: int, class_probs: Sequence[float], seed: int, feature_dim: int, spacing_steps: int = 1
) -> Tuple[SampleTable, np.ndarray]:
    """Deterministic samples with class-conditional Gaussian features, and their class ranks (int8).

    Class counts follow the target probabilities exactly (largest-remainder
    rounding), so ``n=4`` with a uniform target yields one sample per class.
    Features are unit-variance Gaussians whose means step by CLASS_SEPARATION
    along a shared direction per class rank: adjacent classes overlap, so the
    task is learnable but not trivial. Timestamps start at DEFAULT_START_TIME and
    advance ``spacing_steps`` two-hour grid steps per sample; all channels are present.
    The last sample, and an event EVENT_OFFSET_HOURS after it, must fall by 9999-12-31T23:59:59.999999Z.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if feature_dim < 1:
        raise ValueError("feature_dim must be positive")
    if spacing_steps < 1:
        raise ValueError("spacing_steps must be at least 1")
    start = grid_us(DEFAULT_START_TIME)  # in Python ints, so that nothing wraps round
    if start + (int(n) - 1) * int(spacing_steps) * GRID_US + _EVENT_OFFSET_US > _LAST_US:
        raise ValueError("n and spacing_steps put the last sample or its event after 9999-12-31T23:59:59.999999Z")
    probs = np.asarray(class_probs, dtype=float)
    if probs.shape != (N_CLASSES,) or not np.all(probs >= 0) or abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("class_probs must be 4 non-negative values summing to 1")
    rng = np.random.default_rng(seed)
    counts = _stratified_counts(n, probs)
    ranks = np.repeat(np.arange(N_CLASSES, dtype=np.int8), counts)
    rng.shuffle(ranks)
    direction = np.ones(feature_dim) / np.sqrt(feature_dim)
    feats = rng.standard_normal((n, feature_dim))
    feats += (ranks[:, None] - 1.5) * CLASS_SEPARATION * direction
    return SampleTable._adopt(
        ids=_sample_ids(n),
        times=start + np.arange(n, dtype=np.int64) * (GRID_US * spacing_steps),
        mask=np.ones((n, N_CHANNELS), dtype=bool),
        features=feats,
    ), ranks


def _sample_ids(n: int) -> np.ndarray:
    """``s0``.. ``s{n-1}``, zero-padded to the width of ``n``, built as character codes."""
    width = len(str(n))
    codes = np.empty((n, width + 1), dtype=np.uint32)
    codes[:, 0] = ord("s")
    codes[:, 1:] = np.arange(n)[:, None] // 10 ** np.arange(width - 1, -1, -1) % 10 + ord("0")
    return codes.view(f"U{width + 1}").ravel()


def events_for_samples(times, ranks) -> Tuple[np.ndarray, np.ndarray]:
    """One event per sample whose class rank in ``ranks`` is C or above, peaking EVENT_OFFSET_HOURS after its
    time in ``times`` (aligned with ``ranks``), as ``(peak_us, ranks)`` columns in sample order.

    With samples spaced more than the labeling horizon apart the windows do
    not overlap, so :func:`label_samples` on the result reproduces ``ranks``
    exactly.
    """
    times, ranks = _check_times(times, "times"), _check_ranks(ranks, "ranks")
    _check_aligned(times=times, ranks=ranks)
    flaring = ranks > FlareClass.O
    return times[flaring] + _EVENT_OFFSET_US, ranks[flaring]


# ---------------------------------------------------------------------------
# CSV formats
# ---------------------------------------------------------------------------

def _class_names(ranks, column: str) -> List[str]:
    """The class name of every rank of ``column`` (see :func:`flarecast.core._check_ranks`)."""
    return np.array([c.name for c in FlareClass])[_check_ranks(ranks, column)].tolist()


def _encode_stamps(times: np.ndarray) -> List[str]:
    """The canonical UTC stamp of each datetime64 value: ``YYYY-MM-DDTHH:MM:SSZ`` for a whole second,
    ``YYYY-MM-DDTHH:MM:SS.ffffffZ`` for any other time."""
    return [t.removesuffix(".000000") + "Z" for t in np.datetime_as_string(times, unit="us").tolist()]


def _decode_stamps(stamps: List[str]) -> Tuple[np.ndarray, np.ndarray]:
    """UTC epoch microseconds of timestamp texts, and where each is a canonical stamp (see :func:`_encode_stamps`)
    within the datetime range whose value prints back to it. _WRITE_BLOCK_ROWS texts at a time, a whole second is
    rewritten as ``SS.000000Z``, so that both forms convert in one cast; any other text is left to _parse_time."""
    form = np.frombuffer(b"0000-00-00T00:00:00.000000Z", dtype=np.uint8)  # "0" stands for any digit
    us, ok = np.zeros(len(stamps), dtype=np.int64), np.zeros(len(stamps), dtype=bool)
    for lo in range(0, len(stamps), _WRITE_BLOCK_ROWS):
        codes = np.array(stamps[lo : lo + _WRITE_BLOCK_ROWS], dtype="U28").view(np.uint32).reshape(-1, 28)
        codes[(codes[:, 19] == ord("Z")) & (codes[:, 20] == 0), 19:27] = form[19:]  # no file holds a NUL
        good = np.where(form == ord("0"), codes[:, :27] - np.uint32(ord("0")) < 10, codes[:, :27] == form).all(axis=1)
        good &= (codes[:, 27] == 0) & (codes[:, :4] != ord("0")).any(axis=1)  # year 0 is out of range
        text, values = codes[:, :26].astype(np.uint8, order="C").view("S26").ravel(), us[lo : lo + len(codes)]
        try:  # bytes cast faster than str
            values[good] = text[good].astype("datetime64[us]").astype(np.int64)
        except ValueError:  # a field out of range, such as month 13: every stamp of the block takes the slow path
            good[:] = False
        ok[lo : lo + len(text)][good] = values[good].astype("datetime64[us]").astype(text.dtype) == text[good]
    return us, ok


def _parse_time(text: str) -> datetime:
    raw = text.strip()
    if raw.endswith("Z"):
        raw = raw[:-1] + "+00:00"
    t = datetime.fromisoformat(raw)
    if t.tzinfo is None:
        raise ValueError(f"timestamp {text!r} lacks a UTC offset")
    return t.astimezone(timezone.utc)


class _RowFault(ValueError):
    """A check's fault at index ``row`` of its rows, whose number fields the reader adds if ``fields``."""

    def __init__(self, row: int, message: str, fields: bool = False):
        super().__init__(message)
        self.row, self.fields = row, fields


def _fill(values: np.ndarray, func, texts: List[str], rows: np.ndarray) -> None:
    """Set ``values[i] = func(texts[i])`` for each index ``i`` of ``rows`` in turn; a ValueError
    or OverflowError (a time outside the datetime range) becomes a _RowFault at ``i``."""
    for i in rows.tolist():
        try:
            values[i] = func(texts[i])
        except (ValueError, OverflowError) as exc:
            raise _RowFault(i, str(exc)) from None


def _id_column(texts: List[str]) -> np.ndarray:
    """The stripped ids as a str array, as wide as the longest: _RowFault at the first over MAX_ID_CHARS."""
    ids = [t.strip() for t in texts]
    if max(map(len, ids), default=0) > MAX_ID_CHARS:
        i = next(i for i, sid in enumerate(ids) if len(sid) > MAX_ID_CHARS)
        raise _RowFault(i, f"id of {len(ids[i])} characters is longer than {MAX_ID_CHARS}")
    return np.array(ids, dtype=str)


def _rank_column(names: List[str]) -> np.ndarray:
    """The int8 rank of every class name; _RowFault on the first row of the first unknown one."""
    ranks = {}
    for name in dict.fromkeys(names):  # each distinct text, in the order they first appear
        try:
            ranks[name] = FlareClass.from_name(name)
        except ValueError as exc:
            raise _RowFault(names.index(name), str(exc)) from None
    return np.fromiter(map(ranks.__getitem__, names), np.int8, len(names))


def _processes(size: int) -> int:
    """Processes for ``size`` bytes of CSV text: one per usable CPU and _SPLIT_BYTES, or 1 without fork or while
    another Python thread runs (a child gets only the forking one). The OpenBLAS threads that active_count() does not
    count are safe to fork beside: no child (a reader's parse, a writer's block_text) makes a BLAS call to wait on them."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), size // _SPLIT_BYTES))


@contextmanager
def _in_order(func, items: Sequence, processes: int):
    """Yield ``map(func, items)``, computed here or by ``processes`` forked workers,
    which inherit ``func``; worker k pickles items k, k + processes, ... one at a
    time into its own pipe to this thread, and leaves by os._exit, never through the
    caller's code. Leaving the block, also on an error, ends and reaps them."""
    processes = min(processes, len(items))
    if processes < 2:
        yield map(func, items)
        return
    workers, pipes = [], []
    try:
        for k in range(processes):
            receive, send = os.pipe()
            pipes.append(open(receive, "rb"))
            with open(send, "wb") as out:  # closed here before the next fork, so that this worker's exit ends its pipe
                if (pid := os.fork()) == 0:
                    try:
                        for pipe in pipes:
                            pipe.close()
                        for item in items[k::processes]:
                            pickle.dump(func(item), out)
                            out.flush()
                        os._exit(0)
                    finally:  # on any exception
                        os._exit(1)
            workers.append(pid)
        yield (pickle.load(pipes[i % processes]) for i in range(len(items)))
    except (EOFError, pickle.UnpicklingError):  # a worker that ended before, or while, sending an item
        raise ChildProcessError("a CSV worker process ended early") from None
    finally:
        for pid in workers:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _fields(line: bytes) -> List[str]:
    """The fields of one line of CSV text, decoded as open() does, without its line end; ValueError at a byte out of
    dialect (see _BANNED)."""
    if bad := _OUT_OF_DIALECT.search(line):
        raise ValueError(f"{bad.group().decode()!r} is not allowed: CSV files hold no quote, NUL, \\x1c-\\x1f or lone CR")
    return line.decode(locale.getpreferredencoding(False)).removesuffix("\n").removesuffix("\r").split(",")


def _walk(data: bytes, texts: int, width: int, fault: Optional[_RowFault] = None) -> Tuple[int, str]:
    """The first line (from 0) of CSV text ``data`` that np.loadtxt cannot read and why: see :func:`_fields`, other than
    ``width`` fields, or a number after ``texts`` fields that float() or loadtxt does not read. Else ``fault``'s line."""
    rows = 0
    for n, line in enumerate(io.BytesIO(data)):
        try:
            fields = _fields(line)
            if fields == [""]:  # an empty line, which loadtxt skips
                continue
            if len(fields) != width:
                raise ValueError(f"expected {width} fields, got {len(fields)}")
            for text in fields[texts:]:
                if "_" in text or not text.strip().isascii():  # which float() reads and loadtxt does not
                    raise ValueError(f"could not convert string to float: {text!r}")
                float(text)
        except ValueError as exc:
            return n, str(exc)
        if fault is not None and rows == fault.row:
            return n, str(fault) + (f", got {fields[texts:]}" if fault.fields else "")
        rows += 1
    raise ValueError("np.loadtxt failed on lines that each read")


def _read_csv(path, check, *headers: List[str], more: str = "", keyed: bool = True) -> tuple:
    """The columns ``check(texts, numbers)`` gives for a CSV file whose header, stripped and lowercased, is one of
    ``headers``, then one or more fields where ``more`` names them: its text fields (those before the first ``p_*``
    or ``more`` one) as lists of str, its number fields as a float64 block, as np.loadtxt reads them. The file is
    cut into ranges of about _SPLIT_BYTES after LF bytes, parsed in turn by this process or by forked workers (see
    :func:`_in_order`). As each range arrives, its columns are copied into columns as long as the file has lines,
    but for a str column (the ids), whose width varies by range, joined at the end. The first range with a byte out
    of dialect, that loadtxt cannot read or that fails the check, else a repeated id (``keyed``: ids first), gives a
    DataFileError naming the line (see :func:`_walk`)."""
    with open(path, "rb") as fh:
        size, cuts = os.fstat(fh.fileno()).st_size, [len(head := fh.readline())]
        while cuts[-1] < size:  # just after the first LF at least _SPLIT_BYTES on, or at the end
            fh.seek(cuts[-1] + _SPLIT_BYTES - 1)
            cuts.append(min(size, fh.tell() + len(fh.readline())))
        fh.seek(0)  # the file's lines, at most one row each, counted in small reads: no range is held here
        lines = 1 + sum(chunk.count(b"\n") for chunk in iter(functools.partial(fh.read, 1 << 16), b""))
    try:
        header = [h.strip().lower() for h in _fields(head)]
        found = [f for f in headers if header[: len(f)] == f and (len(header) > len(f)) == bool(more)]
        if not found:
            raise ValueError("expected header " + " or ".join(repr(",".join(f + [more] if more else f)) for f in headers))
    except ValueError as exc:
        raise DataFileError(path, 1, str(exc)) from None
    texts, width = next((i for i, name in enumerate(found[0]) if name.startswith("p_")), len(found[0])), len(header)
    dtype = [(f"t{i}", object) for i in range(texts)] + [("v", np.float64, (width - texts,))]

    def read(lo: int, hi: int) -> bytes:
        with open(path, "rb") as fh:
            fh.seek(lo)
            return fh.read(hi - lo)

    def parse(span: Tuple[int, int]):
        data, fault = read(*span), None
        if not (any(map(data.__contains__, _BANNED)) or re.search(rb"\r(?!\n)", data)):  # per-byte scans beat one regex
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # a range of blank lines
                    text = io.TextIOWrapper(io.BytesIO(data), newline="\n")  # decoded as open() does
                    rows = np.loadtxt(text, dtype=dtype, delimiter=",", comments=None, ndmin=1)
                return check([rows[f"t{i}"].tolist() for i in range(texts)], rows["v"])
            except _RowFault as exc:
                fault = exc
            except ValueError:  # loadtxt's, a UnicodeDecodeError among them (the check raises _RowFault)
                pass
        line, message = _walk(data, texts, width, fault)
        return DataFileError(path, 1 + read(0, span[0]).count(b"\n") + line, message)

    columns, n = [], 0
    with _in_order(parse, list(zip(cuts, cuts[1:])) or [(size, size)], _processes(size)) as results:
        for part in results:
            if isinstance(part, DataFileError):
                raise part
            if not columns:  # a str column (the ids), whose width varies by range, is joined at the end
                columns = [[] if c.dtype.kind == "U" else np.empty((lines,) + c.shape[1:], c.dtype) for c in part]
            for column, values in zip(columns, part):
                if isinstance(column, list):
                    column.append(values)
                else:
                    column[n : n + len(values)] = values
            n += len(values)
            del part, values  # so that this range's arrays are freed before the next is parsed
    cols = tuple(np.concatenate(c) if isinstance(c, list) else c[:n] for c in columns)
    if keyed and ((ids := np.sort(cols[0], kind="stable"))[1:] == ids[:-1]).any():  # timsort: ids come nearly sorted
        ids, order, body = cols[0], np.argsort(cols[0], kind="stable"), read(cuts[0], size)
        i = int(order[1:][ids[order[1:]] == ids[order[:-1]]].min())  # the first row whose id is on an earlier one
        first, line = (2 + _walk(body, texts, width, _RowFault(row, ""))[0] for row in (np.argmax(ids == ids[i]), i))
        raise DataFileError(path, line, f"duplicate id {str(ids[i])!r} (first on line {first})")
    return cols


def _write_csv(path, header: List[str], n: int, rows, row_bytes: int, ids=()) -> None:
    """Write a CSV file as csv.writer would, with CRLF line ends: ``header``, then the fields ``rows(block)`` gives
    for each _WRITE_BLOCK_ROWS of ``n`` rows, one string a block, built by forked workers when ``n * row_bytes`` bytes
    of text are worth them (see :func:`_processes`). First, so that no file is left, ValueError names the first of
    ``ids`` that no CSV file holds (see :func:`_fields`) or that a reader's strip changes, and UnicodeEncodeError (a
    ValueError) meets one that open()'s encoding cannot write, such as a lone surrogate in UTF-8; then ValueError
    names the least id that is repeated, which every keyed reader rejects."""
    banned = ",\r\n" + _BANNED.decode()
    for lo in range(0, len(ids), _WRITE_BLOCK_ROWS):
        block = ids[lo : lo + _WRITE_BLOCK_ROWS].tolist()
        "".join(block).encode(locale.getpreferredencoding(False))  # as open() encodes
        stripped = list(map(str.strip, block))  # as every reader strips ids
        if ids.itemsize > 4 * MAX_ID_CHARS or stripped != block or any(map("".join(block).__contains__, banned)):
            for sid in block:
                if len(sid) > MAX_ID_CHARS or any(map(sid.__contains__, banned)) or sid != sid.strip():
                    why = "too long, padded with whitespace, or holds , \" CR LF NUL or \\x1c-\\x1f"
                    raise ValueError(f"id {sid!r} cannot be written: {why}")
    ordered = np.sort(ids, kind="stable")  # timsort, as _read_csv's: ids come nearly sorted
    if (repeated := ordered[1:][ordered[1:] == ordered[:-1]]).size:
        raise ValueError(f"id {str(repeated[0])!r} cannot be written twice: a reader rejects a repeated id")

    def block_text(lo: int) -> str:
        return "".join(f"{','.join(fields)}\r\n" for fields in rows(slice(lo, lo + _WRITE_BLOCK_ROWS)))

    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        with _in_order(block_text, range(0, n, _WRITE_BLOCK_ROWS), _processes(n * row_bytes)) as texts:
            fh.writelines(texts)


def _stamp_times(times, column: str, name) -> np.ndarray:
    """``times``, int64 UTC epoch microseconds (see :func:`flarecast.core._check_times`, which names ``column``), as
    datetime64[us], which :func:`_encode_stamps` writes. ValueError names (as ``name(i)``) the first that no stamp
    holds: one outside 0001-01-01T00:00:00Z .. 9999-12-31T23:59:59.999999Z, ``-2**63`` (NaT) among them."""
    us = _check_times(times, column)
    bad = (us < _FIRST_US) | (us > _LAST_US)
    if bad.any():
        why = "NaT or outside 0001-01-01T00:00:00Z .. 9999-12-31T23:59:59.999999Z"
        raise ValueError(f"{name(int(bad.argmax()))} cannot be written: {why}")
    return us.view("datetime64[us]")


def write_events(path, peak_us, ranks) -> None:
    """Write ``peak_time,class`` rows of at most 31 bytes, the times (int64 UTC epoch microseconds) as canonical
    stamps (see :func:`_encode_stamps`). Before the file is opened, ValueError names the first time that no stamp
    holds (see :func:`_stamp_times`), or the lengths of columns that differ."""
    names = _class_names(ranks, "ranks")
    times = _stamp_times(peak_us, "peak times", lambda i: f"peak time {peak_us[i]}")
    _check_aligned(peak_us=times, ranks=names)
    _write_csv(path, ["peak_time", "class"], len(names), lambda b: zip(_encode_stamps(times[b]), names[b]), 31)


def _check_events(texts: List[List[str]], numbers: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The peak times (int64 UTC epoch microseconds) and class ranks (int8) of ``events.csv`` rows:
    canonical stamps decoded at once (see :func:`_decode_stamps`), any other through :func:`_parse_time`."""
    peak_us, canonical = _decode_stamps(texts[0])
    _fill(peak_us, lambda s: (_parse_time(s) - EPOCH) // MICROSECOND, texts[0], np.flatnonzero(~canonical))
    return peak_us, _rank_column(texts[1])


def read_events(path) -> Tuple[np.ndarray, np.ndarray]:
    """``events.csv`` as columns: peak times (int64 UTC epoch microseconds) and class ranks (int8)."""
    return _read_csv(path, _check_events, ["peak_time", "class"], keyed=False)


def write_samples(path, table: SampleTable) -> None:
    """Write ``id,timestamp,mask,f0..`` rows (see :func:`_write_csv`), each feature as its ``repr``. Before the file is
    opened, ValueError names the id of the first row whose time no stamp holds (see :func:`_stamp_times`) or whose
    features are not all finite, which read_samples would reject."""
    times = _stamp_times(table.times, "times", lambda i: f"time of id {str(table.ids[i])!r}")
    finite = np.isfinite(table.features).all(axis=1)
    if not finite.all():
        raise ValueError(f"features of id {str(table.ids[finite.argmin()])!r} cannot be written: they must be finite")

    def rows(block: slice):
        masks = (table.mask[block].astype(np.uint8) + ord("0")).view(f"S{N_CHANNELS}").ravel().astype(str).tolist()
        ids, feats = table.ids[block].tolist(), table.features[block].tolist()
        stamps = _encode_stamps(times[block])
        return ((sid, stamp, mask, *map(repr, f)) for sid, stamp, mask, f in zip(ids, stamps, masks, feats))

    dim = table.features.shape[1]  # a feature's repr and its comma take about 20 bytes
    _write_csv(path, ["id", "timestamp", "mask"] + [f"f{i}" for i in range(dim)], len(table), rows, 20 * dim, table.ids)


def _check_samples(texts: List[List[str]], features: np.ndarray) -> tuple:
    """The ids, UTC epoch microseconds, masks and finite features of ``samples.csv`` rows: canonical stamps on the
    grid decoded at once (see :func:`_decode_stamps`), any other through _parse_time and core.grid_us."""
    ids, stamps, masks = texts
    masks = [m.strip() for m in masks]
    codes = np.array(masks, dtype=f"U{N_CHANNELS}").view(np.uint32).reshape(-1, N_CHANNELS)
    bad = (codes - np.uint32(ord("0")) > 1).any(axis=1) | (np.fromiter(map(len, masks), np.intp, len(masks)) != N_CHANNELS)
    if bad.any():
        i = int(bad.argmax())
        raise _RowFault(i, f"mask must be {N_CHANNELS} characters of 0/1, got {masks[i]!r}")
    ids = _id_column(ids)
    times, canonical = _decode_stamps(stamps)
    _fill(times, lambda s: grid_us(_parse_time(s)), stamps, np.flatnonzero(~canonical | (times % GRID_US != 0)))
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        i = int(finite.argmin())
        raise _RowFault(i, f"features of id {str(ids[i])!r} must be finite")
    return ids, times, codes == ord("1"), features


def read_samples(path) -> SampleTable:
    """``samples.csv`` as a table (see :func:`_check_samples`)."""
    return SampleTable._adopt(*_read_csv(path, _check_samples, ["id", "timestamp", "mask"], more="f0.."))


def write_labels(path, ids: Sequence[str], labels) -> None:
    """Write ``id,label`` rows as csv.writer would, unquoted; ``labels`` are class ranks or :class:`FlareClass` members,
    one per id (ValueError names the lengths of columns that differ, before the file is opened)."""
    ids, names = _str_ids(ids, np.asarray), _class_names(labels, "labels")
    _check_aligned(ids=ids, labels=names)
    _write_csv(path, ["id", "label"], len(ids), lambda b: zip(ids[b].tolist(), names[b]), ids.itemsize // 4 + 4, ids)


def _check_id_classes(texts: List[List[str]], numbers: np.ndarray) -> tuple:
    """The ids (str) of an ``id,label`` file's rows and their class ranks (int8), or of an
    ``id,p_o,p_c,p_m,p_x`` file's rows and their unscaled rows (float64): each non-negative,
    with ``((p_o + p_c) + p_m) + p_x`` within 1e-6 of 1."""
    ids = _id_column(texts[0])
    if len(texts) == 2:
        return ids, _rank_column(texts[1])
    sums = ((numbers[:, 0] + numbers[:, 1]) + numbers[:, 2]) + numbers[:, 3]
    bad = ~((numbers.min(axis=1) >= 0) & (np.abs(sums - 1.0) <= 1e-6))
    if bad.any():
        raise _RowFault(int(bad.argmax()), "probabilities must be non-negative and sum to 1", fields=True)
    return ids, numbers


def _read_id_classes(path, *headers: List[str]) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """An id-keyed class file whose header is one of ``headers``, as columns:
    the ids (str) and either the class ranks (int8) of an ``id,label`` file or
    the unscaled rows (float64) of an ``id,p_o,p_c,p_m,p_x`` file, the other None."""
    ids, values = _read_csv(path, _check_id_classes, *headers)
    return (ids, values, None) if values.ndim == 1 else (ids, None, values)


def read_labels(path) -> Tuple[np.ndarray, np.ndarray]:
    """``labels.csv`` as columns: the ids (str) and their class ranks (int8)."""
    return _read_id_classes(path, ["id", "label"])[:2]


def match_ids(keys: np.ndarray, wanted: np.ndarray, keys_path, wanted_path) -> np.ndarray:
    """Positions ``pos`` (np.intp) with ``keys[pos] == wanted``, for unique ``keys``.

    ValueError names the first id of ``wanted``, in its order, that ``keys``
    lacks, and the files the two sides came from.
    """
    order = np.argsort(keys, kind="stable")  # ids are unique and mostly sorted already
    pos = np.searchsorted(keys, wanted, sorter=order)
    for lo in range(0, len(pos), _WRITE_BLOCK_ROWS):  # verified a block at a time: no full-length id copy
        slot, ids = pos[lo : lo + _WRITE_BLOCK_ROWS], wanted[lo : lo + _WRITE_BLOCK_ROWS]
        found = slot < len(keys)
        slot[found] = order[slot[found]]  # in place: pos becomes positions in keys
        found[found] = keys[slot[found]] == ids[found]
        if not found.all():
            raise ValueError(f"id {str(ids[~found][0])!r} in {wanted_path} has no row in {keys_path}")
    return pos


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
