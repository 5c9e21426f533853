"""Output checks and fingerprints for the benchmark.

The checks recompute what a command wrote by an independent route (numpy
labeling, a loop-form Gerrity score) or verify the invariants a user relies
on (a loadable, finite checkpoint; one history row per epoch; confusion counts
that add up). Each check returns a list of failure messages; empty means the
output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import sys
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

CLASSES = ("O", "C", "M", "X")
HORIZON_S = 72 * 3600


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def fingerprints(paths: Sequence[Path]) -> Dict[str, str]:
    return {p.name: sha256(p) for p in paths if p.exists()}


def _utc_seconds(stamps: Sequence[str]) -> np.ndarray:
    return np.array([s.strip().rstrip("Z") for s in stamps], dtype="datetime64[s]").astype(np.int64)


def _columns(path, count: int) -> List[List[str]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [row[:count] for row in reader if row]
    return [list(col) for col in zip(*rows)] if rows else [[] for _ in range(count)]


def expected_labels(samples_csv, events_csv) -> Dict[str, int]:
    """Largest event class peaking in ``(t, t + 72 h]`` for every sample id.

    Sorted event times are bisected with ``np.searchsorted``; per class
    threshold ``c``, a prefix count of events of class >= c tells whether the
    window holds one, and the largest such ``c`` is the label.
    """
    ids, stamps = _columns(samples_csv, 2)
    t = _utc_seconds(stamps)
    ev_stamps, ev_names = _columns(events_csv, 2)
    ev_t = _utc_seconds(ev_stamps)
    ev_cls = np.array([CLASSES.index(n.strip().upper()) for n in ev_names], dtype=np.int64)
    order = np.argsort(ev_t, kind="stable")
    ev_t, ev_cls = ev_t[order], ev_cls[order]
    lo = np.searchsorted(ev_t, t, side="right")
    hi = np.searchsorted(ev_t, t + HORIZON_S, side="right")
    labels = np.zeros(len(t), dtype=np.int64)
    for c in range(1, len(CLASSES)):
        prefix = np.concatenate([[0], np.cumsum(ev_cls >= c)])
        labels[prefix[hi] > prefix[lo]] = c
    return dict(zip(ids, labels.tolist()))


def read_labels(path) -> Dict[str, int]:
    ids, names = _columns(path, 2)
    return {i.strip(): CLASSES.index(n.strip().upper()) for i, n in zip(ids, names)}


def check_labels(labels_csv, want: Dict[str, int]) -> List[str]:
    """``label``'s output against the labels from :func:`expected_labels`."""
    got = read_labels(labels_csv)
    if set(got) != set(want):
        return [f"{labels_csv}: ids differ from the samples file ({len(got)} vs {len(want)})"]
    wrong = [i for i in want if got[i] != want[i]]
    if wrong:
        return [f"{labels_csv}: {len(wrong)} labels differ from the numpy labeling, first {wrong[0]!r}"]
    return []


def read_metric_csv(path) -> Dict[str, str]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return {row[0]: row[1] for row in reader if row}


def confusion_from_report(report: Dict[str, str]) -> np.ndarray:
    return np.array([[int(report[f"confusion_{o}_{p}"]) for p in CLASSES] for o in CLASSES])


def gerrity_gmgs(counts: np.ndarray) -> float:
    """GMGS from confusion counts, by Gerrity's (1992) formula written as loops.

    With the observed climatology ``p`` and ``a_r = (1 - D_r) / D_r`` over the
    cumulative probabilities ``D_r`` (1-indexed, ``r < K``)::

        s_ii = (sum_{r<i} 1/a_r + sum_{r>=i} a_r) / (K - 1)
        s_ij = (sum_{r<i} 1/a_r - (j - i) + sum_{r>=j} a_r) / (K - 1),  i < j
    """
    k = counts.shape[0]
    n = float(counts.sum())
    p = [float(counts[i].sum()) / n for i in range(k)]
    a = {}
    cum = 0.0
    for r in range(1, k):
        cum += p[r - 1]
        a[r] = (1.0 - cum) / cum
    score = 0.0
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            lo, hi = min(i, j), max(i, j)
            s = sum(1.0 / a[r] for r in range(1, lo)) - (hi - lo) + sum(a[r] for r in range(hi, k))
            score += counts[i - 1, j - 1] / n * s / (k - 1)
    return score


def check_report(report_csv, labels: Dict[str, int], preds_csv) -> List[str]:
    """``eval``'s report: confusion from labels and argmax predictions, and GMGS."""
    report = read_metric_csv(report_csv)
    counts = confusion_from_report(report)
    ids, *cols = _columns(preds_csv, 5)
    pred = np.array(cols, dtype=float).argmax(axis=0)
    obs = np.array([labels[i.strip()] for i in ids])
    want = np.bincount(4 * obs + pred, minlength=16).reshape(4, 4)
    failures = []
    if not np.array_equal(counts, want):
        failures.append(f"{report_csv}: confusion {counts.tolist()} != recomputed {want.tolist()}")
    gmgs = gerrity_gmgs(counts)
    if abs(float(report["gmgs"]) - gmgs) > 1e-9:
        failures.append(f"{report_csv}: gmgs {report['gmgs']} != Gerrity formula {gmgs!r}")
    return failures


def check_train(out_dir: Path, src_dir: Path, epochs: int, test_size: int, shapes: Dict[str, tuple]) -> List[str]:
    """``train``'s outputs: checkpoint shapes and finiteness, history rows, test counts."""
    if str(src_dir) not in sys.path:
        sys.path.insert(0, str(src_dir))
    from flarecast.trainer import load_checkpoint

    failures = []
    try:
        params, _ = load_checkpoint(out_dir / "checkpoint.txt")
    except (OSError, ValueError) as exc:
        return [f"{out_dir / 'checkpoint.txt'}: does not load: {exc}"]
    got = {name: tuple(arr.shape) for name, arr in params.items()}
    if got != shapes:
        failures.append(f"checkpoint shapes {got} != configured {shapes}")
    if not all(np.all(np.isfinite(arr)) for arr in params.values()):
        failures.append("checkpoint holds non-finite values")
    rows = (out_dir / "history.csv").read_text().splitlines()[1:]
    if len(rows) != epochs:
        failures.append(f"history.csv has {len(rows)} rows, expected {epochs}")
    total = int(confusion_from_report(read_metric_csv(out_dir / "test_report.csv")).sum())
    if total != test_size:
        failures.append(f"test_report.csv confusion sums to {total}, test size is {test_size}")
    return failures
