"""Independent oracles shared by the test suite.

These deliberately reimplement the checked quantities by other means: the
scoring matrix in arbitrary precision via mpmath, gradients via central
finite differences, window labeling by brute-force scan, confusion counts,
the Brier skill score, the channel policy and the id join by per-row loops,
the loss family one sample at a time, AdamW and backprop in an allocating,
per-name dict form, the training loop one freshly gathered batch at a
time, and the sample, event and id-class CSV files through ``csv.writer``
and per-row reader loops. None of them import the code paths they verify beyond
plain data containers (``DataFileError`` among them) and the softmax, with
four exceptions: the CSV reader loops check the 2-hour grid with
``core.grid_us``, whose message the readers share; the list forms
``flare_loss``/``flare_loss_grad`` adapt ``(HeadState, y)`` pairs to the
array kernel ``flarecast.losses.flare_loss_arrays``; ``forward_row`` reads
one row through ``flarecast.trainer.forward`` with the phases of
``flarecast.trainer._phis``, so the tests that use it check both; and
``train_reference`` takes its initial parameters, phases and validation
scores from ``init_params``, ``_phis`` and ``metrics.build_report``.
"""

import csv
import locale
import re
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Dict, List, Optional, Sequence, Tuple

import mpmath as mp
import numpy as np

from flarecast.core import EPOCH, N_CLASSES, ClassWeights, FlareClass, SampleTable, _frozen, class_weights, grid_us
from flarecast.losses import FACTOR_FLOOR, PROB_FLOOR, LossBreakdown, flare_loss_arrays, softmax
from flarecast.metrics import build_report
from flarecast.pipeline import DataFileError
from flarecast.trainer import EpochRecord, _phis, forward, init_params

mp.mp.dps = 50

# Reference confusion matrix from the full-scale evaluation (rows observed
# O,C,M,X; columns predicted O,C,M,X). Entries sum to 8306.
REFERENCE_CONFUSION = np.array(
    [
        [5336, 471, 92, 69],
        [807, 748, 105, 183],
        [139, 130, 85, 64],
        [1, 33, 12, 31],
    ],
    dtype=np.int64,
)

# Full-dataset class counts (O,C,M,X) reported for the reference corpus.
REFERENCE_CLASS_COUNTS = (18170, 16608, 10986, 2131)

# Reference top-5 influence rows as published for the full-scale system:
# (observed, predicted, influence).
REFERENCE_INFLUENCE_TOP5 = [
    ("C", "O", 0.0741),
    ("O", "C", 0.0433),
    ("M", "O", 0.0195),
    ("C", "X", 0.0163),
    ("O", "M", 0.0129),
]

# Frozen high-precision values computed with gerrity_mp on the reference
# matrix's row-sum climatology (see test_metrics for the live recomputation).
FROZEN_GMGS_REFERENCE = 0.39454906797061493
FROZEN_TSS_REFERENCE = 192 / 495 - 449 / 7811  # = 0.33039575113573321
FROZEN_GERRITY_DIAG = (
    0.15482845038832656,
    0.87511279552417512,
    6.1139213996381179,
    41.734178972502326,
)


def gerrity_mp(climatology):
    """Arbitrary-precision Gerrity scoring matrix (independent closed form)."""
    p = [mp.mpf(str(v)) if not isinstance(v, mp.mpf) else v for v in climatology]
    k = len(p)
    cum = [sum(p[: r + 1]) for r in range(k)]
    odds = [(1 - cum[r]) / cum[r] for r in range(k - 1)]
    s = [[mp.mpf(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            val = sum(1 / odds[r] for r in range(i)) - (j - i) + sum(odds[r] for r in range(j, k - 1))
            s[i][j] = val / (k - 1)
            s[j][i] = s[i][j]
    return s


def gmgs_mp(counts, climatology=None):
    """High-precision skill score of an integer confusion matrix."""
    counts = np.asarray(counts)
    n = int(counts.sum())
    if climatology is None:
        climatology = [mp.mpf(int(r)) / n for r in counts.sum(axis=1)]
    s = gerrity_mp(climatology)
    total = mp.mpf(0)
    for i in range(4):
        for j in range(4):
            total += int(counts[i, j]) * s[i][j]
    return total / n


def central_diff(f, x, step=1e-6):
    """Central finite-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        up = x.copy()
        up.flat[i] += step
        down = x.copy()
        down.flat[i] -= step
        g.flat[i] = (f(up) - f(down)) / (2 * step)
    return g


def max_rel_err(analytic, reference):
    analytic = np.asarray(analytic, dtype=float)
    reference = np.asarray(reference, dtype=float)
    denom = max(1.0, float(np.max(np.abs(analytic))))
    return float(np.max(np.abs(analytic - reference))) / denom


def pairs_from_matrix(counts):
    """Expand a confusion matrix into the multiset of (observed, predicted) pairs."""
    pairs = []
    for i in range(4):
        for j in range(4):
            pairs.extend([(FlareClass(i), FlareClass(j))] * int(counts[i, j]))
    return pairs


def ranks_from_pairs(pairs):
    """Split (observed, predicted) class pairs into the two rank arrays the scoring API takes."""
    observed = np.array([int(o) for o, _ in pairs], dtype=np.int64)
    predicted = np.array([int(p) for _, p in pairs], dtype=np.int64)
    return observed, predicted


def arrays_from_forecasts(forecasts):
    """Split (distribution, observed class) forecasts into an (N, 4) array and observed ranks."""
    probs = np.array([np.asarray(p, dtype=float) for p, _ in forecasts]).reshape(-1, 4)
    observed = np.array([int(o) for _, o in forecasts], dtype=np.int64)
    return probs, observed


def confusion_loop(pairs):
    """Confusion counts by one increment per (observed, predicted) pair."""
    c = np.zeros((4, 4), dtype=np.int64)
    for obs, pred in pairs:
        c[int(obs), int(pred)] += 1
    return c


def bss_loop(forecasts):
    """Brier skill score for the >=M event, reading one forecast at a time.

    The event probability and outcome are extracted per forecast; the means
    are then taken over arrays, as the array path does.
    """
    q = np.array([float(np.asarray(p)[2:].sum()) for p, _ in forecasts])
    o = np.array([1.0 if int(label) >= 2 else 0.0 for _, label in forecasts])
    rate = float(o.mean())
    return 1.0 - float(((q - o) ** 2).mean()) / (rate * (1.0 - rate))


def label_max_class(t, peak_us, ranks, horizon_hours=72.0):
    """Largest flare class among events peaking in ``(t, t + horizon]``, by
    scanning every event as a datetime; events are peak times in UTC epoch
    microseconds and class ranks."""
    end = t + timedelta(hours=horizon_hours)
    best = FlareClass.O
    for us, rank in zip(peak_us, ranks):
        if t < EPOCH + timedelta(microseconds=int(us)) <= end and rank > best:
            best = FlareClass(int(rank))
    return best


def select_rows(table, rows) -> SampleTable:
    """The rows of ``table`` that an index array or boolean mask selects, in that order, as a new table."""
    return SampleTable(*(column[rows] for column in (table.ids, table.times, table.mask, table.features, table.labels)))


def channel_policy_loop(masks, features, labels):
    """The channel policy one row at a time.

    Returns the kept row indices, their features with each missing channel's
    ``np.array_split`` block assigned 0.0, and the number of rows excluded.
    """
    kept, rows, excluded = [], [], 0
    for i, (mask, feats, label) in enumerate(zip(masks, features, labels)):
        if label < 0 or 10 - sum(bool(b) for b in mask) >= 3:
            excluded += 1
            continue
        out = np.array(feats, dtype=float)
        for ch, block in enumerate(np.array_split(np.arange(out.shape[0]), 10)):
            if not mask[ch]:
                out[block] = 0.0
        kept.append(i)
        rows.append(out)
    return kept, np.array(rows).reshape(len(kept), np.shape(features)[1]), excluded


def match_ids_loop(keys, wanted):
    """Positions in ``keys`` of every ``wanted`` id, one dict lookup per row;
    raises KeyError with the first ``wanted`` id that ``keys`` lacks."""
    row_of = {key: i for i, key in enumerate(keys)}
    order = []
    for sid in wanted:
        if sid not in row_of:
            raise KeyError(sid)
        order.append(row_of[sid])
    return order


# ---------------------------------------------------------------------------
# The sample, event and id-class CSV files through csv.writer and per-row reader loops
# ---------------------------------------------------------------------------

DIALECT = "CSV files hold no quote, NUL, \\x1c-\\x1f or lone CR"

def write_samples_rows(path, table):
    """``samples.csv`` through ``csv.writer``, one list of strings per row:
    the stamp rendered by datetime, the mask one character per channel and
    every feature as its ``repr``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "timestamp", "mask"] + [f"f{i}" for i in range(table.features.shape[1])])
        for sid, t, mask, feats in zip(table.ids.tolist(), table.times.tolist(), table.mask.tolist(), table.features.tolist()):
            stamp = (EPOCH + timedelta(microseconds=t)).isoformat().replace("+00:00", "Z")
            w.writerow([sid, stamp, "".join("1" if b else "0" for b in mask)] + [repr(v) for v in feats])


def _parse_time_row(text: str) -> datetime:
    raw = text.strip()
    if raw.endswith("Z"):
        raw = raw[:-1] + "+00:00"
    t = datetime.fromisoformat(raw)
    if t.tzinfo is None:
        raise ValueError(f"timestamp {text!r} lacks a UTC offset")
    return t.astimezone(timezone.utc)


def _new_id_row(raw: str, line_no: int, seen: Dict[str, int]) -> str:
    sid = raw.strip()
    if len(sid) > 256:
        raise ValueError(f"id of {len(sid)} characters is longer than 256")
    if sid in seen:
        raise ValueError(f"duplicate id {sid!r} (first on line {seen[sid]})")
    seen[sid] = line_no
    return sid


def _float_row(text: str) -> float:
    """``float(text)`` for a number np.loadtxt reads too: ASCII once stripped, and without ``_``."""
    if "_" in text or not text.strip().isascii():
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


@contextmanager
def _csv_rows_loop(path, *headers: List[str], more: str = ""):
    """A CSV file's checked header and its non-blank ``(line_no, row)`` pairs. Each line must hold no
    ``"``, NUL or \\x1c-\\x1f and no CR but the one before its LF; it is decoded on its own and split at
    every comma. A ValueError or OverflowError becomes a DataFileError naming the line being read or used."""
    at = {"line": 1}

    def lines():
        with open(path, "rb") as fh:
            for at["line"], raw in enumerate(fh, 1):  # a binary file's lines end at LF
                bad = re.search(rb'["\x00\x1c-\x1f]|\r(?!\n)', raw)
                if bad:
                    raise ValueError(f"{bad.group().decode()!r} is not allowed: {DIALECT}")
                yield raw.removesuffix(b"\n").decode(locale.getpreferredencoding(False)).removesuffix("\r").split(",")

    def rows():
        for row in texts:
            if row != [""]:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                yield at["line"], row

    try:
        texts = lines()
        header = [h.strip().lower() for h in next(texts, [])]
        if not any(header[: len(f)] == f and (len(header) > len(f)) == bool(more) for f in headers):
            expected = " or ".join(repr(",".join(f + [more] if more else f)) for f in headers)
            raise ValueError(f"expected header {expected}")
        yield header, rows()
    except (ValueError, OverflowError) as exc:
        raise DataFileError(path, at["line"], str(exc)) from None


def read_samples_rows(path) -> SampleTable:
    """``samples.csv`` one row at a time, every field checked and converted on
    its row: the mask, the id, the stamp through ``datetime`` and the
    features one ``float`` at a time."""
    ids, seen, times, masks, feats = [], {}, [], [], []
    with _csv_rows_loop(path, ["id", "timestamp", "mask"], more="f0..") as (header, rows):
        for line_no, row in rows:
            mask = row[2].strip()
            if len(mask) != 10 or set(mask) - {"0", "1"}:
                raise ValueError(f"mask must be 10 characters of 0/1, got {mask!r}")
            ids.append(_new_id_row(row[0], line_no, seen))
            times.append(grid_us(_parse_time_row(row[1])))
            feats.append([_float_row(v) for v in row[3:]])
            masks.append([c == "1" for c in mask])
    features = np.array(feats, dtype=float).reshape(len(ids), len(header) - 3)
    for sid, row in zip(ids, features):
        if not np.isfinite(row).all():
            raise DataFileError(path, seen[sid], f"features of id {sid!r} must be finite")
    return SampleTable(ids, np.array(times, dtype=np.int64), np.array(masks, dtype=bool).reshape(-1, 10), features)


def read_events_rows(path):
    """``events.csv`` one row at a time: each stamp through ``datetime`` and
    each class name through ``FlareClass.from_name``."""
    peak_us, ranks = [], []
    with _csv_rows_loop(path, ["peak_time", "class"]) as (_, rows):
        for _, row in rows:
            peak_us.append((_parse_time_row(row[0]) - EPOCH) // timedelta(microseconds=1))
            ranks.append(FlareClass.from_name(row[1]))
    return np.array(peak_us, dtype=np.int64), np.array(ranks, dtype=np.int8)


def read_id_classes_rows(path, *headers: List[str]):
    """An ``id,label`` or ``id,p_o,p_c,p_m,p_x`` file one row at a time: the
    ids, and the class ranks or the probability rows (the other None)."""
    ids, seen, ranks, probs = [], {}, [], []
    with _csv_rows_loop(path, *headers) as (header, rows):
        for line_no, row in rows:
            ids.append(_new_id_row(row[0], line_no, seen))
            if len(header) == 2:
                ranks.append(FlareClass.from_name(row[1]))
                continue
            vec = [_float_row(v) for v in row[1:]]
            total = ((vec[0] + vec[1]) + vec[2]) + vec[3]  # in field order: sum() is compensated from Python 3.12
            if not (min(vec) >= 0 and abs(total - 1.0) <= 1e-6):
                raise ValueError(f"probabilities must be non-negative and sum to 1, got {row[1:]}")
            probs.append(vec)
    if len(header) == 2:
        return ids, np.array(ranks, dtype=np.int8), None
    return ids, None, np.array(probs, dtype=float).reshape(-1, N_CLASSES)


# ---------------------------------------------------------------------------
# The loss family one sample at a time, and the per-row forward pass
# ---------------------------------------------------------------------------

def one_hot(label: FlareClass) -> np.ndarray:
    """One-hot indicator vector for a flare class."""
    y = np.zeros(N_CLASSES)
    y[int(label)] = 1.0
    return _frozen(y)


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


def ib_factor_ce(state: HeadState, y: np.ndarray) -> float:
    """Influence factor used with the cross-entropy term.

    ``||p - y||_1 * ||h||_1``, proportional to the absolute head-weight
    gradient of the cross-entropy, floored at ``FACTOR_FLOOR``.
    """
    val = float(np.abs(residual(state.probs, y)).sum()) * float(np.abs(state.hidden).sum())
    return max(val, FACTOR_FLOOR)


def _stack_batch(
    batch: Sequence[Tuple[HeadState, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    if len(batch) == 0:
        raise ValueError("empty batch")
    probs = np.stack([s.probs for s, _ in batch])
    ys = np.stack([np.asarray(y, dtype=float) for _, y in batch])
    h_l1 = np.array([float(np.abs(s.hidden).sum()) for s, _ in batch])
    return probs, ys, h_l1


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
    return flare_loss_arrays(probs, ys, h_l1, sample_w, lambda_bss, ib_active, frozen_factors)[0]


def flare_loss_grad(
    batch: Sequence[Tuple[HeadState, np.ndarray]],
    weights: ClassWeights,
    lambda_bss: float,
    ib_active: bool,
    frozen_factors: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> List[np.ndarray]:
    """Per-sample gradients of :func:`flare_loss` w.r.t. each sample's logits."""
    if lambda_bss < 0.0:
        raise ValueError("lambda_bss must be non-negative")
    probs, ys, h_l1, sample_w = _batch_arrays(batch, weights)
    _, g = flare_loss_arrays(probs, ys, h_l1, sample_w, lambda_bss, ib_active, frozen_factors)
    return list(g)


def forward_row(table, row, params, cfg):
    """Head state of one row of the table under the current parameters."""
    _, _, head_in, logits, probs = forward(table.features[[row]], _phis(table.times[[row]], cfg), params)
    return HeadState(head_in[0], params["head"], logits[0], probs[0])


def backprop_allocating(x, a0, a1, head_in, d_logits, params, has_phi):
    """Parameter gradients of one batch as freshly allocated arrays."""
    grads = {"head": d_logits.T @ head_in}
    d_head_in = d_logits @ params["head"]
    d_a1 = d_head_in[:, :-1] if has_phi else d_head_in
    d_pre1 = d_a1 * (1.0 - a1 * a1)
    grads["w1"] = d_pre1.T @ a0
    grads["b1"] = d_pre1.sum(axis=0)
    d_pre0 = (d_pre1 @ params["w1"]) * (1.0 - a0 * a0)
    grads["w0"] = d_pre0.T @ x
    grads["b0"] = d_pre0.sum(axis=0)
    return grads


def adamw_step_dicts(params, grads, moments, cfg, step_index):
    """One decoupled-weight-decay Adam update with bias correction.

    Weight decay multiplies every parameter by ``(1 - lr * wd)`` before the
    moment-based update, so a zero-gradient step shrinks parameters by exactly
    that factor.
    """
    if step_index < 1:
        raise ValueError("step_index starts at 1")
    new_params = {}
    new_moments = {}
    bc1 = 1.0 - cfg.beta1 ** step_index
    bc2 = 1.0 - cfg.beta2 ** step_index
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise RuntimeError("diverged: non-finite gradient")
        if name in moments:
            m, v = moments[name]
        else:
            m, v = np.zeros_like(p), np.zeros_like(p)
        m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
        p = p * (1.0 - cfg.learning_rate * cfg.weight_decay)
        p = p - cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.adam_eps)
        new_params[name] = p
        new_moments[name] = (m, v)
    return new_params, new_moments


# ---------------------------------------------------------------------------
# The training loop one batch at a time, every temporary allocated
# ---------------------------------------------------------------------------

def forward_allocating(x, phis, params):
    """Forward pass with ``np.hstack`` for the head input and a two-pass softmax."""
    a0 = np.tanh(x @ params["w0"].T + params["b0"])
    a1 = np.tanh(a0 @ params["w1"].T + params["b1"])
    head_in = a1 if phis is None else np.hstack([a1, phis[:, None]])
    z = head_in @ params["head"].T
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return a0, a1, head_in, e / e.sum(axis=-1, keepdims=True)


def flare_loss_allocating(probs, ys, h_l1, sample_w, lambda_bss, ib_active):
    """Batch loss sums ``(wce, ib_ce, wbss, ib_bss)`` and logit gradient, with
    full-length scale vectors and the Brier logit gradient computed for the
    influence factor and again for the gradient."""
    b = probs.shape[0]
    ce = -(ys * np.log(np.maximum(probs, PROB_FLOOR))).sum(axis=1)
    delta = probs - ys
    bss = (delta * delta).sum(axis=1)
    wce = float((sample_w * ce).sum() / b)
    wbss = float((sample_w * bss).sum() / b)
    ce_scale = np.ones(b)
    bss_scale = np.full(b, lambda_bss)
    ib_ce = ib_bss = 0.0
    if ib_active:
        f_ce = np.abs(delta).sum(axis=1) * h_l1
        g = 2.0 * probs * (delta - (delta * probs).sum(axis=1, keepdims=True))
        f_bss = np.abs(g).sum(axis=1) * h_l1
        f_ce, f_bss = np.maximum(f_ce, FACTOR_FLOOR), np.maximum(f_bss, FACTOR_FLOOR)
        ib_ce = float((sample_w * ce / f_ce).sum() / b)
        ib_bss = float((sample_w * bss / f_bss).sum() / b)
        ce_scale = ce_scale + 1.0 / f_ce
        bss_scale = bss_scale + lambda_bss / f_bss
    g = 2.0 * probs * (delta - (delta * probs).sum(axis=1, keepdims=True))
    w = sample_w / b
    return (wce, ib_ce, wbss, ib_bss), (w * ce_scale)[:, None] * delta + (w * bss_scale)[:, None] * g


def train_reference(table, fold, cfg):
    """The training loop with a fancy-index gather, an ``np.eye`` one-hot and
    freshly allocated arrays on every batch, and no gradient verification
    (which must leave the parameters as it found them).

    Returns the epoch records, the best epoch and its parameters.
    """
    labels = table.labels.astype(np.intp)
    phis_all = _phis(table.times, cfg)
    train_idx = np.array(fold.train)
    counts = np.bincount(labels[train_idx], minlength=N_CLASSES)
    gamma = (class_weights(counts) if cfg.use_class_weights else ClassWeights.uniform()).weights
    rng = np.random.default_rng(cfg.seed)
    params = init_params(table.features.shape[1], cfg, rng)
    moments = {}
    step_index = 0
    val = np.asarray(fold.validation, dtype=np.intp)
    history, best = [], None
    for epoch in range(cfg.epochs):
        ib_active = epoch >= cfg.warmup_epochs
        order = rng.permutation(train_idx)
        sums = np.zeros(4)
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            x = table.features[idx]
            phis = None if phis_all is None else phis_all[idx]
            a0, a1, head_in, probs = forward_allocating(x, phis, params)
            parts, d_logits = flare_loss_allocating(
                probs, np.eye(N_CLASSES)[labels[idx]], np.abs(head_in).sum(axis=1), gamma[labels[idx]],
                cfg.lambda_bss, ib_active,
            )
            grads = backprop_allocating(x, a0, a1, head_in, d_logits, params, phis is not None)
            step_index += 1
            params, moments = adamw_step_dicts(params, grads, moments, cfg, step_index)
            sums += len(idx) * np.array(parts)
        wce, ib_ce, wbss, ib_bss = (float(s) for s in sums / len(order))
        losses = LossBreakdown(wce, ib_ce, wbss, ib_bss, (wce + ib_ce) + cfg.lambda_bss * (wbss + ib_bss), ib_active)
        probs = forward_allocating(table.features[val], _phis(table.times[val], cfg), params)[-1]
        report = build_report(table.labels[val], probs.argmax(axis=1), probs)
        bss = report.bss_ge_m if report.bss_ge_m is not None else float("nan")
        history.append(EpochRecord(epoch, losses, report.gmgs, report.tss_ge_m, bss))
        if best is None or report.gmgs > best[1]:
            best = (epoch, report.gmgs, params)
    return history, best[0], best[2]
