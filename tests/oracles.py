"""Independent oracles shared by the test suite.

These deliberately reimplement the checked quantities by other means: the
scoring matrix in arbitrary precision via mpmath, gradients via central
finite differences, window labeling by brute-force scan, and confusion
counts, the Brier skill score and the channel policy by per-row loops. None of them import the
code paths they verify beyond plain data containers.
"""

from datetime import timedelta

import mpmath as mp
import numpy as np

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
    from flarecast import FlareClass

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


def label_max_class(t, events, horizon_hours=72.0):
    """Largest flare class among events peaking in ``(t, t + horizon]``, by scanning every event."""
    from flarecast import FlareClass

    end = t + timedelta(hours=horizon_hours)
    best = FlareClass.O
    for ev in events:
        if t < ev.peak_time <= end and ev.flare_class > best:
            best = ev.flare_class
    return best


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
