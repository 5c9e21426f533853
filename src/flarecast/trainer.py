"""Desk-scale feed-forward classifier trained with the composite loss.

Two tanh hidden layers over the feature vector, an optional solar-cycle phase
appended to the last hidden representation, and a bias-free linear head whose
softmax output feeds the loss family. Optimization is AdamW with decoupled
weight decay, implemented here so gradients stay fully inspectable.

The parameters, their gradient and both AdamW moments are each one flat
float64 vector; the named ``Params`` arrays are reshaped views into them, so
an optimizer step is a few whole-vector operations done in place. Each batch
gathers its rows from the features through its slice of the epoch's permutation,
and validation is scored on views of its contiguous range.

Checkpoint selection follows validation GMGS: the checkpoint with the highest
validation score wins, earliest epoch on ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import ClassWeights, FlareClass, N_CLASSES, _check_grid, class_weights
from .cycle import DEFAULT_CYCLE, CycleConfig, cycle_phases
from .losses import LossBreakdown, batch_factors_arrays, flare_loss_arrays, gradient_error, softmax
from .metrics import MetricReport, build_report
from .pipeline import Fold

__all__ = [
    "TrainConfig",
    "Checkpoint",
    "EpochRecord",
    "TrainResult",
    "init_params",
    "forward",
    "adamw_step",
    "train",
    "evaluate_fold",
    "write_history",
    "save_checkpoint",
    "load_checkpoint",
]

HISTORY_HEADER = "epoch,wce,ib_ce,wbss,ib_bss,total,val_gmgs,val_tss,val_bss"
CHECKPOINT_MAGIC = "flarecast-checkpoint v1"
# The fewest rows in a scoring block, unless the range is shorter; the last block may hold 31 fewer, so every block
# holds more than 300 rows, the most that OpenBLAS's SkylakeX kernel sends through its small-matrix kernel (see _score).
EVAL_BLOCK_ROWS = 384

Params = Dict[str, np.ndarray]


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters. Defaults mirror the reference full-scale run;
    desk-scale experiments usually override the learning rate (see README)."""

    epochs: int = 20
    batch_size: int = 64
    learning_rate: float = 4.0e-5
    weight_decay: float = 5.0e-2
    beta1: float = 0.9
    beta2: float = 0.95
    lambda_bss: float = 3.0
    warmup_epochs: int = 5
    seed: int = 0
    hidden_sizes: Tuple[int, int] = (64, 64)
    use_cycle_embedding: bool = True
    use_class_weights: bool = True
    adam_eps: float = 1e-8
    verify_gradients: bool = False
    cycle: CycleConfig = DEFAULT_CYCLE

    def __post_init__(self) -> None:
        if not (0 <= self.warmup_epochs <= self.epochs):
            raise ValueError("warmup_epochs must lie in [0, epochs]")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if not (0 < self.learning_rate < math.inf and 0 < self.adam_eps < math.inf):  # NaN fails every comparison
            raise ValueError("rates must be positive and finite")
        if not (0 <= self.weight_decay < math.inf and 0 <= self.lambda_bss < math.inf):
            raise ValueError("weight_decay and lambda_bss must be non-negative and finite")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        if len(self.hidden_sizes) != 2 or any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden_sizes must be two positive widths")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def head_width(cfg: TrainConfig) -> int:
    return cfg.hidden_sizes[1] + (1 if cfg.use_cycle_embedding else 0)


def init_params(feature_dim: int, cfg: TrainConfig, rng: np.random.Generator) -> Params:
    """Symmetric uniform initialization scaled by fan-in."""
    h1, h2 = cfg.hidden_sizes
    shapes = {
        "w0": (h1, feature_dim),
        "b0": (h1,),
        "w1": (h2, h1),
        "b1": (h2,),
        "head": (N_CLASSES, head_width(cfg)),
    }
    params = {}
    for name, shape in shapes.items():
        fan_in = shape[-1] if len(shape) > 1 else shape[0]
        bound = 1.0 / np.sqrt(fan_in)
        params[name] = rng.uniform(-bound, bound, size=shape)
    return params


def forward(x: np.ndarray, phis: Optional[np.ndarray], params: Params):
    """Forward pass over the rows of ``x`` (cycle phases ``phis``, or None
    without the embedding). Returns ``(a0, a1, head_in, logits, probs)``: the
    two hidden activations, the head input, the logits and the softmax. ``a1``
    is a view of the first columns of ``head_in``, whose last column holds the
    phases with the embedding."""
    if x.shape[1] != params["w0"].shape[1]:
        raise ValueError(
            f"feature dimension mismatch: got {x.shape[1]}, parameters expect {params['w0'].shape[1]}"
        )
    a0 = x @ params["w0"].T
    np.tanh(np.add(a0, params["b0"], out=a0), out=a0)
    b1 = params["b1"]
    head_in = np.zeros((len(x), len(b1) + (phis is not None)))
    a1 = head_in[:, : len(b1)]
    np.matmul(a0, params["w1"].T, out=a1)
    # Bias and tanh as contiguous passes over the whole buffer (a strided pass is slower); the phase
    # column stays tanh(0 + 0) = 0 until the phases are written.
    bias = b1 if phis is None else np.concatenate((b1, (0.0,)))
    np.tanh(np.add(head_in, bias, out=head_in), out=head_in)
    if phis is not None:
        head_in[:, -1] = phis
    logits = head_in @ params["head"].T
    return a0, a1, head_in, logits, softmax(logits)


def _phis(times: np.ndarray, cfg: TrainConfig) -> Optional[np.ndarray]:
    return cycle_phases(times, cfg.cycle) if cfg.use_cycle_embedding else None


def _views(flat: np.ndarray, like: Params) -> Params:
    """Reshaped views into consecutive slices of ``flat``, with the names,
    order and shapes of ``like``."""
    parts = np.split(flat, np.cumsum([p.size for p in like.values()]))  # the last part is what ``like`` leaves over
    return {name: part.reshape(p.shape) for (name, p), part in zip(like.items(), parts)}


def _backprop(x, a0, a1, head_in, d_logits, params: Params, grads: Params) -> None:
    """Write the parameter gradients of one batch into the arrays of ``grads``."""
    np.matmul(d_logits.T, head_in, out=grads["head"])
    h2 = a1.shape[1]  # a1 is the first h2 columns of head_in: its square is taken as one contiguous pass
    d_pre1 = (d_logits @ params["head"])[:, :h2] * (1.0 - head_in * head_in)[:, :h2]  # drop the cycle-phase column
    np.matmul(d_pre1.T, a0, out=grads["w1"])
    np.add.reduce(d_pre1, axis=0, out=grads["b1"])
    d_pre0 = (d_pre1 @ params["w1"]) * (1.0 - a0 * a0)
    np.matmul(d_pre0.T, x, out=grads["w0"])
    np.add.reduce(d_pre0, axis=0, out=grads["b0"])


def adamw_step(
    theta: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray, cfg: TrainConfig, step_index: int, scratch=None
) -> None:
    """One decoupled-weight-decay Adam update with bias correction, in place.

    ``theta``, ``grad`` and the moments ``m`` and ``v`` are float64 vectors of
    one length; the temporaries go into ``scratch``, a pair of such vectors (new if None).
    A non-finite gradient raises before anything is written. Weight decay
    multiplies every parameter by ``(1 - lr * wd)`` before the moment-based
    update, so a zero-gradient step shrinks parameters by exactly that factor.
    """
    if step_index < 1:
        raise ValueError("step_index starts at 1")
    if not np.isfinite(grad).all():
        raise RuntimeError("diverged: non-finite gradient")
    s, t = (np.empty_like(theta), np.empty_like(theta)) if scratch is None else scratch
    lr = cfg.learning_rate
    bc1 = 1.0 - cfg.beta1 ** step_index
    bc2 = 1.0 - cfg.beta2 ** step_index
    # m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g g
    m *= cfg.beta1
    m += np.multiply(1.0 - cfg.beta1, grad, out=s)
    v *= cfg.beta2
    np.multiply(1.0 - cfg.beta2, grad, out=s)
    v += np.multiply(s, grad, out=s)
    theta *= 1.0 - lr * cfg.weight_decay
    # theta -= lr (m / bc1) / (sqrt(v / bc2) + eps)
    np.multiply(lr, np.divide(m, bc1, out=s), out=s)
    np.sqrt(np.divide(v, bc2, out=t), out=t)
    t += cfg.adam_eps
    theta -= np.divide(s, t, out=s)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    losses: LossBreakdown
    val_gmgs: float
    val_tss: float
    val_bss: float


@dataclass(frozen=True)
class Checkpoint:
    """Best-so-far parameter snapshot with its validation scores."""

    epoch: int
    params: Params
    val_gmgs: float
    val_report: MetricReport


@dataclass(frozen=True)
class TrainResult:
    best: Checkpoint
    history: List[EpochRecord]


def _step(x, phis, ys, sample_w, params, grads: Optional[Params], cfg, ib_active, frozen=None) -> LossBreakdown:
    """Forward, loss (with the influence factors ``frozen``, if given) and, unless ``grads`` is None, backprop
    into ``grads`` for one batch. Returns its losses; a non-finite loss is divergence (RuntimeError)."""
    a0, a1, head_in, _, probs = forward(x, phis, params)
    h_l1 = np.add.reduce(np.abs(head_in), axis=1) if ib_active else None  # read only by influence factors
    try:
        losses, d_logits = flare_loss_arrays(probs, ys, h_l1, sample_w, cfg.lambda_bss, ib_active, frozen)
    except ValueError:  # the batch is never empty: the loss is not finite
        raise RuntimeError("diverged: non-finite loss") from None
    if grads is not None:
        _backprop(x, a0, a1, head_in, d_logits, params, grads)
    return losses


def _verify_first_batch(x, phis, params, grads, cfg, y_rows, sample_w, ib_active) -> None:
    """Central-difference check of parameter gradients on one batch.

    Influence factors are frozen at their base-point values, matching the
    detached treatment in the analytic gradient.
    """
    _, _, head_in, _, probs = forward(x, phis, params)  # the loss reads the factors only while ib_active
    frozen = batch_factors_arrays(probs, y_rows, np.add.reduce(np.abs(head_in), axis=1))
    _step(x, phis, y_rows, sample_w, params, grads, cfg, ib_active, frozen)

    def loss_at() -> float:
        return _step(x, phis, y_rows, sample_w, params, None, cfg, ib_active, frozen).total

    worst = max(gradient_error(loss_at, params[name], grads[name]) for name in params)
    if worst > 1e-5:
        raise RuntimeError(f"diverged: gradient verification failed (relative error {worst:.3e})")


def _require_all_classes(labels: np.ndarray, fold: Fold) -> None:
    """Raise ValueError naming the first of the fold's training, validation and test ranges that lacks a class."""
    for name, idx in (("training", fold.train), ("validation", fold.validation), ("test", fold.test)):
        counts = np.bincount(labels[_rows(idx)], minlength=N_CLASSES)
        if missing := [FlareClass(c).name for c in range(N_CLASSES) if counts[c] == 0]:
            raise ValueError(f"degenerate split: {name} range is missing class(es) {', '.join(missing)}")


def train(features: np.ndarray, times: np.ndarray, labels: np.ndarray, fold: Fold, cfg: TrainConfig) -> TrainResult:
    """Run the full training loop on one chronological fold of the rows of ``features`` (float64 ``(n, D)``),
    with their ``times`` (int64 UTC epoch microseconds on the 2-hour grid) and class-rank ``labels``, such as a
    table's columns.

    Influence terms activate at ``epoch == warmup_epochs``; validation GMGS is
    computed every epoch and drives checkpoint selection (argmax, earliest on
    ties). Deterministic given (seed, config, data).

    Raises
    ------
    ValueError
        If the columns are not aligned, a time is off the grid (as one in seconds is), a row is unlabeled, or the
        training, validation or test range (checked in that order, before anything is set up) lacks a class.
    RuntimeError
        On numerical divergence.
    """
    _check_rows(features, times, labels)
    if np.any(labels < 0):
        raise ValueError("all samples must be labeled for training")
    _require_all_classes(labels, fold)
    phis_all = _phis(times, cfg)
    train_idx = np.arange(fold.train.start, fold.train.stop, fold.train.step)

    counts = np.bincount(labels[train_idx], minlength=N_CLASSES)
    weights = class_weights(counts) if cfg.use_class_weights else ClassWeights.uniform()
    gamma_by_class = weights.weights

    rng = np.random.default_rng(cfg.seed)
    initial = init_params(features.shape[1], cfg, rng)
    theta = np.concatenate([p.ravel() for p in initial.values()])
    grad, m, v, *scratch = (np.zeros_like(theta) for _ in range(5))
    params, grads = _views(theta, initial), _views(grad, initial)
    step_index = 0
    val = _rows(fold.validation)
    validation = features[val], None if phis_all is None else phis_all[val], labels[val]  # views of the columns
    one_hot = np.eye(N_CLASSES)  # each batch takes its targets' rows: no per-epoch target array

    best: Optional[Checkpoint] = None
    history: List[EpochRecord] = []
    for epoch in range(cfg.epochs):
        ib_active = epoch >= cfg.warmup_epochs
        # Each batch gathers its rows from the features through its slice of the shuffled order.
        order = rng.permutation(train_idx)
        order_labels = labels[order]
        w_epoch = gamma_by_class[order_labels]
        sums = [0.0] * 4  # the batch-size-weighted sums of (wce, ib_ce, wbss, ib_bss)
        for lo in range(0, len(order), cfg.batch_size):
            hi = lo + cfg.batch_size
            rows = order[lo:hi]
            x, y_rows, sample_w = features[rows], one_hot[order_labels[lo:hi]], w_epoch[lo:hi]
            phis = None if phis_all is None else phis_all[rows]
            if cfg.verify_gradients and epoch == 0 and lo == 0:
                _verify_first_batch(x, phis, params, grads, cfg, y_rows, sample_w, ib_active)
            losses = _step(x, phis, y_rows, sample_w, params, grads, cfg, ib_active)
            step_index += 1
            adamw_step(theta, grad, m, v, cfg, step_index, scratch)
            n = len(rows)
            sums = [s + n * t for s, t in zip(sums, (losses.wce, losses.ib_ce, losses.wbss, losses.ib_bss))]
        seen = len(order)
        epoch_losses = LossBreakdown.of([s / seen for s in sums], cfg.lambda_bss, ib_active)

        report = _score(*validation, params)
        record = EpochRecord(
            epoch=epoch,
            losses=epoch_losses,
            val_gmgs=report.gmgs,
            val_tss=report.tss_ge_m,
            val_bss=report.bss_ge_m if report.bss_ge_m is not None else float("nan"),
        )
        history.append(record)
        if best is None or report.gmgs > best.val_gmgs:
            snapshot = {k: p.copy() for k, p in params.items()}
            best = Checkpoint(epoch=epoch, params=snapshot, val_gmgs=report.gmgs, val_report=report)
    assert best is not None
    return TrainResult(best=best, history=history)


def evaluate_fold(
    features: np.ndarray, times: np.ndarray, labels: np.ndarray, idx: Sequence[int], params: Params, cfg: TrainConfig
) -> MetricReport:
    """Metric report of the parameters on one index range of the rows (see :func:`train`)."""
    _check_rows(features, times, labels)
    rows = _rows(idx)
    return _score(features[rows], _phis(times[rows], cfg), labels[rows], params)


def _check_rows(features: np.ndarray, times: np.ndarray, labels: np.ndarray) -> None:
    if features.ndim != 2 or not len(features) == len(times) == len(labels):
        raise ValueError("features (2-d), times and labels must be aligned: one row per sample")
    _check_grid(times)


def _rows(idx):
    """``idx`` as a slice, which takes views of columns, if it is a range of non-negative
    indices; else as an index array, which takes copies."""
    if isinstance(idx, range) and min(idx.start, idx.stop) >= 0:
        return slice(idx.start, idx.stop, idx.step)
    return np.asarray(idx, dtype=np.intp)


def _score(x: np.ndarray, phis: Optional[np.ndarray], labels: np.ndarray, params: Params) -> MetricReport:
    """Metric report of the parameters on the rows of ``x``, scored in ``len(x) // EVAL_BLOCK_ROWS`` (at least
    one) near-equal blocks. Each cut lies on a multiple of 64 rows and each block holds more than 300 rows, so
    that with one BLAS thread every row goes through the kernel it takes in one forward pass over all rows, and
    the probabilities are the same bytes. On OpenBLAS's SkylakeX kernel the head product of at most 300 rows (4
    classes by 64 or 65 columns) goes through its small-matrix kernel instead: blocks of 256 rows changed about
    6,200 of 9,579 validation rows, and blocks of 320, the last of them 299 rows, about 210."""
    k = max(1, len(x) // EVAL_BLOCK_ROWS)
    cuts = [(j * len(x) // k + 32) // 64 * 64 for j in range(k)] + [len(x)]
    probs = np.empty((len(x), N_CLASSES))
    for lo, hi in zip(cuts, cuts[1:]):
        probs[lo:hi] = forward(x[lo:hi], None if phis is None else phis[lo:hi], params)[-1]
    return build_report(labels, probs.argmax(axis=1), probs)


# ---------------------------------------------------------------------------
# History and checkpoint files
# ---------------------------------------------------------------------------

def write_history(path, history: Sequence[EpochRecord]) -> None:
    lines = [HISTORY_HEADER]
    for r in history:
        b = r.losses
        lines.append(
            f"{r.epoch},{b.wce!r},{b.ib_ce!r},{b.wbss!r},{b.ib_bss!r},{b.total!r},"
            f"{r.val_gmgs!r},{r.val_tss!r},{r.val_bss!r}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def save_checkpoint(path, checkpoint: Checkpoint, config_text: str) -> None:
    """Plain-text parameter dump: versioned header, config hash (the first 16
    hex digits of the sha256 of ``config_text``, the run's ``config.txt``), named arrays.
    Before the file is opened, ValueError names an array that holds a non-finite
    value: a NaN's payload does not survive ``repr``."""
    if bad := [name for name in sorted(checkpoint.params) if not np.isfinite(checkpoint.params[name]).all()]:
        raise ValueError(f"parameter array {bad[0]!r} cannot be written: its values must be finite")
    import hashlib  # here, so that a command that never hashes does not load OpenSSL

    lines = [
        CHECKPOINT_MAGIC,
        f"config_hash={hashlib.sha256(config_text.encode()).hexdigest()[:16]}",
        f"epoch={checkpoint.epoch}",
        f"val_gmgs={checkpoint.val_gmgs!r}",
    ]
    for name in sorted(checkpoint.params):
        arr = checkpoint.params[name]
        shape = "x".join(str(d) for d in arr.shape)
        lines.append(f"array {name} {shape}")
        lines.append(" ".join(repr(float(v)) for v in arr.ravel()))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> Tuple[Params, Dict[str, str]]:
    """Read a checkpoint file back into (params, metadata).

    A malformed array header, a missing values line (a truncated file) or a
    value count that does not fit the declared shape raises ValueError naming
    the path and line.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ValueError(f"not a flarecast checkpoint: {path}")
    meta: Dict[str, str] = {}
    params: Params = {}
    i = 1
    while i < len(lines) and not lines[i].startswith("array "):
        key, _, value = lines[i].partition("=")
        meta[key] = value
        i += 1
    while i < len(lines):
        parts = lines[i].split()
        if len(parts) != 3 or parts[0] != "array" or not all(d.isdigit() for d in parts[2].split("x")):
            raise ValueError(f"{path}:{i + 1}: expected 'array <name> <shape>', got {lines[i]!r}")
        _, name, shape = parts
        dims = tuple(int(d) for d in shape.split("x"))
        if i + 1 == len(lines):
            raise ValueError(f"{path}:{i + 2}: truncated file: array {name} has no values line")
        try:
            values = np.array([float(v) for v in lines[i + 1].split()])
        except ValueError as exc:
            raise ValueError(f"{path}:{i + 2}: {exc}") from None
        if values.size != math.prod(dims):
            raise ValueError(
                f"{path}:{i + 2}: array {name} has {values.size} values, its shape {shape} needs {math.prod(dims)}"
            )
        params[name] = values.reshape(dims)
        i += 2
    return params, meta
