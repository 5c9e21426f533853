"""Command-line harness: data generation, labeling, evaluation, training,
and gradient checking as reproducible seeded runs.

Exit codes: 0 success, 1 usage error, 2 I/O or data error, 3 numerical
failure. Every command that owns an output directory writes the resolved
configuration there as ``config.txt``. Training configuration is read from a
``key=value`` file (``#`` comments allowed), overridable by ``FLARE_``-prefixed
environment variables and ``--set key=value`` flags, in that order.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import FlareClass, N_CLASSES, SampleTable
from .cycle import CycleConfig
from .losses import (
    HeadState,
    batch_factors_arrays,
    bss_grad_w,
    bss_loss,
    flare_loss_arrays,
    gradient_error,
    ib_factor_bss,
    softmax,
)
from .metrics import build_report
from .pipeline import (
    DataFileError,
    SplitSpec,
    _new_id,
    apply_channel_policy,
    events_for_samples,
    gen_synthetic,
    label_samples,
    read_events,
    read_labels,
    read_samples,
    split_timeseries,
    write_events,
    write_labels,
    write_samples,
)
from .trainer import TrainConfig, evaluate_fold, require_all_classes, save_checkpoint, train, write_history

ENV_PREFIX = "FLARE_"

GRADCHECK_TOL_FD = 1e-6
GRADCHECK_TOL_IDENTITY = 1e-10


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

# Keys accepted in config files, environment, and --set, beyond TrainConfig.
SPLIT_KEYS = ("fold_count", "train_frac", "val_frac", "test_frac", "fold")
CYCLE_KEYS = ("base_time", "period_hours")


def _train_config_keys() -> List[str]:
    return [f.name for f in fields(TrainConfig) if f.name != "cycle"]


def parse_config_file(path) -> Dict[str, str]:
    out: Dict[str, str] = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{line_no}: expected key=value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _env_overrides(known: Sequence[str]) -> Dict[str, str]:
    out = {}
    for key in known:
        value = os.environ.get(ENV_PREFIX + key.upper())
        if value is not None:
            out[key] = value
    return out


def _parse_bool(value: str) -> bool:
    low = value.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def resolve_run_config(
    config_path: Optional[str], set_overrides: Sequence[str]
) -> Tuple[TrainConfig, SplitSpec, int]:
    """Merge defaults, config file, environment, and --set into typed configs."""
    known = _train_config_keys() + list(SPLIT_KEYS) + list(CYCLE_KEYS)
    raw: Dict[str, str] = {}
    if config_path is not None:
        raw.update(parse_config_file(config_path))
    raw.update(_env_overrides(known))
    for item in set_overrides:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()

    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise UsageError(f"unknown configuration key(s): {', '.join(unknown)}")

    try:
        cycle_kwargs = {}
        if "base_time" in raw:
            base = raw.pop("base_time")
            t = datetime.fromisoformat(base.replace("Z", "+00:00"))
            if t.tzinfo is None:
                t = t.replace(tzinfo=timezone.utc)
            cycle_kwargs["base_time"] = t
        if "period_hours" in raw:
            cycle_kwargs["period_hours"] = float(raw.pop("period_hours"))

        split_kwargs: Dict[str, object] = {}
        fold_index: Optional[int] = None
        for key in SPLIT_KEYS:
            if key in raw:
                value = raw.pop(key)
                if key == "fold":
                    fold_index = int(value)
                elif key == "fold_count":
                    split_kwargs[key] = int(value)
                else:
                    split_kwargs[key] = float(value)

        train_kwargs: Dict[str, object] = {}
        for f in fields(TrainConfig):
            if f.name not in raw:
                continue
            value = raw.pop(f.name)
            if f.name in ("use_cycle_embedding", "use_class_weights", "verify_gradients"):
                train_kwargs[f.name] = _parse_bool(value)
            elif f.name == "hidden_sizes":
                train_kwargs[f.name] = tuple(int(v) for v in value.split(","))
            elif f.name in ("epochs", "batch_size", "warmup_epochs", "seed"):
                train_kwargs[f.name] = int(value)
            elif f.name == "ib_ce_mode":
                train_kwargs[f.name] = value
            else:
                train_kwargs[f.name] = float(value)

        cfg = TrainConfig(**train_kwargs)
        if cycle_kwargs:
            cfg = replace(cfg, cycle=CycleConfig(**cycle_kwargs))
        split = SplitSpec(**split_kwargs)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"invalid configuration: {exc}") from None

    if fold_index is None:
        fold_index = split.fold_count - 1
    if not (0 <= fold_index < split.fold_count):
        raise UsageError(f"fold must lie in [0, {split.fold_count})")
    return cfg, split, fold_index


def _config_echo_lines(cfg: TrainConfig, split: SplitSpec, fold_index: int) -> List[str]:
    lines = []
    for f in fields(TrainConfig):
        value = getattr(cfg, f.name)
        if f.name == "cycle":
            lines.append(f"base_time={value.base_time.isoformat()}")
            lines.append(f"period_hours={value.period_hours!r}")
        elif f.name == "hidden_sizes":
            lines.append(f"hidden_sizes={','.join(str(v) for v in value)}")
        else:
            lines.append(f"{f.name}={value}")
    lines += [
        f"fold_count={split.fold_count}",
        f"train_frac={split.train_frac!r}",
        f"val_frac={split.val_frac!r}",
        f"test_frac={split.test_frac!r}",
        f"fold={fold_index}",
    ]
    return sorted(lines)


def _write_config_echo(out_dir: Path, lines: Sequence[str]) -> None:
    (out_dir / "config.txt").write_text("\n".join(lines) + "\n")


def _ensure_out_dir(path_str: str) -> Path:
    path = Path(path_str)
    try:
        path.mkdir(parents=True, exist_ok=True)
        probe = path / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise IOError(f"output directory {path} is not writable: {exc}") from None
    return path


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    if args.n <= 0:
        raise UsageError("--n must be positive")
    if args.feature_dim <= 0:
        raise UsageError("--feature-dim must be positive")
    if args.spacing_steps <= 0:
        raise UsageError("--spacing-steps must be positive")
    try:
        probs = [float(v) for v in args.class_probs.split(",")]
        if len(probs) != N_CLASSES or any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError
    except ValueError:
        raise UsageError("--class-probs must be 4 comma-separated probabilities summing to 1") from None
    out_dir = _ensure_out_dir(args.out_dir)
    table = gen_synthetic(args.n, probs, args.seed, args.feature_dim, spacing_steps=args.spacing_steps)
    write_samples(out_dir / "samples.csv", table)
    write_events(out_dir / "events.csv", events_for_samples(table))
    echo = sorted(
        [
            f"n={args.n}",
            f"class_probs={args.class_probs}",
            f"seed={args.seed}",
            f"feature_dim={args.feature_dim}",
            f"spacing_steps={args.spacing_steps}",
            f"out_dir={args.out_dir}",
        ]
    )
    _write_config_echo(out_dir, echo)
    print(f"wrote {len(table)} samples and events to {out_dir}")
    return 0


def cmd_label(args) -> int:
    if args.horizon_hours <= 0:
        raise UsageError("--horizon-hours must be positive")
    events = read_events(args.events)
    table = read_samples(args.samples)
    write_labels(args.out, table.ids, label_samples(table, events, horizon_hours=args.horizon_hours))
    print(f"labeled {len(table)} samples -> {args.out}")
    return 0


def _read_predictions(path) -> Tuple[List[str], np.ndarray, Optional[np.ndarray]]:
    """Prediction file: either hard classes (`id,label`) or distributions
    (`id,p_o,p_c,p_m,p_x`). Returns the ids, the predicted class ranks, and
    the distributions (None for hard classes)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataFileError(path, 1, "empty prediction file")
        header = [h.strip().lower() for h in header]
        rows = [(line_no, row) for line_no, row in enumerate(reader, start=2) if row]
    if header == ["id", "label"]:
        width = 2
    elif header == ["id", "p_o", "p_c", "p_m", "p_x"]:
        width = 5
    else:
        raise DataFileError(path, 1, "expected header 'id,label' or 'id,p_o,p_c,p_m,p_x'")
    ids, classes, probs = [], [], []
    seen: Dict[str, int] = {}
    for line_no, row in rows:
        try:
            if len(row) != width:
                raise ValueError(f"expected {width} fields, got {len(row)}")
            ids.append(_new_id(row[0], line_no, seen))
            if width == 2:
                classes.append(int(FlareClass.from_name(row[1])))
            else:
                vec = np.array([float(v) for v in row[1:]])
                if np.any(vec < 0) or abs(vec.sum() - 1.0) > 1e-6:
                    raise ValueError(f"probabilities must be non-negative and sum to 1, got {row[1:]}")
                probs.append(vec / vec.sum())
        except ValueError as exc:
            raise DataFileError(path, line_no, str(exc)) from None
    if width == 2:
        return ids, np.array(classes, dtype=np.int64), None
    dists = np.array(probs).reshape(-1, N_CLASSES)
    return ids, dists.argmax(axis=1), dists


def cmd_eval(args) -> int:
    label_rows = read_labels(args.labels)
    pred_ids, predicted, pred_probs = _read_predictions(args.preds)
    row_of = {pid: i for i, pid in enumerate(pred_ids)}
    order = []
    for sid, _ in label_rows:
        if sid not in row_of:
            raise ValueError(f"id mismatch between files: {sid!r} has no prediction")
        order.append(row_of[sid])
    if len(pred_ids) > len(label_rows):
        extra = sorted(set(pred_ids) - {sid for sid, _ in label_rows})[0]
        raise ValueError(f"id mismatch between files: prediction {extra!r} has no label")
    observed = np.array([int(c) for _, c in label_rows], dtype=np.int64)

    climatology = None
    if args.climatology != "rows":
        try:
            climatology = [float(v) for v in args.climatology.split(",")]
            if len(climatology) != N_CLASSES:
                raise ValueError
        except ValueError:
            raise UsageError("--climatology must be 'rows' or 4 comma-separated probabilities") from None
    probs = pred_probs[order] if pred_probs is not None else None
    report = build_report(observed, predicted[order], probs, climatology)

    out_dir = _ensure_out_dir(args.out_dir)
    text = report.to_text()
    (out_dir / "report.txt").write_text(text)
    (out_dir / "report.csv").write_text(report.to_csv())
    echo = sorted(
        [
            f"preds={args.preds}",
            f"labels={args.labels}",
            f"climatology={args.climatology}",
            f"out_dir={args.out_dir}",
        ]
    )
    _write_config_echo(out_dir, echo)
    sys.stdout.write(text)
    return 0


def _attach_labels(table: SampleTable, label_rows: Sequence[Tuple[str, FlareClass]]) -> SampleTable:
    """``table`` with every row's label looked up by id; raises ValueError naming the first unlabeled id."""
    ids = np.array([sid for sid, _ in label_rows], dtype=str)
    ranks = np.array([int(c) for _, c in label_rows], dtype=np.int8)
    unlabeled = table.ids[~np.isin(table.ids, ids)]
    if len(unlabeled):
        raise ValueError(f"sample {unlabeled[0]!r} has no label in labels.csv")
    order = np.argsort(ids)
    return replace(table, labels=ranks[order[np.searchsorted(ids, table.ids, sorter=order)]])


def cmd_train(args) -> int:
    cfg, split_spec, fold_index = resolve_run_config(args.config, args.set or [])
    data_dir = Path(args.data_dir)
    table = _attach_labels(read_samples(data_dir / "samples.csv"), read_labels(data_dir / "labels.csv"))
    table, excluded = apply_channel_policy(table.take(np.argsort(table.times, kind="stable")))

    fold = split_timeseries(table, split_spec)[fold_index]
    require_all_classes(table.labels, test=fold.test)
    result = train(table, fold, cfg)

    out_dir = _ensure_out_dir(args.out_dir)
    write_history(out_dir / "history.csv", result.history)
    save_checkpoint(out_dir / "checkpoint.txt", result.best, cfg)
    test_report = evaluate_fold(table, fold.test, result.best.params, cfg)
    (out_dir / "test_report.txt").write_text(test_report.to_text())
    (out_dir / "test_report.csv").write_text(test_report.to_csv())
    _write_config_echo(out_dir, _config_echo_lines(cfg, split_spec, fold_index))
    print(
        f"best epoch {result.best.epoch}: validation gmgs {result.best.val_gmgs:.4f}; "
        f"test gmgs {test_report.gmgs:.4f}, tss {test_report.tss_ge_m:.4f}; "
        f"{excluded} samples excluded by channel policy"
    )
    return 0


def _random_head_state(rng: np.random.Generator, hidden_width: int) -> Tuple[HeadState, np.ndarray]:
    h = rng.standard_normal(hidden_width)
    w = rng.standard_normal((N_CLASSES, hidden_width))
    y = np.zeros(N_CLASSES)
    y[rng.integers(N_CLASSES)] = 1.0
    return HeadState.from_hidden(h, w), y


def cmd_gradcheck(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    rng = np.random.default_rng(args.seed)
    hidden_width = 6
    ones = np.ones(1)

    worst_fd = 0.0
    worst_identity = 0.0
    worst_total = 0.0
    for _ in range(args.trials):
        state, y = _random_head_state(rng, hidden_width)
        analytic = bss_grad_w(state, y)
        w = state.weights.copy()
        worst_fd = max(worst_fd, gradient_error(lambda: bss_loss(y, softmax(w @ state.hidden)), w, analytic))

        factor = ib_factor_bss(state, y)
        grad_sum = float(np.abs(analytic).sum())
        worst_identity = max(worst_identity, abs(factor - grad_sum) / max(grad_sum, 1e-30))

        y_row = y[None, :]
        h_l1 = np.array([np.abs(state.hidden).sum()])
        frozen = batch_factors_arrays(state.probs[None, :], y_row, h_l1)
        _, d_logits = flare_loss_arrays(state.probs[None, :], y_row, h_l1, ones, 3.0, True, frozen_factors=frozen)
        z = state.logits.copy()

        def loss_at() -> float:
            return flare_loss_arrays(softmax(z)[None, :], y_row, h_l1, ones, 3.0, True, frozen_factors=frozen)[0].total

        worst_total = max(worst_total, gradient_error(loss_at, z, d_logits[0]))

    checks = [
        ("bss head-weight gradient vs central differences", worst_fd, GRADCHECK_TOL_FD),
        ("influence factor vs absolute gradient sum", worst_identity, GRADCHECK_TOL_IDENTITY),
        ("composite loss logit gradient vs central differences", worst_total, GRADCHECK_TOL_FD),
    ]
    ok = True
    for name, err, tol in checks:
        status = "PASS" if err <= tol else "FAIL"
        ok = ok and err <= tol
        print(f"{status} {name}: max relative error {err:.3e} (tolerance {tol:g})")
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="flarecast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic labeled dataset (samples + events files)")
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--class-probs", default="0.38,0.35,0.23,0.04", help="target O,C,M,X probabilities")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--feature-dim", type=int, default=12)
    p.add_argument(
        "--spacing-steps",
        type=int,
        default=37,
        help="two-hour grid steps between samples; the default keeps labeling windows disjoint",
    )
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("label", help="label samples with the largest event class in the next horizon")
    p.add_argument("--events", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--horizon-hours", type=float, default=72.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("eval", help="score predictions against labels")
    p.add_argument("--preds", required=True, help="CSV: 'id,label' or 'id,p_o,p_c,p_m,p_x'")
    p.add_argument("--labels", required=True)
    p.add_argument("--climatology", default="rows", help="'rows' or explicit 4 probabilities")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("train", help="train the desk-scale classifier on a chronological fold")
    p.add_argument("--config", default=None, help="key=value configuration file")
    p.add_argument("--data-dir", required=True, help="directory with samples.csv and labels.csv")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one configuration key")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataFileError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
