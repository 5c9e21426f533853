"""Command-line harness: data generation, labeling, evaluation, training,
and gradient checking as reproducible seeded runs.

Exit codes: 0 success, 1 usage error, 2 I/O or data error, 3 numerical
failure. A command's files land whole or not at all: it writes them into a
hidden directory inside its target and moves them into place only if it
succeeds. Every command that owns an output directory writes the resolved
configuration there as ``config.txt``. Training configuration is read from a
``key=value`` file (``#`` comments allowed), overridden by ``--set key=value``
flags; nothing else sets it. A ``train`` run's ``config.txt`` can be passed
back as ``--config`` to repeat the run, and its checkpoint's ``config_hash`` is
the first 16 hex digits of that file's sha256.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from contextlib import contextmanager, suppress
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .core import N_CLASSES
from .cycle import CycleConfig
from .losses import _bss_logit_grad, batch_factors_arrays, flare_loss_arrays, gradient_error, softmax
from .metrics import build_report, gerrity_matrix
from .pipeline import (
    DEFAULT_HORIZON_HOURS,
    DataFileError,
    SplitSpec,
    _horizon_us,
    apply_channel_policy,
    events_for_samples,
    gen_synthetic,
    label_samples,
    match_ids,
    read_events,
    read_labels,
    read_predictions,
    read_samples,
    split_timeseries,
    write_events,
    write_labels,
    write_samples,
)
from .trainer import TrainConfig, evaluate_fold, save_checkpoint, train, write_history

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

def _config_items(cfg: TrainConfig, split: SplitSpec, fold_index: int) -> List[Tuple[str, object]]:
    """Every configuration key with its value: the fields of TrainConfig, its
    CycleConfig and SplitSpec, plus the fold index. The keys are the ones config
    files and --set accept; the items are ``train``'s ``config.txt``, which fed
    back through --config or --set rebuilds the same configuration."""
    items = [(f.name, getattr(obj, f.name)) for obj in (cfg, cfg.cycle, split) for f in fields(obj)]
    return [(key, value) for key, value in items if key != "cycle"] + [("fold", fold_index)]


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


def _parse_bool(value: str) -> bool:
    low = value.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _parse_value(default, value: str):
    """``value`` parsed as the type of a config field's ``default``; the
    inverse of :func:`_format_value`."""
    if isinstance(default, bool):
        return _parse_bool(value)
    if isinstance(default, tuple):
        return tuple(int(v) for v in value.split(","))
    if isinstance(default, datetime):
        t = datetime.fromisoformat(value.replace("Z", "+00:00"))
        return t if t.tzinfo is not None else t.replace(tzinfo=timezone.utc)
    return type(default)(value)


def _format_value(value) -> str:
    """A config field value as written in ``config.txt``."""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return value.isoformat() if isinstance(value, datetime) else str(value)


def _from_raw(cls, raw: Dict[str, str], **extra):
    """``cls`` built from the entries of ``raw`` (removed from it) that name its fields."""
    return cls(**{f.name: _parse_value(f.default, raw.pop(f.name)) for f in fields(cls) if f.name in raw}, **extra)


def resolve_run_config(
    config_path: Optional[str], set_overrides: Sequence[str]
) -> Tuple[TrainConfig, SplitSpec, int]:
    """Merge defaults, the config file and --set, each overriding the one before, into typed configs."""
    known = [key for key, _ in _config_items(TrainConfig(), SplitSpec(), 0)]
    raw: Dict[str, str] = {}
    if config_path is not None:
        raw.update(parse_config_file(config_path))
    for item in set_overrides:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()

    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise UsageError(f"unknown configuration key(s): {', '.join(unknown)}")

    try:
        cfg = _from_raw(TrainConfig, raw, cycle=_from_raw(CycleConfig, raw))
        split = _from_raw(SplitSpec, raw)
        fold_index = int(raw.pop("fold")) if "fold" in raw else split.fold_count - 1
    except (ValueError, TypeError) as exc:
        raise UsageError(f"invalid configuration: {exc}") from None

    if not (0 <= fold_index < split.fold_count):
        raise UsageError(f"fold must lie in [0, {split.fold_count})")
    return cfg, split, fold_index


def _write_config(out_dir: Path, items: Iterable[Tuple[str, object]]) -> str:
    """Write ``config.txt`` into ``out_dir`` and return its text: one sorted
    ``key=value`` line per item, formatted by :func:`_format_value`, leaving
    out the ``command`` and ``func`` entries of parsed flags."""
    lines = sorted(f"{key}={_format_value(value)}" for key, value in items if key not in ("command", "func"))
    text = "\n".join(lines) + "\n"
    (out_dir / "config.txt").write_text(text)
    return text


@contextmanager
def _landing(target: Path) -> Iterator[Path]:
    """A hidden ``.flarecast-*`` directory inside ``target`` (made if missing) for a command to write its files into.
    When the body returns, each file moves into ``target`` by rename, ``config.txt`` last, replacing a file of the same
    name and leaving the others; none moves if ``target`` holds a directory of a file's name (IsADirectoryError). When
    it raises, the hidden directory goes, and so does each directory made here, so that ``target`` is left as it was.
    OSError names ``target`` if it or the hidden directory cannot be made."""
    made = [path for path in (target, *target.parents) if not path.exists()]  # deepest first
    try:
        try:
            target.mkdir(parents=True, exist_ok=True)
            hidden = tempfile.TemporaryDirectory(prefix=".flarecast-", dir=target)
        except OSError as exc:
            raise OSError(f"output directory {target} is not writable: {exc}") from None
        with hidden as staging:
            yield Path(staging)
            if clash := sorted(name for name in os.listdir(staging) if (target / name).is_dir()):
                raise IsADirectoryError(f"output directory {target} holds a directory named {clash[0]}")
            for name in sorted(os.listdir(staging), key=lambda name: (name == "config.txt", name)):
                os.replace(os.path.join(staging, name), target / name)
    except BaseException:
        for path in made:
            with suppress(OSError):
                path.rmdir()
        raise


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    try:
        probs = [float(v) for v in args.class_probs.split(",")]
        table, ranks = gen_synthetic(args.n, probs, args.seed, args.feature_dim, spacing_steps=args.spacing_steps)
    except ValueError as exc:
        raise UsageError(f"invalid arguments: {exc}") from None
    with _landing(Path(args.out_dir)) as staging:
        write_samples(staging / "samples.csv", table)
        write_events(staging / "events.csv", *events_for_samples(table.times, ranks))
        _write_config(staging, vars(args).items())
    print(f"wrote {len(table)} samples and events to {Path(args.out_dir)}")
    return 0


def cmd_label(args) -> int:
    try:
        _horizon_us(args.horizon_hours)
    except ValueError as exc:
        raise UsageError(f"invalid --horizon-hours: {exc}") from None
    events = read_events(args.events)
    table = read_samples(args.samples)
    out = Path(args.out)
    with _landing(out.parent) as staging:
        write_labels(staging / out.name, table.ids, label_samples(table, *events, horizon_hours=args.horizon_hours))
    print(f"labeled {len(table)} samples -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    climatology = None
    if args.climatology != "rows":
        try:
            climatology = [float(v) for v in args.climatology.split(",")]
            gerrity_matrix(climatology)
        except ValueError as exc:
            raise UsageError(f"--climatology must be 'rows' or 4 probabilities: {exc}") from None
    label_ids, observed = read_labels(args.labels)
    pred_ids, predicted, pred_probs = read_predictions(args.preds)
    order = match_ids(pred_ids, label_ids, args.preds, args.labels)
    if len(pred_ids) != len(label_ids):
        match_ids(label_ids, pred_ids, args.labels, args.preds)
    probs = pred_probs[order] if pred_probs is not None else None
    report = build_report(observed, predicted[order], probs, climatology)

    text = report.to_text()
    with _landing(Path(args.out_dir)) as staging:
        (staging / "report.txt").write_text(text)
        (staging / "report.csv").write_text(report.to_csv())
        _write_config(staging, vars(args).items())
    sys.stdout.write(text)
    return 0


def cmd_train(args) -> int:
    cfg, split_spec, fold_index = resolve_run_config(args.config, args.set or [])
    data_dir = Path(args.data_dir)
    samples_path, labels_path = data_dir / "samples.csv", data_dir / "labels.csv"
    label_ids, ranks = read_labels(labels_path)  # first, so that its parse peaks before the table exists
    table = read_samples(samples_path)
    labels = ranks[match_ids(label_ids, table.ids, labels_path, samples_path)]
    del label_ids, ranks  # joined
    table, labels, excluded = apply_channel_policy(table, labels, np.argsort(table.times, kind="stable"))
    fold = split_timeseries(table, split_spec)[fold_index]
    features, times = table.features, table.times
    del table  # with it go the ids and the mask, which nothing below reads
    result = train(features, times, labels, fold, cfg)

    with _landing(Path(args.out_dir)) as staging:
        config_text = _write_config(staging, _config_items(cfg, split_spec, fold_index))
        write_history(staging / "history.csv", result.history)
        save_checkpoint(staging / "checkpoint.txt", result.best, config_text)
        test_report = evaluate_fold(features, times, labels, fold.test, result.best.params, cfg)
        (staging / "test_report.txt").write_text(test_report.to_text())
        (staging / "test_report.csv").write_text(test_report.to_csv())
    print(
        f"best epoch {result.best.epoch}: validation gmgs {result.best.val_gmgs:.4f}; "
        f"test gmgs {test_report.gmgs:.4f}, tss {test_report.tss_ge_m:.4f}; "
        f"{excluded} samples excluded by channel policy"
    )
    return 0


def cmd_gradcheck(args) -> int:
    if args.trials < 1 or args.seed < 0:
        raise UsageError("--trials must be at least 1 and --seed non-negative")
    rng = np.random.default_rng(args.seed)
    hidden_width = 6
    ones = np.ones(1)

    worst_fd = worst_identity = worst_total = 0.0
    for _ in range(args.trials):
        h = rng.standard_normal(hidden_width)
        w = rng.standard_normal((N_CLASSES, hidden_width))
        y = np.zeros((1, N_CLASSES))
        y[0, rng.integers(N_CLASSES)] = 1.0
        z = w @ h
        probs = softmax(z)[None, :]
        h_l1 = np.array([np.abs(h).sum()])

        # The Brier term's head-weight gradient is its logit gradient times h.
        analytic = np.outer(_bss_logit_grad(probs, y)[0], h)

        def bss_at() -> float:
            return flare_loss_arrays(softmax(w @ h)[None, :], y, h_l1, ones, 3.0, False)[0].wbss

        worst_fd = max(worst_fd, gradient_error(bss_at, w, analytic))

        frozen = batch_factors_arrays(probs, y, h_l1)
        grad_sum = float(np.abs(analytic).sum())
        worst_identity = max(worst_identity, abs(float(frozen[1][0]) - grad_sum) / max(grad_sum, 1e-30))

        _, d_logits = flare_loss_arrays(probs, y, h_l1, ones, 3.0, True, frozen_factors=frozen)

        def loss_at() -> float:
            return flare_loss_arrays(softmax(z)[None, :], y, h_l1, ones, 3.0, True, frozen_factors=frozen)[0].total

        worst_total = max(worst_total, gradient_error(loss_at, z, d_logits[0]))

    checks = [
        ("bss head-weight gradient vs central differences", worst_fd, GRADCHECK_TOL_FD),
        ("influence factor vs absolute gradient sum", worst_identity, GRADCHECK_TOL_IDENTITY),
        ("composite loss logit gradient vs central differences", worst_total, GRADCHECK_TOL_FD),
    ]
    for name, err, tol in checks:
        print(f"{'PASS' if err <= tol else 'FAIL'} {name}: max relative error {err:.3e} (tolerance {tol:g})")
    return 0 if all(err <= tol for _, err, tol in checks) else 3


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
    p.add_argument("--horizon-hours", type=float, default=DEFAULT_HORIZON_HOURS)
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
    except (DataFileError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
