"""Labeling windows, channel policy, chronological splits, synthetic data,
and the CSV round trips."""

import dataclasses
import io
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from flarecast import (
    FlareClass,
    SampleTable,
    SplitSpec,
    apply_channel_policy,
    gen_synthetic,
    label_samples,
    split_timeseries,
)
from flarecast import pipeline
from flarecast.core import EPOCH, GRID_US, MICROSECOND, grid_us
from flarecast.pipeline import (
    DEFAULT_START_TIME,
    DataFileError,
    events_for_samples,
    match_ids,
    read_events,
    read_labels,
    read_predictions,
    read_samples,
    write_events,
    write_labels,
    write_samples,
)
from flarecast.trainer import Checkpoint, load_checkpoint, save_checkpoint

from oracles import (
    DIALECT,
    channel_policy_loop,
    label_max_class,
    match_ids_loop,
    read_events_rows,
    read_id_classes_rows,
    read_samples_rows,
    select_rows,
    write_samples_rows,
)

UTC = timezone.utc
T0 = datetime(2021, 10, 26, 0, 0, tzinfo=UTC)


def event(hours_after: float, cls: FlareClass):
    return T0 + timedelta(hours=hours_after), cls


def columns(events):
    """``(peak_us, ranks)`` columns of ``(peak_time, class)`` pairs."""
    peak_us = [(t - EPOCH) // MICROSECOND for t, _ in events]
    return np.array(peak_us, dtype=np.int64), np.array([c for _, c in events], dtype=np.int8)


def refused(dtype):
    """As a regex, the one time check's message for peak times of ``dtype``."""
    return rf"^peak times must be int64 UTC epoch microseconds, got dtype {re.escape(str(dtype))}; convert datetime64 "


def table_columns(table: SampleTable):
    """The column arrays themselves (``dataclasses.astuple`` would deep-copy them)."""
    return table.ids, table.times, table.mask, table.features


def make_table(rows, mask=(True,) * 10, features=None, step_hours=2, start=T0) -> SampleTable:
    """Rows ``i`` in ``rows``: id ``s{i:03d}``, time ``start + step_hours * i``, features ``arange(10) + i``."""
    rows = np.asarray(rows)
    feats = np.arange(10, dtype=float) + rows[:, None] if features is None else features
    return SampleTable(
        [f"s{i:03d}" for i in rows],
        grid_us(start) + 3600 * 10**6 * step_hours * rows,
        np.tile(mask, (len(rows), 1)),
        feats,
    )


def window_label(events) -> FlareClass:
    """Label of a one-row table at ``T0``."""
    labels = label_samples(make_table([0]), *columns(events))
    assert labels.dtype == np.int8 and labels.shape == (1,)
    return FlareClass(int(labels[0]))


class TestLabelMaxClass:
    def test_x_event_inside_window(self):
        # an X-class peak about 63 hours ahead labels the instant X
        assert window_label([event(63, FlareClass.X)]) is FlareClass.X

    def test_empty_window_defaults_to_quiet(self):
        assert window_label([]) is FlareClass.O
        assert window_label([event(100, FlareClass.X)]) is FlareClass.O

    def test_maximum_over_window(self):
        events = [event(10, FlareClass.C), event(70, FlareClass.M)]
        # brute-force oracle: max class among events with 0 < t <= 72
        expected = max(
            (c for t, c in events if 0 < (t - T0).total_seconds() / 3600 <= 72),
            default=FlareClass.O,
        )
        assert window_label(events) is expected is FlareClass.M

    def test_half_open_boundaries(self):
        assert window_label([event(0, FlareClass.X)]) is FlareClass.O
        assert window_label([event(72, FlareClass.X)]) is FlareClass.X
        assert window_label([event(72.0000001, FlareClass.X)]) is FlareClass.O

    def test_monotone_in_added_events(self):
        rng = np.random.default_rng(0)
        events = []
        last = FlareClass.O
        for _ in range(50):
            events.append(event(float(rng.uniform(0.1, 72)), FlareClass(int(rng.integers(4)))))
            now = window_label(events)
            assert now >= last
            last = now

    def test_unsorted_events_handled(self):
        events = [event(70, FlareClass.M), event(10, FlareClass.C)]
        assert window_label(events) is FlareClass.M

    def test_label_samples_matches_scalar_op(self):
        rng = np.random.default_rng(1)
        events = [event(float(rng.uniform(-50, 250)), FlareClass(int(rng.integers(4)))) for _ in range(60)]
        batch = label_samples(make_table(range(40)), *columns(events))
        for i, got in enumerate(batch):
            assert got == label_max_class(T0 + timedelta(hours=2 * i), *columns(events))

    @pytest.mark.parametrize("form", ["datetime64[s]", "float64"])
    def test_peak_times_of_another_dtype_rejected(self, form):
        # Once cast to int64 as they stood: datetime64[s] peaks counted seconds as microseconds, and every row was O.
        peak_us, ranks = columns([event(10, FlareClass.X)])
        peaks = (peak_us // 10**6).astype(form) if form.startswith("datetime64") else peak_us.astype(form)
        with pytest.raises(ValueError, match=refused(form)):
            label_samples(make_table([0]), peaks, ranks)

    @pytest.mark.parametrize(
        "ranks, message",
        [
            ([5], r"holds 5: class rank outside 0\.\.3$"),  # once labelled X
            ([-1], r"holds -1: class rank outside 0\.\.3$"),  # once O
            ([2.7], r"must be integer class ranks, got dtype float64$"),  # once M
            (np.full(1, 200), r"holds 200: class rank outside 0\.\.3$"),  # once O: int8 wrapped it to -56
        ],
        ids=["5", "-1", "2.7", "int64-200"],
    )
    def test_event_ranks_outside_classes_rejected(self, ranks, message):
        peak_us, _ = columns([event(10, FlareClass.X)])
        with pytest.raises(ValueError, match=rf"^event ranks {message}"):
            label_samples(make_table([0]), peak_us, ranks)

    @pytest.mark.parametrize("ranks, got", [([1, 3, 3], "1 and 3"), ([], "1 and 0")], ids=["longer", "shorter"])
    def test_event_columns_of_different_lengths_rejected(self, ranks, got):
        # Once the longer ranks' X went unread and the row was labelled C; shorter ranks raised IndexError.
        peak_us, _ = columns([event(10, FlareClass.C)])
        with pytest.raises(ValueError, match=rf"^peak_us and ranks must be aligned, one entry per row: got {got}$"):
            label_samples(make_table([0]), peak_us, np.array(ranks, dtype=np.int8))

    @pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan"), float("inf"), 1e10, 1e15, 1e-10])
    def test_unusable_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon must be positive and within the datetime range"):
            label_samples(make_table([0]), *columns([event(1, FlareClass.X)]), horizon_hours=horizon)


class TestChannelPolicy:
    def test_complete_sample_kept_unchanged(self):
        table = make_table([0])
        kept, kept_labels, excluded = apply_channel_policy(table, [FlareClass.C])
        assert excluded == 0
        assert list(kept.ids) == ["s000"] and kept.times[0] == table.times[0]
        assert np.array_equal(kept.mask, table.mask) and kept_labels[0] == FlareClass.C
        assert np.array_equal(kept.features.view(np.int64), table.features.view(np.int64))

    def test_two_missing_kept_with_zero_fill(self):
        mask = (False, False) + (True,) * 8
        table = make_table([1], mask=mask)
        kept, _, excluded = apply_channel_policy(table, [FlareClass.O])
        assert excluded == 0
        assert tuple(kept.mask[0]) == mask
        assert np.array_equal(kept.features[0, :2], [0.0, 0.0])
        assert np.array_equal(kept.features[0, 2:], table.features[0, 2:])

    def test_three_missing_excluded(self):
        mask = (False, False, False) + (True,) * 7
        kept, _, excluded = apply_channel_policy(make_table([2], mask=mask), [FlareClass.M])
        assert len(kept) == 0 and excluded == 1

    @pytest.mark.parametrize(
        "labels, message",
        [
            ([0, 1], r"^table and labels must be aligned, one entry per row: got 1 and 2$"),
            ([-1], r"^labels holds -1: class rank outside 0\.\.3$"),  # once excluded as an unlabeled row
        ],
        ids=["misaligned", "minus-one"],
    )
    def test_labels_not_one_rank_per_row_rejected(self, labels, message):
        with pytest.raises(ValueError, match=message):
            apply_channel_policy(make_table([3]), labels)

    @pytest.mark.parametrize(
        "order", [[0], [0, 0, 1], [0, 1, 5], [-1, 0, 1]], ids=["short", "repeated", "past", "negative"]
    )
    def test_order_not_a_permutation_rejected(self, order):
        # Once [0] kept one row and counted two as excluded, [0, 0, 1] repeated s000, and -1 wrapped to the last row.
        with pytest.raises(ValueError, match=r"^order must be a permutation of range\(3\), each row's index once$"):
            apply_channel_policy(make_table([0, 1, 2]), [0, 1, 2], order)

    def test_block_zeroing_for_wide_features(self):
        mask = tuple(ch != 4 for ch in range(10))
        table = make_table([4], mask=mask, features=np.ones((1, 20)))
        kept, _, _ = apply_channel_policy(table, [FlareClass.C])
        out = kept.features[0]
        assert np.array_equal(out[8:10], [0.0, 0.0])  # channel 4 owns features 8..9
        assert out.sum() == 18.0

    @pytest.mark.parametrize("order", [None, "identity"])
    def test_unchanged_table_shares_its_columns(self, order):
        table, ranks = gen_synthetic(30, [0.4, 0.3, 0.2, 0.1], seed=2, feature_dim=20)
        labels = ranks[::-1].copy()
        kept, kept_labels, excluded = apply_channel_policy(table, labels, None if order is None else np.arange(30))
        assert excluded == 0 and kept is table
        assert all(column is source for column, source in zip(table_columns(kept), table_columns(table)))
        assert kept_labels.tolist() == labels.tolist() and not np.shares_memory(kept_labels, labels)
        assert labels.flags.writeable  # the caller's labels are copied, not frozen

    @pytest.mark.parametrize("change", ["drop", "reorder", "zero"])
    def test_changed_table_copied_leaving_input_untouched(self, change):
        base, ranks = gen_synthetic(30, [0.4, 0.3, 0.2, 0.1], seed=2, feature_dim=20)
        mask, labels, order = base.mask.copy(), ranks.copy(), np.arange(30)
        if change == "drop":
            mask[5, :3] = False
        elif change == "reorder":
            order[[3, 4]] = [4, 3]
        else:
            mask[7, 2] = False
        table = SampleTable(base.ids, base.times, mask, base.features)
        before = [column.copy() for column in (*table_columns(table), labels)]
        kept, kept_labels, excluded = apply_channel_policy(table, labels, order)
        assert excluded == (change == "drop")
        pairs = zip((*table_columns(kept), kept_labels), (*table_columns(table), labels))
        assert not any(np.shares_memory(column, source) for column, source in pairs)
        assert all(column.tobytes() == b.tobytes() for column, b in zip((*table_columns(table), labels), before))
        if change == "zero":
            assert (kept.features[7, 4:6] == 0.0).all() and (table.features[7, 4:6] != 0.0).all()


class TestAdoptedColumns:
    """Tables the library builds hold the arrays it has just built, frozen like any other."""

    def test_read_samples_and_selected_rows_frozen_and_unshared(self, tmp_path):
        write_samples(tmp_path / "samples.csv", gen_synthetic(50, [0.4, 0.3, 0.2, 0.1], seed=1, feature_dim=3)[0])
        table = read_samples(tmp_path / "samples.csv")
        for sub in (select_rows(table, np.array([7, 2, 9])), select_rows(table, table.ids != "s01")):
            for column, source in zip(table_columns(sub), table_columns(table)):
                assert not column.flags.writeable and not source.flags.writeable
                assert not np.shares_memory(column, source)

    def test_gen_synthetic_frozen(self):
        table, ranks = gen_synthetic(20, [0.4, 0.3, 0.2, 0.1], seed=0, feature_dim=2)
        assert not any(column.flags.writeable for column in table_columns(table))
        assert ranks.dtype == np.int8 and table.features.flags.c_contiguous


class TestSplitTimeseries:
    def test_single_fold_ratio_partition(self):
        folds = split_timeseries(make_table(range(10)), SplitSpec(fold_count=1))
        assert folds[0].train == range(0, 6)
        assert folds[0].validation == range(6, 8)
        assert folds[0].test == range(8, 10)

    def test_three_folds_expand_and_stay_ordered(self):
        folds = split_timeseries(make_table(range(30)), SplitSpec(fold_count=3))
        assert len(folds) == 3
        prev_train_end = 0
        for fold in folds:
            train, val, test = fold.train, fold.validation, fold.test
            assert len(train) > 0 and len(val) > 0 and len(test) > 0
            assert train.stop == val.start and val.stop == test.start
            assert set(train).isdisjoint(val) and set(val).isdisjoint(test)
            assert max(train) < min(val) < max(val) + 1 <= min(test)
            assert train.stop >= prev_train_end
            prev_train_end = train.stop
        assert folds[0].train.stop < folds[1].train.stop < folds[2].train.stop

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="too few samples"):
            split_timeseries(make_table(range(2)), SplitSpec(fold_count=1))
        with pytest.raises(ValueError, match="too few samples"):
            split_timeseries(make_table(range(4)), SplitSpec(fold_count=3))

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            split_timeseries(make_table([1, 0]), SplitSpec(fold_count=1))

    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SplitSpec(train_frac=0.5, val_frac=0.2, test_frac=0.2)


class TestGenSynthetic:
    def test_deterministic(self):
        a, a_ranks = gen_synthetic(100, [0.38, 0.35, 0.23, 0.04], seed=7, feature_dim=6)
        b, b_ranks = gen_synthetic(100, [0.38, 0.35, 0.23, 0.04], seed=7, feature_dim=6)
        assert np.array_equal(a.ids, b.ids) and np.array_equal(a.times, b.times)
        assert np.array_equal(a_ranks, b_ranks)
        assert np.array_equal(a.features, b.features)

    def test_seed_changes_output(self):
        a, _ = gen_synthetic(50, [0.25] * 4, seed=0, feature_dim=4)
        b, _ = gen_synthetic(50, [0.25] * 4, seed=1, feature_dim=4)
        assert any(not np.array_equal(x, y) for x, y in zip(a.features, b.features))

    def test_label_frequencies_match_targets(self):
        probs = np.array([0.38, 0.35, 0.23, 0.04])
        _, ranks = gen_synthetic(10_000, probs, seed=3, feature_dim=5)
        freq = np.bincount(ranks, minlength=4) / 10_000
        assert np.all(np.abs(freq - probs) <= 0.02)

    def test_stratified_base_case(self):
        _, ranks = gen_synthetic(4, [0.25] * 4, seed=11, feature_dim=3)
        assert sorted(ranks.tolist()) == [0, 1, 2, 3]

    def test_two_hour_grid_and_spacing(self):
        table, _ = gen_synthetic(5, [0.25] * 4, seed=0, feature_dim=2, spacing_steps=37)
        assert np.all(np.diff(table.times) == 74 * 3600 * 10**6)
        assert table.times[0] == grid_us(DEFAULT_START_TIME)
        assert list(table.ids) == ["s0", "s1", "s2", "s3", "s4"]
        assert table.mask.all()

    def test_last_event_within_year_9999(self):
        # The check runs in Python ints: a numpy spacing whose product wraps round int64 is refused too.
        most = 35_013_234  # samples at spacing 1 whose last event peaks by 9999-12-31T23:59:59.999999Z
        table, ranks = gen_synthetic(2, [0.0, 0.0, 0.0, 1.0], seed=0, feature_dim=1, spacing_steps=most - 1)
        last_peak = events_for_samples(table.times, ranks)[0][-1]
        assert np.datetime_as_string(last_peak.astype("datetime64[us]")) == "9999-12-31T22:00:00.000000"
        assert gen_synthetic(3, [0.25] * 4, seed=0, feature_dim=1, spacing_steps=(most - 1) // 2)[0].times[-1] < table.times[-1]
        for n, spacing in ((2, most), (3, most // 2), (3, np.int64(2**62))):  # no more than 3 rows, if the check fails
            with pytest.raises(ValueError, match=r"last sample or its event after 9999-12-31T23:59:59\.999999Z$"):
                gen_synthetic(n, [0.25] * 4, seed=0, feature_dim=1, spacing_steps=spacing)

    def test_classes_overlap_but_separate(self):
        table, labels = gen_synthetic(4000, [0.25] * 4, seed=5, feature_dim=6)
        proj = table.features.mean(axis=1)
        means = [proj[labels == k].mean() for k in range(4)]
        stds = [proj[labels == k].std() for k in range(4)]
        assert all(a < b for a, b in zip(means, means[1:]))  # ordered class means
        for k in range(3):  # adjacent classes overlap within ~2 sd
            assert means[k + 1] - means[k] < 2 * (stds[k] + stds[k + 1])

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"n": 0}, "n must"),
            ({"feature_dim": 0}, "feature_dim"),
            ({"spacing_steps": 0}, "spacing_steps"),
            ({"class_probs": [0.5, 0.5]}, "class_probs"),
            ({"class_probs": [np.nan, 0.5, 0.25, 0.25]}, "class_probs"),
        ],
        ids=["n", "feature_dim", "spacing_steps", "probs-count", "probs-nan"],
    )
    def test_bad_arguments_rejected(self, kwargs, name):
        args = {"n": 10, "class_probs": [0.25] * 4, "seed": 0, "feature_dim": 3, "spacing_steps": 1, **kwargs}
        with pytest.raises(ValueError, match=name):
            gen_synthetic(**args)


class TestEventsForSamples:
    def test_round_trip_with_disjoint_windows(self, tmp_path):
        table, labels = gen_synthetic(300, [0.38, 0.35, 0.23, 0.04], seed=9, feature_dim=4, spacing_steps=37)
        peak_us, ranks = events_for_samples(table.times, labels)
        assert peak_us.dtype == np.int64 and ranks.dtype == np.int8
        relabeled = label_samples(table, peak_us, ranks)
        assert np.array_equal(labels, relabeled)
        write_events(tmp_path / "events.csv", peak_us, ranks)
        assert np.array_equal(labels, label_samples(table, *read_events(tmp_path / "events.csv")))

    def test_quiet_samples_produce_no_events(self):
        table, labels = gen_synthetic(50, [1.0, 0.0, 0.0, 0.0], seed=2, feature_dim=3)
        peak_us, ranks = events_for_samples(table.times, labels)
        assert peak_us.shape == ranks.shape == (0,)

    def test_columns_of_different_lengths_rejected(self):
        table, labels = gen_synthetic(3, [0.25] * 4, seed=0, feature_dim=1)
        with pytest.raises(ValueError, match=r"^times and ranks must be aligned, one entry per row: got 3 and 2$"):
            events_for_samples(table.times, labels[:2])


class TestCsvFormats:
    def test_events_round_trip(self, tmp_path):
        peak_us, ranks = columns([event(10, FlareClass.X), event(30.0, FlareClass.C)])
        path = tmp_path / "events.csv"
        write_events(path, peak_us, ranks)
        assert path.read_text().splitlines() == ["peak_time,class", "2021-10-26T10:00:00Z,X", "2021-10-27T06:00:00Z,C"]
        back_us, back_ranks = read_events(path)
        assert back_us.dtype == np.int64 and back_ranks.dtype == np.int8
        assert back_us.tolist() == peak_us.tolist() and back_ranks.tolist() == ranks.tolist()

    def test_samples_round_trip(self, tmp_path):
        table, _ = gen_synthetic(20, [0.25] * 4, seed=1, feature_dim=3)
        path = tmp_path / "samples.csv"
        write_samples(path, table)
        header = path.read_text().splitlines()[0]
        assert header == "id,timestamp,mask,f0,f1,f2"
        back = read_samples(path)
        assert len(back) == 20
        assert np.array_equal(table.ids, back.ids) and np.array_equal(table.times, back.times)
        assert np.array_equal(table.mask, back.mask)
        assert np.array_equal(table.features, back.features)  # repr round-trips exactly

    def test_labels_round_trip(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_labels(path, ["a", "b"], [FlareClass.X, FlareClass.O])
        ids, ranks = read_labels(path)
        assert ids.dtype.kind == "U" and ids.tolist() == ["a", "b"]
        assert ranks.dtype == np.int8 and ranks.tolist() == [FlareClass.X, FlareClass.O]

    def test_rank_outside_classes_rejected(self, tmp_path):
        # a rank of -1 would otherwise index the last name, X
        with pytest.raises(ValueError, match=r"class rank outside 0\.\.3"):
            write_labels(tmp_path / "labels.csv", ["a", "b"], [FlareClass.C, -1])
        with pytest.raises(ValueError, match=r"class rank outside 0\.\.3"):
            write_events(tmp_path / "events.csv", [0], [4])

    @pytest.mark.parametrize(
        "write",
        [lambda path: write_labels(path, ["a"], [-1]), lambda path: write_events(path, [0], [4])],
        ids=["labels", "events"],
    )
    def test_rank_outside_classes_leaves_no_file(self, tmp_path, write):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=r"class rank outside 0\.\.3"):
            write(path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "write, message",
        [
            (lambda path: write_labels(path, ["a", "b"], [0]), "ids and labels"),
            (lambda path: write_events(path, [0, 7_200_000_000], [1]), "peak_us and ranks"),
        ],
        ids=["labels", "events"],
    )
    def test_columns_of_different_lengths_leave_no_file(self, tmp_path, write, message):
        # Once the shorter column set the rows: labels.csv held only 'a,O', events.csv one event.
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=f"^{message} must be aligned, one entry per row: got 2 and 1$"):
            write(path)
        assert not path.exists()

    def test_fractional_rank_rejected(self, tmp_path):
        # Once cast to int64 and written as M.
        path = tmp_path / "labels.csv"
        with pytest.raises(ValueError, match=r"^labels must be integer class ranks, got dtype float64$"):
            write_labels(path, ["a"], [2.7])
        assert not path.exists()

    @pytest.mark.parametrize(
        "write",
        [
            lambda path: write_labels(path, ["b", "a", "b"], [0, 1, 2]),
            lambda path: write_samples(path, SampleTable(["b", "a", "b"], [0, GRID_US, 0], np.ones((3, 10), bool), [[0.0]] * 3)),
        ],
        ids=["labels", "samples"],
    )
    def test_repeated_id_refused_before_the_file_exists(self, tmp_path, write):
        # Once written, and then rejected by the reader: "labels.csv:4: duplicate id 'b' (first on line 2)".
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=r"^id 'b' cannot be written twice: a reader rejects a repeated id$"):
            write(path)
        assert not path.exists()

    def test_hard_predictions_read_like_labels(self, tmp_path):
        path = tmp_path / "preds.csv"
        write_labels(path, ["a", "b", "c"], [FlareClass.X, FlareClass.O, FlareClass.M])
        ids, ranks, probs = read_predictions(path)
        assert probs is None and ids.tolist() == ["a", "b", "c"]
        assert ranks.dtype == np.int8 and ranks.tolist() == [FlareClass.X, FlareClass.O, FlareClass.M]
        assert np.array_equal(ranks, read_labels(path)[1])

    def test_malformed_event_row_names_line(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("peak_time,class\n2020-01-01T00:00:00Z,X\nnot-a-time,C\n")
        with pytest.raises(DataFileError, match=r"events\.csv:3"):
            read_events(path)

    @pytest.mark.parametrize("stamp", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:00:00-01:00"])
    def test_event_time_outside_datetime_range_names_line(self, tmp_path, stamp):
        path = tmp_path / "events.csv"
        path.write_text(f"peak_time,class\n2020-01-01T00:00:00Z,X\n{stamp},C\n")
        with pytest.raises(DataFileError, match=r"events\.csv:3: date value out of range"):
            read_events(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("id,flare\na,X\n")
        with pytest.raises(DataFileError, match="header"):
            read_labels(path)

    def test_header_compared_stripped_and_lowercased(self, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text(" ID , Label\na,X\n")
        ids, ranks = read_labels(labels)
        assert ids.tolist() == ["a"] and ranks.tolist() == [FlareClass.X]
        samples = tmp_path / "samples.csv"
        samples.write_text("Id,TIMESTAMP, Mask ,F0\na,2020-01-01T00:00:00Z,1111111111,0.5\n")
        assert read_samples(samples).ids.tolist() == ["a"]

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_feature_names_line(self, tmp_path, value):
        path = tmp_path / "samples.csv"
        path.write_text(
            "id,timestamp,mask,f0,f1\n"
            "a,2020-01-01T00:00:00Z,1111111111,0.5,1.0\n"
            f"b,2020-01-01T02:00:00Z,1111111111,0.5,{value}\n"
            f"c,2020-01-01T04:00:00Z,1111111111,{value},1.0\n"
        )
        with pytest.raises(DataFileError, match=r"samples\.csv:3: features of id 'b' must be finite"):
            read_samples(path)

    @pytest.mark.parametrize("stamp", ["2020-01-01T02:00:00Z\x00", "2020-01-01T02:00:00\x00+05:00"])
    def test_nul_in_timestamp_names_line(self, tmp_path, stamp):
        # datetime.fromisoformat skips a NUL, and a numpy str array drops it from the end: no file holds one
        samples, events = tmp_path / "samples.csv", tmp_path / "events.csv"
        samples.write_text(f"id,timestamp,mask,f0\na,2020-01-01T00:00:00Z,1111111111,0.5\nb,{stamp},1111111111,0.5\n")
        events.write_text(f"peak_time,class\n2020-01-01T00:00:00Z,X\n{stamp},C\n")
        for read, path in ((read_samples, samples), (read_events, events)):
            with pytest.raises(DataFileError) as info:
                read(path)
            assert str(info.value) == f"{path}:3: '\\x00' is not allowed: {DIALECT}"

    def test_bad_mask_names_line(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("id,timestamp,mask,f0\na,2020-01-01T00:00:00Z,1111,0.5\n")
        with pytest.raises(DataFileError, match=r"samples\.csv:2"):
            read_samples(path)

    def test_duplicate_label_id_names_second_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("id,label\na,X\nb,C\na,O\n")
        with pytest.raises(DataFileError, match=r"labels\.csv:4: duplicate id 'a' \(first on line 2\)"):
            read_labels(path)

    @pytest.mark.parametrize(
        "line, message", [(1, "expected header 'id,label'"), (3, "expected 2 fields, got 3")], ids=["header", "row"]
    )
    def test_oversized_field_names_line(self, tmp_path, line, message):
        rows = ["id,label", "a,X", "b,O"]
        rows[line - 1] = "x" * 200_000 + "," + rows[line - 1]
        path = tmp_path / "labels.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataFileError) as info:
            read_labels(path)
        assert str(info.value) == f"{path}:{line}: {message}"

    @pytest.mark.parametrize("length", [256, 257, 20_000])
    def test_id_over_the_cap_names_line(self, tmp_path, length):
        # A str array is as wide as its longest id: one 20,000-character id would widen every row.
        labels, samples = tmp_path / "labels.csv", tmp_path / "samples.csv"
        labels.write_text(f"id,label\na,X\n {'y' * length} ,O\n")
        samples.write_text("id,timestamp,mask,f0\n" + "".join(
            f"{sid},2020-01-01T0{2 * i}:00:00Z,1111111111,0.5\n" for i, sid in enumerate(["a", "y" * length])
        ))
        for read, path in ((lambda path: read_labels(path)[0], labels), (lambda path: read_samples(path).ids, samples)):
            got = read_or_error(read, path)
            if length <= pipeline.MAX_ID_CHARS:
                assert got.tolist() == ["a", "y" * length]
            else:
                assert got == f"{path}:3: id of {length} characters is longer than 256"

    def test_nul_in_id_names_line(self, tmp_path):
        # numpy str arrays drop trailing NULs, so 'a' and 'a\x00' would become one id: no file holds one
        path = tmp_path / "samples.csv"
        row = "2020-01-01T00:00:00Z,1111111111,0.5"
        path.write_text(f"id,timestamp,mask,f0\na,{row}\na\x00,{row}\n")
        with pytest.raises(DataFileError) as info:
            read_samples(path)
        assert str(info.value) == f"{path}:3: '\\x00' is not allowed: {DIALECT}"

    @pytest.mark.parametrize(
        "quoted, line", [((5,), 5), ((5, 8), 5), ((2, 8), 2)], ids=["unclosed", "closed-later", "first-row"]
    )
    def test_quote_names_line_of_first(self, tmp_path, quoted, line):
        table, _ = gen_synthetic(10, [0.25] * 4, seed=1, feature_dim=2)
        path = tmp_path / "samples.csv"
        write_samples(path, table)
        lines = path.read_text().splitlines()
        for i in quoted:
            lines[i - 1] = '"' + lines[i - 1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFileError) as info:
            read_samples(path)
        assert str(info.value) == f"{path}:{line}: '\"' is not allowed: {DIALECT}"

    def test_quoted_multiline_id_names_first_line(self, tmp_path):
        # No field is quoted, so no row spans lines: the quote opening one is the fault.
        path = tmp_path / "labels.csv"
        path.write_text('id,label\n"a\nb",X\n"a\nb",O\n')
        with pytest.raises(DataFileError) as info:
            read_labels(path)
        assert str(info.value) == f"{path}:2: '\"' is not allowed: {DIALECT}"
        assert read_or_error(read_id_classes_rows, path, ["id", "label"]) == str(info.value)

    @pytest.mark.parametrize(
        "sid",
        ['r,"0', "a,b", 'q"', "x\ry", "x\ny", "n\x00m", "s\x1c", "s\x1f", "z" * 257, "b ", " a", "a\t", "a\x00", "\x00"],
    )
    @pytest.mark.parametrize("write", ["samples", "labels"])
    def test_writers_reject_id_out_of_dialect(self, tmp_path, sid, write):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="cannot be written") as info:
            if write == "samples":
                write_samples(path, SampleTable(["a", sid], [0, GRID_US], np.ones((2, 10), bool), np.zeros((2, 1))))
            else:
                write_labels(path, ["a", sid], [0, 1])
        assert repr(sid) in str(info.value) and not path.exists()

    def test_utf8_bom_rejected_at_line_1(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_bytes(b"\xef\xbb\xbfid,label\na,X\n")
        with pytest.raises(DataFileError, match=r"labels\.csv:1: expected header 'id,label'"):
            read_labels(path)

    def test_duplicate_sample_id_names_second_line(self, tmp_path):
        path = tmp_path / "samples.csv"
        row = "1111111111,0.5"
        path.write_text(
            f"id,timestamp,mask,f0\na,2020-01-01T00:00:00Z,{row}\na,2020-01-01T02:00:00Z,{row}\n"
        )
        with pytest.raises(DataFileError, match=r"samples\.csv:3: duplicate id 'a'"):
            read_samples(path)


class TestRoundTrip:
    """A writer and its reader are inverses: what the writer accepts, the reader gives back unchanged, and what
    it refuses, it refuses with ValueError before the file exists."""

    # Edge ids: 1, 255-257 characters, non-ASCII, outer whitespace (NBSP and the ideographic space among it), bytes
    # out of the one dialect, a trailing NUL and a lone surrogate, which UTF-8 cannot encode.
    edge = list(' \xa0\u3000\t\x0b\x85\u2028"\r\n\x00\x1c\x1f,é\U0001f600\ud800')
    chars = st.characters() | st.sampled_from(edge)
    pad = st.sampled_from(["", " ", "\xa0", "\u3000", "\t"])
    ids = (
        st.text(chars, max_size=6)
        | st.builds(str.__mul__, st.sampled_from(["a", "é", "\U0001f600"]), st.sampled_from([1, 255, 256, 257]))
        | st.builds(lambda a, core, b: a + core + b, pad, st.text(chars, min_size=1, max_size=4), pad)
        | st.text(chars, max_size=4).map(lambda sid: sid + "\x00")
    )

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(
        ids=st.lists(ids, min_size=1, max_size=4).flatmap(lambda ids: st.sampled_from([ids, ids + ids[-1:]])),
        ranks=st.lists(st.integers(0, 3), min_size=6, max_size=6),
        bad_rank=st.none() | st.sampled_from([-1, 4, 127, -128, 200, 2**63 - 1, -(2**63), 2.7]),
        cut=st.sampled_from([0, 0, -1, 1]),
    )
    def test_labels(self, tmp_path_factory, ids, ranks, bad_rank, cut):
        """Ids include every edge value above, and a repeated one in some examples; ranks are 0..3, but for one out
        of range or fractional in some examples, and one more or one fewer than the ids in others."""
        path = tmp_path_factory.mktemp("labels") / "labels.csv"
        ranks = (([] if bad_rank is None else [bad_rank]) + ranks)[: len(ids) + cut]
        try:
            write_labels(path, ids, ranks)
        except ValueError:
            assert not path.exists()
            return
        assert bad_rank is None and cut == 0 and len(set(ids)) == len(ids)
        got_ids, got_ranks = read_labels(path)
        assert got_ids.tolist() == ids and got_ranks.tolist() == ranks

    # The datetime range, which is the stamps' range, in UTC epoch microseconds, and its first and last grid steps.
    lo_us = (datetime.min.replace(tzinfo=UTC) - EPOCH) // MICROSECOND
    hi_us = (datetime.max.replace(tzinfo=UTC) - EPOCH) // MICROSECOND
    first, last = -(-lo_us // GRID_US), hi_us // GRID_US
    int64 = [-(2**63), 2**63 - 1]  # NaT as a datetime64, and the largest int64
    # Edge floats: -0.0, subnormals, the normal minimum and both finite extremes; then the non-finite ones.
    finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
         -1.7976931348623157e308]
    )
    non_finite = [math.inf, -math.inf, math.nan, -math.nan]

    # Sample times no stamp holds or off the grid: a grid step past either end of the stamp range, a grid time in
    # seconds, the int64 extremes and the last grid steps inside them.
    bad_times = [GRID_US * (first - 1), GRID_US * (last + 1), 1_303_430_400, *int64]
    bad_times += [-GRID_US * (2**63 // GRID_US), GRID_US * (2**63 // GRID_US)]

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 4),
        dim=st.integers(1, 3),
        fault=st.none() | st.tuples(st.just("time"), st.sampled_from(bad_times))
        | st.tuples(st.just("feature"), st.sampled_from(non_finite)),
    )
    def test_samples(self, tmp_path_factory, data, n, dim, fault):
        """Ids are letters and digits, non-ASCII among them, of 1 to 6 and 256 characters, but for one of the edge
        values above or a repeated one. Times lie on the grid across the stamp range and at its ends, features are
        edge floats, but for one of bad_times or one non-finite feature in some examples."""
        plain = st.text(st.characters(categories=("L", "N")), min_size=1, max_size=6)
        plain |= st.builds(str.__mul__, st.sampled_from(["a", "é", "\U0001f600"]), st.just(256))
        grid = st.integers(self.first, self.last).map(GRID_US.__mul__)
        grid |= st.sampled_from([GRID_US * self.first, GRID_US * self.last, 0])
        ids = data.draw(st.lists(plain, min_size=n - 1, max_size=n - 1))
        ids.insert(data.draw(st.integers(0, n - 1)), data.draw(self.ids | st.sampled_from(ids) if ids else self.ids))
        times = data.draw(st.lists(grid, min_size=n, max_size=n))
        feats = data.draw(st.lists(self.finite, min_size=n * dim, max_size=n * dim))
        if fault is not None:
            column = times if fault[0] == "time" else feats
            column[data.draw(st.integers(0, len(column) - 1))] = fault[1]
        mask = np.reshape(data.draw(st.lists(st.booleans(), min_size=10 * n, max_size=10 * n)), (n, 10))
        path = tmp_path_factory.mktemp("samples") / "samples.csv"
        try:
            table = SampleTable(ids, times, mask, np.reshape(feats, (n, dim)))  # refuses a time off the grid
            write_samples(path, table)
        except ValueError:
            assert not path.exists()
            return
        assert fault is None and len(set(ids)) == n
        back = read_samples(path)
        assert back.ids.tolist() == ids and back.times.tolist() == times and np.array_equal(back.mask, mask)
        assert back.features.tobytes() == np.reshape(feats, (n, dim)).tobytes()

    # Microseconds per tick of int64 microseconds, which write_events takes, and of datetime64 of four units, which it
    # refuses whatever the values: int64 microseconds are the library's one time unit.
    ticks = {"int64": 1, "datetime64[us]": 1, "datetime64[s]": 10**6, "datetime64[D]": 86_400 * 10**6}
    ticks["datetime64[ns]"] = Fraction(1, 1000)

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(
        data=st.data(),
        unit=st.sampled_from(sorted(ticks)),
        ranks=st.lists(st.integers(0, 3), min_size=5, max_size=5),
        bad_rank=st.none() | st.sampled_from([-1, 4]),
        cut=st.sampled_from([0, 0, -1, 1]),
    )
    def test_events(self, tmp_path_factory, data, unit, ranks, bad_rank, cut):
        """Ticks across the int64 range and across the stamp range of each unit, the ends of both and a tick past
        either; NaT is the int64 minimum. The writer refuses exactly the int64 times no stamp holds, every
        datetime64 column, naming its dtype, and ranks one more or one fewer than the times."""
        tick = self.ticks[unit]
        lo, hi = (min(max(v, self.int64[0]), self.int64[1]) for v in (-(-self.lo_us // tick), self.hi_us // tick))
        edges = [min(max(v, self.int64[0]), self.int64[1]) for v in self.int64 + [lo, hi, lo - 1, hi + 1, 0]]
        per = tick.denominator  # ticks per microsecond, for the nanoseconds
        whole = st.integers(-(-lo // per), hi // per).map(per.__mul__)  # in the stamp range, whole microseconds
        values = st.integers(*self.int64) | whole | st.sampled_from(edges)
        values = data.draw(st.lists(values, min_size=1, max_size=4))
        ranks = (([] if bad_rank is None else [bad_rank]) + ranks)[: len(values) + cut]
        given = np.array(values, dtype=np.int64)
        given = given if unit == "int64" else given.view(unit)
        exact = [v * tick for v in values]  # None for NaT
        exact = [None if unit != "int64" and v == -(2**63) else e for v, e in zip(values, exact)]
        writable = all(e is not None and e == int(e) and self.lo_us <= e <= self.hi_us for e in exact)
        writable &= unit == "int64"
        path = tmp_path_factory.mktemp("events") / "events.csv"
        try:
            write_events(path, given, ranks)
        except ValueError as exc:
            assert not path.exists() and not (writable and bad_rank is None and cut == 0)
            if unit != "int64" and bad_rank is None:
                assert str(exc).startswith(f"peak times must be int64 UTC epoch microseconds, got dtype {unit}")
            return
        assert writable and bad_rank is None and cut == 0
        back_us, back_ranks = read_events(path)
        assert back_us.tolist() == [int(e) for e in exact] and back_ranks.tolist() == ranks

    # Parameter names load_checkpoint cannot read back (empty, or holding whitespace: a space, a tab, a line end,
    # \x1c, NBSP) beside ones it can (non-ASCII, punctuation).
    edge_names = ["", " ", "a b", "a\tb", "b\n", "a\x1cb", "\xa0x", "é", "w0.x-1", "array"]

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        data=st.data(),
        names=st.lists(st.sampled_from(["w0", "b0", "w1", "b1", "head"]) | st.sampled_from(edge_names), min_size=1,
                       max_size=5, unique=True),
        epoch=st.integers(0, 2**31),
        val_gmgs=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, -1.0, 1.0]),
    )
    def test_checkpoint(self, tmp_path_factory, data, names, epoch, val_gmgs):
        """Parameters of every edge float, in arrays of zero to two dimensions, each of 0 to 3 entries, named as the
        trainer names them or by an edge name: each comes back bit for bit, or save_checkpoint refuses, before the
        file exists, a non-finite value, a name that is empty or holds whitespace, or an array of no dimensions."""
        params = {}
        for name in names:
            shape = data.draw(st.lists(st.integers(0, 3), min_size=0, max_size=2))
            floats = self.finite | st.sampled_from(self.non_finite)
            values = data.draw(st.lists(floats, min_size=math.prod(shape), max_size=math.prod(shape)))
            params[name] = np.reshape(np.array(values, dtype=float), shape)
        path = tmp_path_factory.mktemp("checkpoint") / "checkpoint.txt"
        finite = all(np.isfinite(p).all() for p in params.values())
        readable = all(name and not any(c.isspace() for c in name) and p.shape != () for name, p in params.items())
        try:
            save_checkpoint(path, Checkpoint(epoch=epoch, params=params, val_gmgs=val_gmgs, val_report=None), "seed=0\n")
        except ValueError:
            assert not path.exists() and not (finite and readable)
            return
        assert finite and readable
        back, meta = load_checkpoint(path)
        assert sorted(back) == sorted(params)
        for name, p in params.items():
            assert back[name].shape == p.shape and back[name].tobytes() == p.tobytes()
        assert meta["epoch"] == str(epoch) and np.float64(meta["val_gmgs"]).tobytes() == np.float64(val_gmgs).tobytes()


class TestStampCodec:
    """write_events and write_samples write every time through one stamp encoder; read_events and read_samples
    decode what it writes in one pass, and leave any other stamp, such as one with an offset, to the slow path."""

    # The datetime range in UTC epoch microseconds, its whole seconds and its 2-hour grid steps.
    lo_us = (datetime.min.replace(tzinfo=UTC) - EPOCH) // MICROSECOND
    hi_us = (datetime.max.replace(tzinfo=UTC) - EPOCH) // MICROSECOND
    us = st.integers(lo_us, hi_us) | st.sampled_from([lo_us, hi_us, -1, 0, 1, 999_999, 1_000_000])
    us |= us.map(lambda v: v - v % 10**6)
    steps = st.integers(-8_629_944, 35_194_763) | st.sampled_from([-8_629_944, 35_194_763, -1, 0, 1])

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(values=st.lists(us, min_size=1, max_size=30), offset=st.sampled_from(["+00:00", "-05:30"]))
    def test_events_round_trip_and_offsets_read_like_fromisoformat(self, tmp_path_factory, values, offset):
        ranks = np.arange(len(values), dtype=np.int8) % 4
        path = tmp_path_factory.mktemp("csv") / "events.csv"
        write_events(path, np.array(values, dtype=np.int64), ranks)
        lines = path.read_text().splitlines()
        stamps = [line.split(",")[0] for line in lines[1:]]
        assert [len(s) for s in stamps] == [20 if v % 10**6 == 0 else 27 for v in values]
        back_us, back_ranks = read_events(path)
        assert back_us.tolist() == values and back_ranks.tolist() == ranks.tolist()
        # The same file with an offset in place of Z: the instants datetime.fromisoformat reads, or the first one
        # outside the datetime range named by its line.
        offsets = path.with_name("offsets.csv")
        offsets.write_text("\n".join([lines[0]] + [line.replace("Z,", offset + ",") for line in lines[1:]]) + "\n")
        want = [(datetime.fromisoformat(s[:-1] + offset) - EPOCH) // MICROSECOND for s in stamps]
        outside = [line for line, v in enumerate(want, start=2) if not self.lo_us <= v <= self.hi_us]
        got = read_or_error(lambda p: read_events(p)[0].tolist(), offsets)
        assert got == (f"{offsets}:{outside[0]}: date value out of range" if outside else want)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(steps=st.lists(steps, min_size=1, max_size=30))
    def test_samples_grid_times_round_trip_in_every_form(self, tmp_path_factory, steps):
        n, times = len(steps), GRID_US * np.array(steps, dtype=np.int64)
        table = SampleTable([f"s{i}" for i in range(n)], times, np.ones((n, 10), bool), np.zeros((n, 1)))
        path = tmp_path_factory.mktemp("csv") / "samples.csv"
        write_samples(path, table)
        lines = path.read_text().splitlines()
        assert all(len(line.split(",")[1]) == 20 for line in lines[1:])
        assert read_samples(path).times.tolist() == times.tolist()
        for suffix in (".000000Z,", "+00:00,"):  # the fraction form, then the slow path
            other = path.with_name("other.csv")
            other.write_text("\n".join([lines[0]] + [line.replace("Z,", suffix) for line in lines[1:]]) + "\n")
            assert read_samples(other).times.tolist() == times.tolist()

    @pytest.mark.parametrize(
        "times",
        [[0, 40_000_000 * GRID_US], [0, -40_000_000 * GRID_US], [0, -62_135_596_800_000_000 - GRID_US]],
        ids=["after-9999", "before-year-1", "year-0"],  # years 11096, -7157 and 0000-12-31T22:00:00
    )
    def test_sample_times_outside_the_stamp_range_rejected(self, tmp_path, times):
        # Written as numpy prints them (11096-05-10T08:00:00Z), which read_samples then rejected.
        path = tmp_path / "samples.csv"
        table = SampleTable(["a", "b"], times, np.ones((2, 10), bool), np.zeros((2, 1)))
        with pytest.raises(ValueError, match=r"^time of id 'b' cannot be written: NaT or outside 0001-01-01T00:00:00Z "):
            write_samples(path, table)
        assert not path.exists()

    @pytest.mark.parametrize("stamp", ["10000-01-01T00:00:00", "0000-06-01T00:00:00", "-001-01-01T00:00:00"])
    @pytest.mark.parametrize("form", ["int64", "datetime64[us]", "datetime64[s]"])
    def test_events_times_outside_the_stamp_range_rejected(self, tmp_path, stamp, form):
        # Written as 10000-01-01T00:00:00Z, 0000-06-01T00:00:00Z and -001-01-01T00:00:00Z, which read_events rejected.
        times = np.array([0, stamp], "datetime64[s]").astype("datetime64[us]" if form == "int64" else form)
        times = times.view(np.int64) if form == "int64" else times
        path = tmp_path / "events.csv"
        why = r"NaT or outside 0001-01-01T00:00:00Z \.\. 9999-12-31T23:59:59\.999999Z"
        message = rf"^peak time {times[-1]} cannot be written: {why}" if form == "int64" else refused(form)
        with pytest.raises(ValueError, match=message):
            write_events(path, times, [1, 2])
        assert not path.exists()

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_samples_non_finite_features_rejected(self, tmp_path, value):
        # Written as 'inf' or 'nan', which read_samples rejected ("features of id 'b' must be finite").
        path = tmp_path / "samples.csv"
        table = SampleTable(["a", "b", "c"], [0, GRID_US, 2 * GRID_US], np.ones((3, 10), bool), [[0.0], [value], [value]])
        with pytest.raises(ValueError, match=r"^features of id 'b' cannot be written: they must be finite$"):
            write_samples(path, table)
        assert not path.exists()

    @pytest.mark.parametrize(
        "times",
        [
            np.array([0, 7200 * 2_000_000_000], "datetime64[s]"),  # year 458287, which microseconds wrapped to -126267
            np.array([3_600_000_000_001], "datetime64[ns]"),  # a nanosecond past a microsecond
        ],
        ids=["coarser-unit-overflow", "finer-unit-fraction"],
    )
    def test_events_times_microseconds_cannot_hold_rejected(self, tmp_path, times):
        # Once written wrapped round or cut to a microsecond; now refused, as every datetime64 column is.
        path = tmp_path / "events.csv"
        with pytest.raises(ValueError, match=refused(times.dtype)):
            write_events(path, times, [1] * len(times))
        assert not path.exists()

    @pytest.mark.parametrize(
        "times, shown",
        [
            (np.array([0, "NaT"], "datetime64[s]"), "NaT"),
            (np.array([0, -(2**63)], np.int64), str(-(2**63))),  # NaT as a datetime64
        ],
        ids=["datetime64-nat", "int64-nat"],
    )
    def test_events_nat_time_rejected(self, tmp_path, times, shown):
        # Written as the stamp 'NaTZ', which read_events then rejected. A datetime64 column is refused for its dtype.
        path = tmp_path / "events.csv"
        message = rf"peak time {shown} cannot be written: NaT" if times.dtype == np.int64 else refused(times.dtype)
        with pytest.raises(ValueError, match=message):
            write_events(path, times, [1, 2])
        assert not path.exists()

    def test_events_datetime64_times_refused_and_converted_by_the_recipe(self, tmp_path):
        # write_events once took datetime64 times too; it refuses them now, and the README's conversion writes them.
        us = 10**6 * np.array([0, 3_600, -86_400 * 365], dtype=np.int64) + np.array([0, 0, 5])
        for times in (us.astype("datetime64[us]"), us.astype("datetime64[us]").astype("datetime64[ns]")):
            with pytest.raises(ValueError, match=refused(times.dtype)):
                write_events(tmp_path / f"{times.dtype}.csv", times, [1, 2, 3])
            write_events(tmp_path / f"{times.dtype}.csv", times.astype("datetime64[us]").astype(np.int64), [1, 2, 3])
        write_events(tmp_path / "int64.csv", us, [1, 2, 3])
        texts = {p.read_text() for p in tmp_path.iterdir()}
        assert len(texts) == 1 and "1969-01-01T00:00:00.000005Z,X" in texts.pop()
        seconds = (us[:2] // 10**6).astype("datetime64[s]")
        write_events(tmp_path / "s.csv", seconds.astype("datetime64[us]").astype(np.int64), [1, 2])
        assert (tmp_path / "s.csv").read_bytes() == b"peak_time,class\r\n1970-01-01T00:00:00Z,C\r\n1970-01-01T01:00:00Z,M\r\n"

    def test_read_events_traced_peak(self, tmp_path):
        """The reference chain's 29,695 events, one range: decoding the stamps a block at a time traces a peak of
        about 5.1 MB, where casting each whole column once per stamp form traced 11.2 MB."""
        peak_us = grid_us(T0) + 36 * 3600 * 10**6 + 37 * GRID_US * np.arange(29_695, dtype=np.int64)
        path = tmp_path / "events.csv"
        write_events(path, peak_us, np.arange(29_695) % 3 + 1)
        assert path.stat().st_size < pipeline._SPLIT_BYTES
        read_events(path)  # so that any lazy import happens outside the trace
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            back_us, _ = read_events(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert back_us.tolist() == peak_us.tolist()
        assert peak < 6_000_000, f"traced peak {peak / 1e6:.2f} MB"


class TestArrayFormsMatchOracles:
    """Vectorized labeling, channel policy and the samples CSV agree exactly with per-row forms."""

    us_72h = 72 * 3600 * 10**6
    # An event sits at a row's time, at the window's end, one microsecond to
    # either side of either, or anywhere from a window before to two after.
    event_offsets = st.one_of(
        st.sampled_from([0, -1, 1, us_72h, us_72h - 1, us_72h + 1]),
        st.integers(-us_72h, 3 * us_72h),
    )

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(
        n=st.integers(1, 40),
        spacing_steps=st.sampled_from([1, 37]),
        horizon_hours=st.sampled_from([72.0, 72.0000001, 1.5]),
        events=st.lists(st.tuples(st.integers(0, 39), event_offsets, st.integers(0, 3)), max_size=60),
    )
    def test_label_samples_equals_brute_force(self, n, spacing_steps, horizon_hours, events):
        step = timedelta(hours=2 * spacing_steps)
        evs = columns([(T0 + (row % n) * step + timedelta(microseconds=us), c) for row, us, c in events])
        got = label_samples(make_table(range(n), step_hours=2 * spacing_steps), *evs, horizon_hours)
        want = [int(label_max_class(T0 + i * step, *evs, horizon_hours)) for i in range(n)]
        assert got.tolist() == want

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(
        start=st.sampled_from([datetime(1901, 3, 4, tzinfo=UTC), datetime(1969, 12, 31, 20, tzinfo=UTC), T0]),
        events=st.lists(
            st.tuples(
                st.integers(0, 9),
                event_offsets | event_offsets.map(lambda us: us - us % 10**6),  # whole seconds too
                st.integers(0, 3),
                st.integers(-23 * 60 - 59, 23 * 60 + 59),  # the UTC offset, in minutes, a file may carry
            ),
            max_size=30,
        ),
    )
    def test_events_csv_round_trip(self, tmp_path_factory, start, events):
        table = make_table(range(10), start=start)
        peaks = [start + row * timedelta(hours=2) + timedelta(microseconds=us) for row, us, _, _ in events]
        peak_us, ranks = columns([(t, c) for t, (_, _, c, _) in zip(peaks, events)])
        labels = label_samples(table, peak_us, ranks)

        path = tmp_path_factory.mktemp("csv") / "events.csv"
        write_events(path, peak_us, ranks)
        stamps = [line.split(",")[0] for line in path.read_text().splitlines()[1:]]
        assert [len(s) for s in stamps] == [20 if us % 10**6 == 0 else 27 for us in peak_us.tolist()]
        # A file written elsewhere, in local offsets, reads back to the same columns.
        offsets = path.with_name("offsets.csv")
        offsets.write_text("peak_time,class\n" + "".join(
            f"{t.astimezone(timezone(timedelta(minutes=m))).isoformat()},{FlareClass(c).name}\n"
            for t, (_, _, c, m) in zip(peaks, events)
        ))
        for back_us, back_ranks in (read_events(path), read_events(offsets)):
            assert back_us.dtype == np.int64 and back_ranks.dtype == np.int8
            assert back_us.tolist() == peak_us.tolist() and back_ranks.tolist() == ranks.tolist()
            assert np.array_equal(label_samples(table, back_us, back_ranks), labels)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(n=st.integers(0, 30), dim=st.integers(1, 25), seed=st.integers(0, 2**32 - 1))
    def test_channel_policy_equals_row_loop(self, n, dim, seed):
        rng = np.random.default_rng(seed)
        missing = rng.integers(0, 5, n)
        masks = rng.random((n, 10)).argsort(axis=1) >= missing[:, None]  # exactly `missing` channels off
        feats = rng.standard_normal((n, dim))
        feats[rng.random((n, dim)) < 0.2] = -0.0
        labels = rng.integers(0, 4, n)
        table = SampleTable([f"s{i}" for i in range(n)], grid_us(T0) + GRID_US * np.arange(n), masks, feats)

        kept, kept_labels, excluded = apply_channel_policy(table, labels)
        rows, want_feats, want_excluded = channel_policy_loop(masks, feats)
        assert excluded == want_excluded and kept.ids.tolist() == [f"s{i}" for i in rows]
        assert np.array_equal(kept.features.view(np.int64), want_feats.view(np.int64))  # -0.0 kept, +0.0 filled
        assert np.array_equal(kept.mask, masks[rows]) and np.array_equal(kept_labels, labels[rows])
        assert np.array_equal(kept.times, table.times[rows])

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(n=st.integers(0, 30), dim=st.integers(1, 25), seed=st.integers(0, 2**32 - 1))
    def test_channel_policy_labels_and_order_equal_take_first(self, n, dim, seed):
        """The policy given a row order gathers what take, then the policy give."""
        rng = np.random.default_rng(seed)
        masks = rng.random((n, 10)) >= rng.integers(0, 5, n)[:, None] / 10
        feats = rng.standard_normal((n, dim))
        labels, order = rng.integers(0, 4, n), rng.permutation(n)
        table = SampleTable([f"s{i}" for i in range(n)], grid_us(T0) + GRID_US * np.arange(n), masks, feats)

        got, got_labels, got_excluded = apply_channel_policy(table, labels, order)
        want, want_labels, want_excluded = apply_channel_policy(select_rows(table, order), labels[order])
        assert got_excluded == want_excluded
        assert (got_labels.dtype, got_labels.tobytes()) == (want_labels.dtype, want_labels.tobytes())
        # A table kept whole, in order and with no channel missing, shares its columns (test_unchanged_table_...).
        unchanged = got_excluded == 0 and (order == np.arange(n)).all() and masks.all()
        for g, w in zip(table_columns(got), table_columns(want)):
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())
            assert not g.flags.writeable and (unchanged or not any(np.shares_memory(g, c) for c in table_columns(table)))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data(), n=st.integers(1, 15), dim=st.integers(1, 6))
    def test_samples_csv_round_trip(self, tmp_path_factory, data, n, dim):
        values = st.sampled_from([0.0, -0.0]) | st.floats(allow_nan=False, allow_infinity=False)
        feats = np.array(data.draw(st.lists(values, min_size=n * dim, max_size=n * dim)))
        masks = np.array(data.draw(st.lists(st.booleans(), min_size=10 * n, max_size=10 * n))).reshape(n, 10)
        steps = data.draw(st.lists(st.integers(-300_000, 300_000), min_size=n, max_size=n))
        ids = [f"r;'é {i}" for i in range(n)]  # no field is quoted: an id holds anything but , " CR LF NUL \x1c-\x1f
        table = SampleTable(ids, grid_us(T0) + GRID_US * np.array(steps), masks, feats.reshape(n, dim))

        path = tmp_path_factory.mktemp("csv") / "samples.csv"
        write_samples(path, table)
        back = read_samples(path)
        assert back.ids.tolist() == ids and np.array_equal(back.times, table.times)
        assert np.array_equal(back.mask, masks)
        assert np.array_equal(back.features.view(np.int64), table.features.view(np.int64))


def read_or_error(read, path, *args):
    """What ``read`` gives for ``path``: its result, or its DataFileError's
    message; a warning on the way is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return read(path, *args)
        except DataFileError as exc:
            return str(exc)


def assert_same_id_classes(path, headers):
    """The id-class reader and its row oracle give ``path`` the same columns or the same message."""
    got = read_or_error(pipeline._read_id_classes, path, *headers)
    want = read_or_error(read_id_classes_rows, path, *headers)
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return
    assert got[0].tolist() == want[0]
    for g, w in zip(got[1:], want[1:]):
        assert g is w is None or (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


def assert_same_samples(got, want):
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return
    assert got.ids.tolist() == want.ids.tolist() and np.array_equal(got.times, want.times)
    assert np.array_equal(got.mask, want.mask) and got.features.shape == want.features.shape
    assert np.array_equal(got.features.view(np.int64), want.features.view(np.int64))


# TestCsvMatchesRowOracles' cases also run from TestCsvMatchesRowOraclesSplit;
# derandomized, they replay nothing from the example database.
SPLIT_TOO = [HealthCheck.differing_executors]


class TestCsvMatchesRowOracles:
    """write_samples, read_samples and the id-class reader against csv.writer
    and the per-row reader loops of ``tests/oracles.py``: the same bytes, the
    same columns, and for a file with one fault the same line and message."""

    ids = st.text(
        st.sampled_from([",", '"', "\r", "\n", " ", "a", "é"])
        | st.characters(exclude_characters="\x00", exclude_categories=("Cs",)),
        max_size=4,
    )
    # -0.0, subnormals, and both sides of where repr switches to an exponent
    edge_floats = st.sampled_from([
        0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
        1e16, -1e16, 9999999999999998.0, 1.0000000000000002e16,
        1e-05, -1e-05, 1.0000000000000001e-05, 9.999999999999999e-06, 0.0001, 1.7976931348623157e308,
    ])
    floats = edge_floats | st.floats(allow_nan=False, allow_infinity=False)
    # Grid steps: 1901, around the epoch, around 2038-01-19, 2100, and the ends of the datetime range.
    steps = st.sampled_from([-302_424, -2, -1, 0, 298_261, 298_262, 569_784, -8_629_944, 35_194_763])
    steps |= st.integers(-330_000, 600_000)

    @settings(max_examples=80, derandomize=True, deadline=None, suppress_health_check=SPLIT_TOO)
    @given(data=st.data(), n=st.integers(0, 12), dim=st.integers(0, 4), block=st.sampled_from([1, 2, 3, 4096]))
    def test_write_samples_bytes_and_read_columns(self, tmp_path_factory, data, n, dim, block):
        ids = data.draw(st.lists(self.ids, min_size=n, max_size=n))
        steps = data.draw(st.lists(self.steps, min_size=n, max_size=n))
        feats = data.draw(st.lists(self.floats, min_size=n * dim, max_size=n * dim))
        masks = data.draw(st.lists(st.booleans(), min_size=10 * n, max_size=10 * n))
        table = SampleTable(
            ids, GRID_US * np.array(steps, dtype=np.int64), np.reshape(masks, (n, 10)), np.reshape(feats, (n, dim))
        )
        d = tmp_path_factory.mktemp("csv")
        if any(c in sid for sid in table.ids.tolist() for c in ',"\r\n\x1c\x1d\x1e\x1f'):  # out of the one dialect
            with pytest.raises(ValueError, match="cannot be written"):
                write_samples(d / "samples.csv", table)
            return
        write_samples_rows(d / "rows.csv", table)
        if len(set(ids)) < n:  # the writer refuses a repeated id; the readers reject the row writer's file alike
            with pytest.raises(ValueError, match=r"^id .* cannot be written twice"):
                write_samples(d / "samples.csv", table)
            assert not (d / "samples.csv").exists()
            assert_same_samples(read_or_error(read_samples, d / "rows.csv"), read_or_error(read_samples_rows, d / "rows.csv"))
            return
        with mock.patch.object(pipeline, "_WRITE_BLOCK_ROWS", block):
            write_samples(d / "samples.csv", table)
        assert (d / "samples.csv").read_bytes() == (d / "rows.csv").read_bytes()
        assert_same_samples(read_or_error(read_samples, d / "samples.csv"), read_or_error(read_samples_rows, d / "samples.csv"))

    # Stamp renderings of one UTC instant that the readers accept.
    stamp_forms = [
        lambda t: t.isoformat().replace("+00:00", "Z"),
        lambda t: t.isoformat(),
        lambda t: t.astimezone(timezone(timedelta(hours=5, minutes=30))).isoformat(),
        lambda t: t.astimezone(timezone(timedelta(hours=-11))).isoformat(),
        lambda t: t.isoformat(timespec="microseconds").replace("+00:00", "Z"),
        lambda t: f" {t.isoformat().replace('+00:00', 'Z')} ",
        lambda t: t.isoformat(sep=" ").replace("+00:00", "Z"),
    ]

    @settings(max_examples=80, derandomize=True, deadline=None, suppress_health_check=SPLIT_TOO)
    @given(rows=st.lists(st.tuples(st.integers(-330_000, 600_000), st.integers(0, 6)), min_size=1, max_size=12))
    def test_mixed_stamp_forms_read_like_row_loop(self, tmp_path_factory, rows):
        lines = ["id,timestamp,mask,f0"]
        for i, (step, form) in enumerate(rows):
            lines.append(f"r{i},{self.stamp_forms[form](EPOCH + timedelta(hours=2 * step))},1111111111,{i}.5")
        path = tmp_path_factory.mktemp("csv") / "samples.csv"
        path.write_text("\n".join(lines) + "\n")
        got = read_or_error(read_samples, path)
        assert_same_samples(got, read_samples_rows(path))
        assert got.times.tolist() == [GRID_US * step for step, _ in rows]

    sample_faults = {
        "mask": (2, ["111111111", "11111111x1", "", "1111111111 1"]),
        "stamp": (1, [
            "2020-13-01T00:00:00Z", "2020-02-30T00:00:00Z", "2020-01-01T24:00:00Z", "2016-12-31T23:59:60Z",
            "0000-01-01T00:00:00Z", "-001-01-01T00:00:00Z", "2020-01-01T00:00+01Z", "not-a-time", "",
            "2020-01-01T00:00:00", "0001-01-01T00:00:00+01:00", "9999-12-31T23:00:00-01:00", "２020-01-01T00:00:00Z",
        ]),
        "off-grid": (1, [
            "2020-01-01T01:00:00Z", "2020-01-01T00:00:01Z", "2020-01-01T00:00:00.5Z", "2020-01-01T02:00:00+01:00",
        ]),
        "float": (3, ["abc", "", "1.0.0", "nan", "inf", "-inf", "0x1p3"]),
    }

    @settings(max_examples=120, derandomize=True, deadline=None, suppress_health_check=SPLIT_TOO)
    @given(
        n=st.integers(2, 8),
        data=st.data(),
        kind=st.sampled_from(["mask", "stamp", "off-grid", "float", "duplicate id", "width"]),
    )
    def test_single_fault_samples_name_same_line_and_message(self, tmp_path_factory, n, data, kind):
        table = make_table(range(n), features=np.arange(2.0 * n).reshape(n, 2))
        d = tmp_path_factory.mktemp("csv")
        write_samples_rows(d / "good.csv", table)
        lines = (d / "good.csv").read_text().splitlines()
        row = data.draw(st.integers(1, n - 1))
        fields = lines[row + 1].split(",")
        if kind == "duplicate id":
            fields[0] = f" s{data.draw(st.integers(0, row - 1)):03d}"
        elif kind == "width":
            fields = fields[:-1]
        else:
            column, values = self.sample_faults[kind]
            fields[column] = data.draw(st.sampled_from(values))
        lines[row + 1] = ",".join(fields)
        path = d / "samples.csv"
        path.write_text("\n".join(lines) + "\n")
        got = read_or_error(read_samples, path)
        assert isinstance(got, str) and got.startswith(f"{path}:{row + 2}: ")
        assert got == read_or_error(read_samples_rows, path)

    headers = (["id", "label"], ["id", "p_o", "p_c", "p_m", "p_x"])

    @settings(max_examples=120, derandomize=True, deadline=None, suppress_health_check=SPLIT_TOO)
    @given(
        hard=st.booleans(),
        names=st.lists(st.sampled_from(["O", "C", "M", "X", " x", "m ", "c"]), min_size=1, max_size=8),
        fault=st.sampled_from([None, "class", "probability", "duplicate id", "width"]),
        data=st.data(),
    )
    def test_id_class_files_read_like_row_loop(self, tmp_path_factory, hard, names, fault, data):
        n = len(names)
        probs = np.random.default_rng(n).dirichlet(np.ones(4), n).tolist()
        rows = [[f"s{i}", name] if hard else [f"s{i}"] + [repr(v) for v in p] for i, (name, p) in enumerate(zip(names, probs))]
        row = data.draw(st.integers(0, n - 1))
        if fault == "class" and hard:
            rows[row][1] = data.draw(st.sampled_from(["Q", "", "XX", "0"]))
        elif fault == "probability" and not hard:
            rows[row][1 + data.draw(st.integers(0, 3))] = data.draw(st.sampled_from(["-0.1", "0.9", "nan", "inf", "abc", ""]))
        elif fault == "duplicate id" and row > 0:
            rows[row][0] = f"s{data.draw(st.integers(0, row - 1))} "
        elif fault == "width":
            rows[row].append("1")
        else:
            fault = None
        path = tmp_path_factory.mktemp("csv") / "preds.csv"
        path.write_text(",".join(self.headers[not hard]) + "\n" + "".join(",".join(r) + "\n" for r in rows))
        got = read_or_error(pipeline._read_id_classes, path, *self.headers)
        want = read_or_error(read_id_classes_rows, path, *self.headers)
        if fault is not None:
            assert isinstance(got, str) and got.startswith(f"{path}:{row + 2}: ") and got == want
            return
        assert got[0].tolist() == want[0] and (got[1] is None) == (want[1] is None) == (not hard)
        if hard:
            assert got[1].dtype == np.int8 and got[1].tolist() == want[1].tolist()
        else:
            assert np.array_equal(got[2].view(np.int64), want[2].view(np.int64))

    # Where np.loadtxt and the row oracle's split at commas and float() may part ways:
    # each file must give what the row oracle gives, its columns or its fault.
    sample_rows = ["s0,2020-01-01T00:00:00Z,1111111111,0.5,1.0", "s1,2020-01-01T02:00:00Z,0101010101,0.25,2.0",
                   "s2,2020-01-01T04:00:00Z,1111111111,-3.5,4.0"]
    number_texts = ["1_0", "１", "١.5", "\xa01.5\xa0", "　1.5", " 1.5\t", "Infinity", "-Infinity", "nan",
                    "+nan", "iNf", "\x1c1.5", "1.5\x1f", "1e500", "1e-400", "0x1p3", "+1.5", "1.", ".5", "1e5"]
    samples_divergences = {
        **{f"number {t!r}": (1, 3, t) for t in number_texts},
        **{f"stamp {t!r}": (1, 1, t) for t in [
            "2020-01-01T03:00:00+01:00", "2020-01-01T00:00:00-02:00", "2020-01-01T02:00:00.000000Z",
            " 2020-01-01T02:00:00Z ", "2020-01-01 02:00:00Z", "2020-01-01T02:00:00+00:00",
        ]},
        **{f"id {t[:12]!r}..{len(t)}": (1, 0, t) for t in ["x" * 65, "y" * 300, " s9 ", "\ts9　", "s9" + " " * 70]},
        "id over the field limit": (1, 0, "z" * 200_000),
        "number over the field limit": (1, 4, " " * 200_000 + "2.0"),
        "mask padded": (2, 2, " 1111111111\t"),
        # A NUL, which a numpy str array drops from the end of a text.
        **{f"mask {t!r}": (1, 2, t) for t in ["111111111\x00", "1111111111\x00", "11111\x001111", "11111\x0011111"]},
        **{f"stamp {t!r}": (1, 1, t) for t in ["2020-01-01T02:00:00Z\x00", "2020-01-01T02:00:00\x00+00:00"]},
    }
    line_divergences = {
        "whitespace-only line": "{0}\n \n{1}\n{2}\n",
        "tab-only line": "{0}\n{1}\n\t\n{2}\n",
        "nbsp-only line": "{0}\n\xa0\n{1}\n{2}\n",
        "trailing comma": "{0}\n{1},\n{2}\n",
        "lone CR inside a row": "{0}\n{1}\r{2}\n",
        "lone CR row ends": "{0}\r{1}\r{2}\r",
        "CR CR LF": "{0}\r\r\n{1}\r\n{2}\r\n",
        "blank CRLF lines": "\r\n{0}\r\n\r\n{1}\r\n\n{2}",
        "header only": "",
        "header only, blank lines": "\n\r\n\n",
        "one row": "{1}\n",
        "one row, no line end": "{1}",
    }

    @pytest.mark.parametrize("case", sorted(samples_divergences) + sorted(line_divergences))
    def test_samples_divergences_read_like_row_loop(self, tmp_path, case):
        rows = [r.split(",") for r in self.sample_rows]
        if case in self.samples_divergences:
            row, column, text = self.samples_divergences[case]
            rows[row][column] = text
            body = "".join(",".join(r) + "\n" for r in rows)
        else:
            body = self.line_divergences[case].format(*(",".join(r) for r in rows))
        path = tmp_path / "samples.csv"
        path.write_text("id,timestamp,mask,f0,f1\n" + body, newline="")
        assert_same_samples(read_or_error(read_samples, path), read_or_error(read_samples_rows, path))

    @pytest.mark.parametrize("case", sorted(line_divergences))
    @pytest.mark.parametrize("hard", [True, False], ids=["labels", "probabilities"])
    def test_id_class_divergences_read_like_row_loop(self, tmp_path, case, hard):
        rows = ["a,X", " b ,m", "c,O"] if hard else ["a,0.25,0.25,0.25,0.25", " b ,1,0,0,0", "c,0.5,0.5,0,\xa00"]
        path = tmp_path / "preds.csv"
        path.write_text(",".join(self.headers[not hard]) + "\n" + self.line_divergences[case].format(*rows), newline="")
        assert_same_id_classes(path, self.headers)

    @pytest.mark.parametrize("name", ["X\x00", " m\x00", "\x00X"])
    def test_nul_in_class_name_read_like_row_loop(self, tmp_path, name):
        labels, events = tmp_path / "labels.csv", tmp_path / "events.csv"
        labels.write_text(f"id,label\na,X\nb,{name}\nc,O\n")
        events.write_text(f"peak_time,class\n2020-01-01T00:00:00Z,X\n2020-01-01T02:00:00Z,{name}\n")
        assert_same_id_classes(labels, self.headers)
        got = read_or_error(read_events, events)
        assert got == read_or_error(read_events_rows, events) == f"{events}:3: '\\x00' is not allowed: {DIALECT}"

    # Rows whose sum is near the bound of 1e-6, on either side.
    near_bound = [
        "0.2500009", "0.2500011", "0.250001", "0.2500009999999999", "0.2500010000000001", "0.24999900000000002",
    ]

    @pytest.mark.parametrize(
        "row", [f"b,0,0,0,{t}" for t in number_texts] + [f"b,0.25,0.25,0.25,{t}" for t in near_bound]
    )
    def test_probability_numbers_read_like_row_loop(self, tmp_path, row):
        path = tmp_path / "preds.csv"
        path.write_text(f"id,p_o,p_c,p_m,p_x\na,0.25,0.25,0.25,0.25\n{row}\nc,1,0,0,0\n")
        assert_same_id_classes(path, self.headers)

    @pytest.mark.parametrize("header", ["id\r,label", "id,label\r\r", "id,la\rbel", " ID , Label "])
    def test_header_line_ends_read_like_row_loop(self, tmp_path, header):
        path = tmp_path / "labels.csv"
        path.write_text(f"{header}\na,X\nb,O\n", newline="")
        assert_same_id_classes(path, self.headers)

    @pytest.mark.parametrize(
        "data", [b"id,label\na,X\nb\xff,O\n", b"id,lab\xe9l\na,X\n", b"id,label\na,X\nb\xc3\xa9,O\n"]
    )
    def test_undecodable_bytes_read_like_row_loop(self, tmp_path, data):
        path = tmp_path / "labels.csv"
        path.write_bytes(data)
        assert_same_id_classes(path, self.headers)

    # Event stamps the readers accept, and stamps and class names they reject.
    bad_event_stamps = [
        "2020-13-01T00:00:00Z", "2020-02-30T00:00:00.000000Z", "0000-01-01T00:00:00Z", "0000-01-01T00:00:00.000000Z",
        "2020-01-01T00:00:00.00000xZ", "2020-01-01T24:00:00.000000Z", "2020-01-01T00:00:00", "not-a-time", "",
        "0001-01-01T00:00:00+01:00", "２020-01-01T00:00:00Z", "2020-01-01T00:00:00.０００000Z",
    ]

    @settings(max_examples=120, derandomize=True, deadline=None, suppress_health_check=SPLIT_TOO)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(-60 * 10**15, 250 * 10**15) | st.integers(-10**7, 10**7),
                st.integers(0, len(stamp_forms) - 1),
                st.sampled_from(["O", "C", "M", "X", " x", "m ", "c"]),
            ),
            min_size=1, max_size=10,
        ),
        fault=st.none() | st.tuples(
            st.integers(0, 9), st.sampled_from([(0, t) for t in bad_event_stamps] + [(1, "Q"), (1, ""), (1, "XX")])
        ),
    )
    def test_events_read_like_row_loop(self, tmp_path_factory, rows, fault):
        lines = [[self.stamp_forms[form](EPOCH + timedelta(microseconds=us)), name] for us, form, name in rows]
        if fault is not None:
            row, (column, text) = fault
            lines[row % len(lines)][column] = text
        path = tmp_path_factory.mktemp("csv") / "events.csv"
        path.write_text("peak_time,class\n" + "".join(",".join(r) + "\n" for r in lines))
        got, want = read_or_error(read_events, path), read_or_error(read_events_rows, path)
        if isinstance(got, str) or isinstance(want, str):
            assert got == want
            return
        assert got[0].dtype == np.int64 and got[1].dtype == np.int8
        assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()


def split_everything(monkeypatch, cpus=2):
    """Make every CSV file worth ``cpus`` processes, whatever the host has."""
    monkeypatch.setattr(pipeline, "_SPLIT_BYTES", 1)
    monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def no_child_left():
    """True once no child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block after ``seconds``, so that a worker
    that is never joined fails the test instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestCsvMatchesRowOraclesSplit(TestCsvMatchesRowOracles):
    """The same cases with every file written and read by three forked
    workers: the same bytes, the same columns or the same DataFileError."""

    @pytest.fixture(autouse=True, scope="class")
    def split(self):
        with pytest.MonkeyPatch.context() as monkeypatch, deadline(600):
            split_everything(monkeypatch, cpus=3)
            yield


class TestCsvMatchesRowOraclesRanges(TestCsvMatchesRowOracles):
    """The same cases read in one process in ranges of about one line each (``_SPLIT_BYTES`` of 1):
    the same bytes, the same columns or the same DataFileError."""

    @pytest.fixture(autouse=True, scope="class")
    def ranges(self):
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(pipeline, "_SPLIT_BYTES", 1)
            monkeypatch.setattr(pipeline, "_processes", lambda size: 1)
            yield


class TestSplitCsv:
    """Reading a file in byte ranges cut after LF (one line each, unless a test sets the range size) by two
    forked workers: the row oracle's columns, or its fault, named from the range that holds it."""

    @pytest.fixture(autouse=True)
    def split(self, monkeypatch):
        split_everything(monkeypatch)
        with deadline(60):
            yield

    headers = (["id", "label"], ["id", "p_o", "p_c", "p_m", "p_x"])

    def read_both(self, path):
        """The split read and the row oracle's, as columns or a message."""
        got = read_or_error(pipeline._read_id_classes, path, *self.headers)
        want = read_or_error(read_id_classes_rows, path, *self.headers)
        if isinstance(got, str) or isinstance(want, str):
            assert got == want
        else:
            assert got[0].tolist() == want[0] and got[1].tolist() == want[1].tolist()
        return got

    @pytest.mark.parametrize("pad", range(12))
    def test_boundary_anywhere_in_crlf_line(self, tmp_path, pad, monkeypatch):
        # A range runs from 19 bytes into the body to the next LF. Padding the first id moves that byte back
        # across a line: onto its start (just after the CRLF before it), its LF, its CR and into its fields.
        monkeypatch.setattr(pipeline, "_SPLIT_BYTES", 20)
        rows = [f"{' ' * pad}s00000,X"] + [f"s{i:05d},{'OCMX'[i % 4]}" for i in range(1, 9)]
        path = tmp_path / "labels.csv"
        path.write_bytes(("id,label\r\n" + "".join(r + "\r\n" for r in rows)).encode())
        assert self.read_both(path)[0].tolist() == [f"s{i:05d}" for i in range(9)]

    @pytest.mark.parametrize("pad", range(6))
    def test_blank_lines_at_boundary(self, tmp_path, pad):
        path = tmp_path / "labels.csv"
        path.write_bytes(f"id,label\r\n{' ' * pad}a,X\r\nb,O\r\n\r\n\r\n\n\r\nc,M\r\nd,C\r\n".encode())
        assert self.read_both(path)[0].tolist() == ["a", "b", "c", "d"]

    def test_duplicate_across_ranges_names_lines(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("id,label\na,X\nb,O\nc,M\nd,C\n b ,X\nf,O\n")
        assert self.read_both(path) == f"{path}:6: duplicate id 'b' (first on line 3)"

    @pytest.mark.parametrize("blank", ["", "\n\r\n", "\n" * 9])
    def test_duplicate_across_ranges_after_blank_lines_names_lines(self, tmp_path, blank):
        # Blank lines, which np.loadtxt skips, sit before both rows and in the second range only.
        path = tmp_path / "labels.csv"
        path.write_text(f"id,label\n{blank}a,X\nb,O\nc,M\nd,C\n{blank}e,X\n{blank} b ,X\nf,O\n")
        k = blank.count("\n")
        assert self.read_both(path) == f"{path}:{7 + 3 * k}: duplicate id 'b' (first on line {3 + k})"

    @pytest.mark.parametrize("fault", ["a,Q", "a,1", "a,X,1", "\x00,X"], ids=["class", "probability", "width", "nul"])
    def test_fault_in_last_range(self, tmp_path, fault):
        path = tmp_path / "labels.csv"
        path.write_text("id,label\n" + "".join(f"s{i},X\n" for i in range(8)) + fault + "\n")
        assert self.read_both(path).startswith(f"{path}:10: ")

    @pytest.mark.parametrize("line", [0, 1, 4, 8])
    def test_quote_anywhere_names_its_line(self, tmp_path, line):
        lines = ["id,label"] + [f"s{i},X" for i in range(8)]
        lines[line] = '"' + lines[line].replace(",", '",', 1)
        path = tmp_path / "labels.csv"
        path.write_text("\n".join(lines) + "\n")
        assert self.read_both(path) == f"{path}:{line + 1}: '\"' is not allowed: {DIALECT}"

    @pytest.mark.parametrize(
        "ends, line", [("\r", 1), ("\r|\n", 1), ("\n|\r", 2)], ids=["cr", "cr-header", "cr-after-header"]
    )
    def test_cr_only_line_ends(self, tmp_path, ends, line):
        # The header's line end, then every other one: the first CR not followed by LF names its line.
        first, rest = (ends.split("|") * 2)[:2]
        path = tmp_path / "labels.csv"
        path.write_bytes(("id,label" + first + "".join(f"s{i},M" + rest for i in range(8))).encode())
        assert self.read_both(path) == f"{path}:{line}: '\\r' is not allowed: {DIALECT}"

    def test_samples_split_equal_row_oracle(self, tmp_path):
        table, _ = gen_synthetic(500, [0.25] * 4, seed=3, feature_dim=3)
        path = tmp_path / "samples.csv"
        write_samples(path, table)
        write_samples_rows(tmp_path / "rows.csv", table)
        assert path.read_bytes() == (tmp_path / "rows.csv").read_bytes()
        assert_same_samples(read_samples(path), read_samples_rows(path))

    def test_no_worker_left_behind(self, tmp_path):
        threads = threading.active_count()
        table, _ = gen_synthetic(300, [0.25] * 4, seed=4, feature_dim=2)
        write_samples(tmp_path / "samples.csv", table)
        read_samples(tmp_path / "samples.csv")
        lines = (tmp_path / "samples.csv").read_text().splitlines()
        lines[-1] = lines[-1].replace("Z,", "Q,")
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFileError, match=r"bad\.csv:301: "):
            read_samples(tmp_path / "bad.csv")
        with pytest.raises(OSError):
            write_samples(tmp_path / "missing" / "samples.csv", table)
        assert no_child_left() and threading.active_count() == threads

    def test_workers_joined_when_reader_stops_early(self):
        threads = threading.active_count()
        with pytest.raises(KeyError):
            with pipeline._in_order(abs, list(range(-50, 0)), 2) as results:
                assert next(results) == 50
                raise KeyError("stop")
        assert no_child_left() and threading.active_count() == threads

    def test_worker_that_dies_is_an_error(self):
        threads = threading.active_count()
        with pytest.raises(ChildProcessError, match="a CSV worker process ended early"):
            with pipeline._in_order(lambda item: os._exit(1) if item == 3 else item, list(range(6)), 2) as results:
                list(results)
        assert no_child_left() and threading.active_count() == threads

    def test_worker_that_dies_mid_item_is_an_error(self):
        # Worker 1 fills its pipe with the start of a 1 MiB item and blocks there, unread, until its timer kills it:
        # the pipe ends inside a frame, where the unpickler raises UnpicklingError, not EOFError. (A worker that ends
        # itself while pickling, by os._exit in a __reduce__, cuts its pipe after a whole frame: EOFError.)
        def item(k):
            if k:
                signal.signal(signal.SIGALRM, signal.SIG_DFL)
                signal.setitimer(signal.ITIMER_REAL, 0.2)
            return bytes(k)

        with pytest.raises(ChildProcessError, match="a CSV worker process ended early"):
            with pipeline._in_order(item, [0, 1 << 20], 2) as results:
                assert next(results) == b""
                time.sleep(1)
                list(results)
        assert no_child_left()

    def test_worker_that_raises_runs_none_of_the_callers_code(self, tmp_path):
        # Unless the worker leaves by os._exit, its exception unwinds into this test in the worker, too.
        ran = tmp_path / "ran"
        try:
            with pytest.raises(ChildProcessError, match="a CSV worker process ended early"):
                with pipeline._in_order(lambda item: 1 / item, [1, 0], 2) as results:
                    list(results)
        finally:
            with open(ran, "a") as fh:
                fh.write(f"{os.getpid()}\n")
        assert ran.read_text() == f"{os.getpid()}\n" and no_child_left()

    def test_text_buffered_before_the_fork_written_once(self, tmp_path):
        code = (
            "from flarecast import pipeline\n"
            "print('before')\n"  # held in the buffer of a stdout that is a file
            "with pipeline._in_order(str, list(range(4)), 2) as results:\n"
            "    print(*results)\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # which would flush each print
        env["PYTHONPATH"] = str(Path(pipeline.__file__).resolve().parents[1])
        with open(tmp_path / "out.txt", "w") as out:
            subprocess.run([sys.executable, "-c", code], stdout=out, env=env, check=True)
        assert (tmp_path / "out.txt").read_text() == "before\n0 1 2 3\n"


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """A directory of the four CSV files of one 240-row table, as the writers write them."""
    d = tmp_path_factory.mktemp("clean")
    table, labels = gen_synthetic(240, [0.4, 0.3, 0.2, 0.1], seed=5, feature_dim=3)
    write_samples(d / "samples.csv", table)
    peak_us, ranks = events_for_samples(table.times, labels)
    write_events(d / "events.csv", peak_us + np.arange(len(peak_us)) % 3 * 250_000, ranks)  # both stamp forms
    write_labels(d / "labels.csv", table.ids, labels)
    probs = np.random.default_rng(5).dirichlet(np.ones(4), len(table)).tolist()
    (d / "preds.csv").write_text("id,p_o,p_c,p_m,p_x\n" + "".join(
        f"{sid}," + ",".join(map(repr, p)) + "\n" for sid, p in zip(table.ids.tolist(), probs)
    ))
    return d


class TestBulkReads:
    """Files from the writers, parsed by np.loadtxt in one process, or line by line by 2 or 3 forked
    workers: clean ones give the row oracle's columns, and one with a single fault the row oracle's
    message and line."""

    @staticmethod
    def id_class_rows(path, *headers):
        """The row oracle's ids (as a str array) and ranks or probability rows."""
        ids, ranks, probs = read_id_classes_rows(path, *headers)
        return np.array(ids, dtype=str), ranks if probs is None else probs

    # Each file's reader, and its row oracle from tests/oracles.py.
    readers = {
        "samples.csv": (
            lambda path: dataclasses.astuple(read_samples(path)),
            lambda path: dataclasses.astuple(read_samples_rows(path)),
        ),
        "events.csv": (read_events, read_events_rows),
        "labels.csv": (read_labels, lambda path: TestBulkReads.id_class_rows(path, ["id", "label"])),
        "preds.csv": (
            lambda path: pipeline._read_id_classes(path, *TestCsvMatchesRowOracles.headers)[::2],
            lambda path: TestBulkReads.id_class_rows(path, *TestCsvMatchesRowOracles.headers),
        ),
    }

    @pytest.fixture(autouse=True, params=[1, 2, 3], ids=["1-range", "2-ranges", "3-ranges"])
    def ranges(self, request, monkeypatch):
        """Read every file in one range (these files are far below the split size), or cut it into one-line
        ranges parsed by ``param`` workers."""
        if request.param > 1:
            split_everything(monkeypatch, cpus=request.param)
        with deadline(60):
            yield

    def read_both(self, path):
        """The reader's columns or message, and the row oracle's."""
        read, oracle = self.readers[path.name]
        return read_or_error(read, path), read_or_error(oracle, path)

    @pytest.mark.parametrize("name", sorted(readers))
    def test_clean_files_read_like_row_oracle(self, clean, name):
        got, want = self.read_both(clean / name)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()

    # Faults by file: the field in a column becomes a text (a column of None adds
    # a field; a duplicate id is the first row's id with the text added).
    faults = {
        "samples.csv": {
            "mask": (2, "11111x1111"), "short mask": (2, "111111111"), "month 13": (1, "2020-13-01T00:00:00Z"),
            "off grid": (1, "2020-01-01T01:00:00Z"), "naive stamp": (1, "2020-01-01T00:00:00"), "nan": (3, "nan"),
            "not a number": (4, "abc"), "separator in a number": (3, "\x1c1.5"), "duplicate id": (0, ""),
            "nul": (0, "s\x00"), "width": (None, "1"), "quote": (0, '"s"x'),
        },
        "events.csv": {
            "stamp": (0, "2020-02-30T00:00:00.000000Z"), "year 0": (0, "0000-01-01T00:00:00Z"),
            "class": (1, "Q"), "width": (None, "X"),
        },
        "labels.csv": {"class": (1, "XX"), "duplicate id": (0, " "), "width": (None, "X"), "nul": (0, "\x00")},
        "preds.csv": {
            "negative": (1, "-0.1"), "sum": (4, "0.9"), "nan": (2, "nan"), "duplicate id": (0, "\t"),
            "width": (None, "0"),
        },
    }

    @pytest.mark.parametrize("name, fault", [(n, f) for n, fs in sorted(faults.items()) for f in sorted(fs)])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_single_fault_names_row_oracles_line(self, clean, tmp_path, name, fault, where):
        lines = (clean / name).read_text().splitlines()
        row = {"first": 1, "middle": len(lines) // 2, "last": len(lines) - 1}[where]
        column, text = self.faults[name][fault]
        if fault == "duplicate id":
            row, text = max(row, 2), lines[1].split(",")[0] + text
        fields = lines[row].split(",")
        if column is None:
            fields.append(text)
        else:
            fields[column] = text
        lines[row] = ",".join(fields)
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        got, want = self.read_both(path)
        assert isinstance(got, str) and got == want and got.startswith(f"{path}:{row + 1}: ")


class TestLandedRead:
    """Files cut into ranges of about 256 bytes, parsed in this process (one usable CPU) or by three forked
    workers (all): each range's columns land in place, in columns as long as the file has lines, which are
    then cut to the rows read."""

    @pytest.fixture(params=["one", "all"])
    def cpus(self, request, monkeypatch):
        """The CPUs the read may use, and the (ranges, processes) of each read."""
        monkeypatch.setattr(pipeline, "_SPLIT_BYTES", 256)
        usable = {0} if request.param == "one" else {0, 1, 2}
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: usable, raising=False)
        reads, in_order = [], pipeline._in_order

        def spy(func, items, processes):
            reads.append((len(items), processes))
            return in_order(func, items, processes)

        monkeypatch.setattr(pipeline, "_in_order", spy)
        with deadline(60):
            yield request.param, reads

    @pytest.mark.parametrize("name", sorted(TestBulkReads.readers))
    def test_blank_lines_in_several_ranges_read_like_row_oracle(self, clean, tmp_path, cpus, name):
        # A blank line (LF or CRLF) after every fifth row, after the header and at the end.
        lines = (clean / name).read_bytes().splitlines(keepends=True)
        blank = lambda i: b"\r\n" if i % 10 == 5 else b"\n" if i % 5 == 0 else b""
        text = b"".join(line + blank(i) for i, line in enumerate(lines))
        path = tmp_path / name
        path.write_bytes(text + b"\n\r\n")
        read, oracle = TestBulkReads.readers[name]
        got, want = read(path), oracle(path)
        assert text.count(b"\n") > 1.15 * len(want[0]) and len(want[0]) == len(lines) - 1
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())
        where, reads = cpus
        assert reads[-1][0] > 5 and reads[-1][1] == (1 if where == "one" else 3)  # several ranges

    @pytest.mark.parametrize("name, early, late", [("samples.csv", "mask", "width"), ("labels.csv", "class", "width")])
    def test_faults_in_two_ranges_name_the_first(self, clean, tmp_path, cpus, name, early, late):
        # The early fault fails the check, the late one np.loadtxt: both lie in the first third of the file, so
        # that a read cutting one range per worker of three would walk that range and name the late one.
        lines = (clean / name).read_text().splitlines()
        for row, fault in ((24, early), (60, late)):
            column, text = TestBulkReads.faults[name][fault]
            fields = lines[row].split(",")
            if column is None:
                fields.append(text)
            else:
                fields[column] = text
            lines[row] = ",".join(fields)
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        read, oracle = TestBulkReads.readers[name]
        got, want = read_or_error(read, path), read_or_error(oracle, path)
        assert isinstance(got, str) and got == want and got.startswith(f"{path}:25: ")
        assert cpus[1][-1][1] == (1 if cpus[0] == "one" else 3)


class TestFaultWalk:
    """The line walk that names a range's fault finds a number at fault exactly where np.loadtxt
    finds one: float() also reads ``1_0`` and non-ASCII digits, which loadtxt does not."""

    numbers = st.lists(
        st.sampled_from([*"0123456789.eE+-_ x", "nan", "inf", "\t", "\xa0", "\u3000", "\x85", "１", "١", "\u200b"]),
        max_size=8,
    ).map("".join)

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(text=numbers)
    def test_number_at_fault_where_loadtxt_fails(self, text):
        data = f"a,{text}\n".encode()
        dtype = [("t0", object), ("v", np.float64, (1,))]
        try:
            np.loadtxt(io.StringIO(data.decode()), dtype=dtype, delimiter=",", comments=None, ndmin=1)
            reads = True
        except ValueError:
            reads = False
        try:
            fault = pipeline._walk(data, 1, 2)
        except ValueError:  # no line at fault
            fault = None
        assert (fault is None) == reads
        assert fault is None or fault == (0, f"could not convert string to float: {text!r}")


class TestMatchIds:
    """The one id join, against a per-row dict lookup."""

    ids = st.text(st.sampled_from(["a", "b", "é", "字", " "]) | st.characters(exclude_characters="\x00"), max_size=5)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_equals_dict_loop(self, data):
        keys = data.draw(st.lists(self.ids, unique=True, max_size=25))
        wanted = data.draw(st.permutations(keys))[: data.draw(st.integers(0, len(keys)))]
        for stray in data.draw(st.lists(self.ids.filter(lambda s: s not in keys), unique=True, max_size=2)):
            wanted.insert(data.draw(st.integers(0, len(wanted))), stray)
        key_arr, wanted_arr = np.array(keys, dtype=str), np.array(wanted, dtype=str)
        try:
            want = match_ids_loop(keys, wanted)
        except KeyError as exc:
            with pytest.raises(ValueError) as info:
                match_ids(key_arr, wanted_arr, "keys.csv", "wanted.csv")
            assert str(info.value) == f"id {exc.args[0]!r} in wanted.csv has no row in keys.csv"
        else:
            got = match_ids(key_arr, wanted_arr, "keys.csv", "wanted.csv")
            assert got.dtype == np.intp and got.tolist() == want

    @pytest.mark.parametrize(
        "strays",
        [{}, {8_300: "zz"}, {4_100: "s9", 8_300: "a"}, {8_999: "zz"}],
        ids=["all-found", "third-block", "second-and-third-blocks", "last-row"],
    )
    def test_blocks_equal_dict_loop(self, strays):
        # 9,000 wanted ids are verified in three blocks; the message names the first stray in wanted's order.
        rng = np.random.default_rng(5)
        keys = [f"s{i:05d}" for i in rng.permutation(9_500)]
        wanted = [keys[i] for i in rng.permutation(9_500)[:9_000]]
        for i, stray in strays.items():
            wanted[i] = stray
        key_arr, wanted_arr = np.array(keys), np.array(wanted)
        try:
            want = match_ids_loop(keys, wanted)
        except KeyError as exc:
            with pytest.raises(ValueError) as info:
                match_ids(key_arr, wanted_arr, "keys.csv", "wanted.csv")
            assert str(info.value) == f"id {exc.args[0]!r} in wanted.csv has no row in keys.csv"
            assert exc.args[0] == strays[min(strays)]
        else:
            got = match_ids(key_arr, wanted_arr, "keys.csv", "wanted.csv")
            assert got.dtype == np.intp and got.tolist() == want

    def test_no_full_length_id_copy(self):
        """47,895 seven-character ids, one side shuffled: the join traces 1.0 MB (the sort order, the positions and
        one block's temporaries), less than one copy of an id column (1.34 MB). Comparing the found keys with the
        wanted ids as whole columns traced 3.5 MB."""
        keys = np.array([f"s{i:06d}" for i in range(47_895)])
        wanted = keys[np.random.default_rng(0).permutation(len(keys))]
        match_ids(keys, wanted, "k", "w")  # so that any lazy import happens outside the trace
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = match_ids(keys, wanted, "k", "w")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.array_equal(keys[got], wanted)
        assert peak < keys.nbytes, f"traced peak {peak} B; the ids hold {keys.nbytes} B"

    def test_empty_sides(self):
        empty, one = np.array([], dtype=str), np.array(["a"])
        for keys, wanted in ((empty, empty), (one, empty)):
            got = match_ids(keys, wanted, "k", "w")
            assert got.dtype == np.intp and got.shape == (0,)
        with pytest.raises(ValueError, match="id 'a' in w has no row in k"):
            match_ids(empty, one, "k", "w")
