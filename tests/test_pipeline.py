"""Labeling windows, channel policy, chronological splits, synthetic data,
and the CSV round trips."""

import multiprocessing
import os
import signal
import threading
import warnings
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
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
from flarecast.core import EPOCH, MICROSECOND, grid_seconds
from flarecast.pipeline import (
    DEFAULT_START_TIME,
    DataFileError,
    REFERENCE_SPLIT_SIZES,
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

from oracles import (
    channel_policy_loop,
    label_max_class,
    match_ids_loop,
    read_id_classes_rows,
    read_samples_rows,
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


def make_table(rows, labels=None, mask=(True,) * 10, features=None, step_hours=2, start=T0) -> SampleTable:
    """Rows ``i`` in ``rows``: id ``s{i:03d}``, time ``start + step_hours * i``, features ``arange(10) + i``."""
    rows = np.asarray(rows)
    feats = np.arange(10, dtype=float) + rows[:, None] if features is None else features
    return SampleTable(
        [f"s{i:03d}" for i in rows],
        grid_seconds(start) + 3600 * step_hours * rows,
        np.tile(mask, (len(rows), 1)),
        feats,
        labels,
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

    @pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan"), float("inf"), 1e10, 1e15])
    def test_unusable_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon must be positive and within the datetime range"):
            label_samples(make_table([0]), *columns([event(1, FlareClass.X)]), horizon_hours=horizon)


class TestChannelPolicy:
    def test_complete_sample_kept_unchanged(self):
        table = make_table([0], labels=[FlareClass.C])
        kept, excluded = apply_channel_policy(table)
        assert excluded == 0
        assert list(kept.ids) == ["s000"] and kept.times[0] == table.times[0]
        assert np.array_equal(kept.mask, table.mask) and kept.labels[0] == FlareClass.C
        assert np.array_equal(kept.features.view(np.int64), table.features.view(np.int64))

    def test_two_missing_kept_with_zero_fill(self):
        mask = (False, False) + (True,) * 8
        table = make_table([1], labels=[FlareClass.O], mask=mask)
        kept, excluded = apply_channel_policy(table)
        assert excluded == 0
        assert tuple(kept.mask[0]) == mask
        assert np.array_equal(kept.features[0, :2], [0.0, 0.0])
        assert np.array_equal(kept.features[0, 2:], table.features[0, 2:])

    def test_three_missing_excluded(self):
        mask = (False, False, False) + (True,) * 7
        kept, excluded = apply_channel_policy(make_table([2], labels=[FlareClass.M], mask=mask))
        assert len(kept) == 0 and excluded == 1

    def test_unlabeled_excluded(self):
        kept, excluded = apply_channel_policy(make_table([3]))
        assert len(kept) == 0 and excluded == 1

    def test_block_zeroing_for_wide_features(self):
        mask = tuple(ch != 4 for ch in range(10))
        table = make_table([4], labels=[FlareClass.C], mask=mask, features=np.ones((1, 20)))
        kept, _ = apply_channel_policy(table)
        out = kept.features[0]
        assert np.array_equal(out[8:10], [0.0, 0.0])  # channel 4 owns features 8..9
        assert out.sum() == 18.0


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

    def test_reference_sizes_expressible(self):
        spec = SplitSpec(fold_count=1, sizes=REFERENCE_SPLIT_SIZES)
        fold = split_timeseries(make_table(range(47_895), features=np.zeros((47_895, 10))), spec)[0]
        assert (len(fold.train), len(fold.validation), len(fold.test)) == REFERENCE_SPLIT_SIZES

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
        a = gen_synthetic(100, [0.38, 0.35, 0.23, 0.04], seed=7, feature_dim=6)
        b = gen_synthetic(100, [0.38, 0.35, 0.23, 0.04], seed=7, feature_dim=6)
        assert np.array_equal(a.ids, b.ids) and np.array_equal(a.times, b.times)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.features, b.features)

    def test_seed_changes_output(self):
        a = gen_synthetic(50, [0.25] * 4, seed=0, feature_dim=4)
        b = gen_synthetic(50, [0.25] * 4, seed=1, feature_dim=4)
        assert any(not np.array_equal(x, y) for x, y in zip(a.features, b.features))

    def test_label_frequencies_match_targets(self):
        probs = np.array([0.38, 0.35, 0.23, 0.04])
        table = gen_synthetic(10_000, probs, seed=3, feature_dim=5)
        freq = np.bincount(table.labels, minlength=4) / 10_000
        assert np.all(np.abs(freq - probs) <= 0.02)

    def test_stratified_base_case(self):
        table = gen_synthetic(4, [0.25] * 4, seed=11, feature_dim=3)
        assert sorted(table.labels.tolist()) == [0, 1, 2, 3]

    def test_two_hour_grid_and_spacing(self):
        table = gen_synthetic(5, [0.25] * 4, seed=0, feature_dim=2, spacing_steps=37)
        assert np.all(np.diff(table.times) == 74 * 3600)
        assert table.times[0] == grid_seconds(DEFAULT_START_TIME)
        assert list(table.ids) == ["s0", "s1", "s2", "s3", "s4"]
        assert table.mask.all()

    def test_classes_overlap_but_separate(self):
        table = gen_synthetic(4000, [0.25] * 4, seed=5, feature_dim=6)
        proj = table.features.mean(axis=1)
        labels = table.labels
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
        table = gen_synthetic(300, [0.38, 0.35, 0.23, 0.04], seed=9, feature_dim=4, spacing_steps=37)
        peak_us, ranks = events_for_samples(table)
        assert peak_us.dtype == np.int64 and ranks.dtype == np.int8
        relabeled = label_samples(table, peak_us, ranks)
        assert np.array_equal(table.labels, relabeled)
        write_events(tmp_path / "events.csv", peak_us, ranks)
        assert np.array_equal(table.labels, label_samples(table, *read_events(tmp_path / "events.csv")))

    def test_quiet_samples_produce_no_events(self):
        table = gen_synthetic(50, [1.0, 0.0, 0.0, 0.0], seed=2, feature_dim=3)
        peak_us, ranks = events_for_samples(table)
        assert peak_us.shape == ranks.shape == (0,)


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
        table = gen_synthetic(20, [0.25] * 4, seed=1, feature_dim=3)
        path = tmp_path / "samples.csv"
        write_samples(path, table)
        header = path.read_text().splitlines()[0]
        assert header == "id,timestamp,mask,f0,f1,f2"
        back = read_samples(path)
        assert len(back) == 20
        assert np.array_equal(table.ids, back.ids) and np.array_equal(table.times, back.times)
        assert np.array_equal(table.mask, back.mask)
        assert np.array_equal(table.features, back.features)  # repr round-trips exactly
        assert np.all(back.labels == -1)

    def test_labels_round_trip(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_labels(path, ["a", "b"], [FlareClass.X, FlareClass.O])
        ids, ranks = read_labels(path)
        assert ids.dtype.kind == "U" and ids.tolist() == ["a", "b"]
        assert ranks.dtype == np.int8 and ranks.tolist() == [FlareClass.X, FlareClass.O]

    def test_rank_outside_classes_rejected(self, tmp_path):
        # an unlabeled row's -1 would otherwise index the last name, X
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

    @pytest.mark.parametrize("line", [1, 3])
    def test_oversized_field_names_line(self, tmp_path, line):
        rows = ["id,label", "a,X", "b,O"]
        rows[line - 1] = "x" * 200_000 + "," + rows[line - 1]
        path = tmp_path / "labels.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataFileError, match=rf"labels\.csv:{line}: field larger than field limit"):
            read_labels(path)

    def test_nul_in_id_names_line(self, tmp_path):
        # numpy str arrays drop trailing NULs, so 'a' and 'a\x00' would become one id
        path = tmp_path / "samples.csv"
        row = "2020-01-01T00:00:00Z,1111111111,0.5"
        path.write_text(f"id,timestamp,mask,f0\na,{row}\na\x00,{row}\n")
        with pytest.raises(DataFileError, match=r"samples\.csv:3: id 'a\\x00' contains a NUL character"):
            read_samples(path)

    @pytest.mark.parametrize(
        "quoted, line, message",
        [((5,), 5, "unexpected end of data"), ((5, 8), 5, "',' expected after '\"'"), ((2, 8), 2, "',' expected after '\"'")],
        ids=["unclosed", "closed-later", "first-row"],
    )
    def test_unbalanced_quote_names_line_where_row_starts(self, tmp_path, quoted, line, message):
        table = gen_synthetic(10, [0.25] * 4, seed=1, feature_dim=2)
        path = tmp_path / "samples.csv"
        write_samples(path, table)
        lines = path.read_text().splitlines()
        for i in quoted:
            lines[i - 1] = '"' + lines[i - 1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFileError) as info:
            read_samples(path)
        assert str(info.value) == f"{path}:{line}: {message}"

    def test_faults_in_multiline_rows_name_start_lines(self, tmp_path):
        # A quoted id holding LF spans two lines; a duplicate and its first
        # occurrence are both named by the line their row starts on.
        path = tmp_path / "labels.csv"
        path.write_text('id,label\n"a\nb",X\n"a\nb",O\n')
        with pytest.raises(DataFileError) as info:
            read_labels(path)
        assert str(info.value) == f"{path}:4: duplicate id 'a\\nb' (first on line 2)"
        assert read_or_error(read_id_classes_rows, path, ["id", "label"]) == str(info.value)

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
        labels = rng.integers(-1, 4, n)
        table = SampleTable([f"s{i}" for i in range(n)], grid_seconds(T0) + 7200 * np.arange(n), masks, feats, labels)

        kept, excluded = apply_channel_policy(table)
        rows, want_feats, want_excluded = channel_policy_loop(masks, feats, labels)
        assert excluded == want_excluded and kept.ids.tolist() == [f"s{i}" for i in rows]
        assert np.array_equal(kept.features.view(np.int64), want_feats.view(np.int64))  # -0.0 kept, +0.0 filled
        assert np.array_equal(kept.mask, masks[rows]) and np.array_equal(kept.labels, labels[rows])
        assert np.array_equal(kept.times, table.times[rows])

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data(), n=st.integers(1, 15), dim=st.integers(1, 6))
    def test_samples_csv_round_trip(self, tmp_path_factory, data, n, dim):
        values = st.sampled_from([0.0, -0.0]) | st.floats(allow_nan=False, allow_infinity=False)
        feats = np.array(data.draw(st.lists(values, min_size=n * dim, max_size=n * dim)))
        masks = np.array(data.draw(st.lists(st.booleans(), min_size=10 * n, max_size=10 * n))).reshape(n, 10)
        steps = data.draw(st.lists(st.integers(-300_000, 300_000), min_size=n, max_size=n))
        ids = [f'r,"{i}' for i in range(n)]  # a comma and a quote exercise CSV quoting
        table = SampleTable(ids, grid_seconds(T0) + 7200 * np.array(steps), masks, feats.reshape(n, dim))

        path = tmp_path_factory.mktemp("csv") / "samples.csv"
        write_samples(path, table)
        back = read_samples(path)
        assert back.ids.tolist() == ids and np.array_equal(back.times, table.times)
        assert np.array_equal(back.mask, masks)
        assert np.array_equal(back.features.view(np.int64), table.features.view(np.int64))
        assert np.all(back.labels == -1)


def read_or_error(read, path, *args):
    """What ``read`` gives for ``path``: its result, or its DataFileError's
    message; a warning on the way is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return read(path, *args)
        except DataFileError as exc:
            return str(exc)


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
            ids, 7200 * np.array(steps, dtype=np.int64), np.reshape(masks, (n, 10)), np.reshape(feats, (n, dim))
        )
        d = tmp_path_factory.mktemp("csv")
        with mock.patch.object(pipeline, "_WRITE_BLOCK_ROWS", block):
            write_samples(d / "samples.csv", table)
        write_samples_rows(d / "rows.csv", table)
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
        assert got.times.tolist() == [7200 * step for step, _ in rows]

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


def split_everything(monkeypatch, cpus=2):
    """Make every CSV file worth ``cpus`` processes, whatever the host has."""
    monkeypatch.setattr(pipeline, "_SPLIT_BYTES", 1)
    monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


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


class TestSplitCsv:
    """Reading a file in byte ranges cut after LF: either the ranges' columns,
    or one whole-file read that gives its exact result or error."""

    @pytest.fixture(autouse=True)
    def within_a_minute(self):
        with deadline(60):
            yield

    @pytest.fixture
    def whole_reads(self, monkeypatch):
        """Split every file in two and record the whole-file reads of this process."""
        split_everything(monkeypatch)
        real, calls = pipeline._csv_rows, []

        def spy(path, *headers, lines=None, **kwargs):
            if lines is None:
                calls.append(path)
            return real(path, *headers, lines=lines, **kwargs)

        monkeypatch.setattr(pipeline, "_csv_rows", spy)
        return calls

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
    def test_boundary_anywhere_in_crlf_line(self, tmp_path, whole_reads, pad):
        # Padding the first id moves the file's midpoint back across a line:
        # onto its start (just after the CRLF before it), its LF, its CR and
        # into its fields.
        rows = [f"{' ' * pad}s00000,X"] + [f"s{i:05d},{'OCMX'[i % 4]}" for i in range(1, 9)]
        path = tmp_path / "labels.csv"
        path.write_bytes(("id,label\r\n" + "".join(r + "\r\n" for r in rows)).encode())
        assert self.read_both(path)[0].tolist() == [f"s{i:05d}" for i in range(9)]
        assert whole_reads == []

    @pytest.mark.parametrize("pad", range(6))
    def test_blank_lines_at_boundary(self, tmp_path, whole_reads, pad):
        path = tmp_path / "labels.csv"
        path.write_bytes(f"id,label\r\n{' ' * pad}a,X\r\nb,O\r\n\r\n\r\n\n\r\nc,M\r\nd,C\r\n".encode())
        assert self.read_both(path)[0].tolist() == ["a", "b", "c", "d"]
        assert whole_reads == []

    def test_duplicate_across_ranges_names_lines(self, tmp_path, whole_reads):
        path = tmp_path / "labels.csv"
        path.write_text("id,label\na,X\nb,O\nc,M\nd,C\n b ,X\nf,O\n")
        assert self.read_both(path) == f"{path}:6: duplicate id 'b' (first on line 3)"
        assert whole_reads == [path]

    @pytest.mark.parametrize("fault", ["a,Q", "a,1", "a,X,1", "\x00,X"], ids=["class", "probability", "width", "nul"])
    def test_fault_in_last_range(self, tmp_path, whole_reads, fault):
        path = tmp_path / "labels.csv"
        path.write_text("id,label\n" + "".join(f"s{i},X\n" for i in range(8)) + fault + "\n")
        assert self.read_both(path).startswith(f"{path}:10: ")
        assert whole_reads == [path]

    @pytest.mark.parametrize("line", [0, 1, 4, 8])
    def test_quote_anywhere_reads_whole_file(self, tmp_path, whole_reads, line):
        lines = ["id,label"] + [f"s{i},X" for i in range(8)]
        lines[line] = '"' + lines[line].replace(",", '",', 1)
        path = tmp_path / "labels.csv"
        path.write_text("\n".join(lines) + "\n")
        self.read_both(path)
        assert whole_reads == [path]

    @pytest.mark.parametrize("ends", ["\r", "\r|\n", "\n|\r"], ids=["cr", "cr-header", "cr-after-header"])
    def test_cr_only_line_ends(self, tmp_path, whole_reads, ends):
        # The header's line end, then every other one; a CR-only header brings
        # a row into the bytes before the first LF.
        first, rest = (ends.split("|") * 2)[:2]
        path = tmp_path / "labels.csv"
        path.write_bytes(("id,label" + first + "".join(f"s{i},M" + rest for i in range(8))).encode())
        assert self.read_both(path)[0].tolist() == [f"s{i}" for i in range(8)]
        assert len(whole_reads) == 1

    def test_samples_split_equal_whole_read(self, tmp_path, whole_reads):
        table = gen_synthetic(500, [0.25] * 4, seed=3, feature_dim=3)
        path = tmp_path / "samples.csv"
        write_samples(path, table)
        write_samples_rows(tmp_path / "rows.csv", table)
        assert path.read_bytes() == (tmp_path / "rows.csv").read_bytes()
        assert_same_samples(read_samples(path), read_samples_rows(path))
        assert whole_reads == []

    def test_no_worker_left_behind(self, tmp_path, whole_reads):
        threads = threading.active_count()
        table = gen_synthetic(300, [0.25] * 4, seed=4, feature_dim=2)
        write_samples(tmp_path / "samples.csv", table)
        read_samples(tmp_path / "samples.csv")
        lines = (tmp_path / "samples.csv").read_text().splitlines()
        lines[-1] = lines[-1].replace("Z,", "Q,")
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFileError, match=r"bad\.csv:301: "):
            read_samples(tmp_path / "bad.csv")
        with pytest.raises(OSError):
            write_samples(tmp_path / "missing" / "samples.csv", table)
        assert whole_reads == [tmp_path / "bad.csv"]
        assert multiprocessing.active_children() == [] and threading.active_count() == threads

    def test_workers_joined_when_reader_stops_early(self):
        threads = threading.active_count()
        with pytest.raises(KeyError):
            with pipeline._in_order(abs, list(range(-50, 0)), 2) as results:
                assert next(results) == 50
                raise KeyError("stop")
        assert multiprocessing.active_children() == [] and threading.active_count() == threads

    def test_worker_that_dies_is_an_error(self):
        threads = threading.active_count()
        with pytest.raises(ChildProcessError, match="a CSV worker process ended early"):
            with pipeline._in_order(lambda item: os._exit(1) if item == 3 else item, list(range(6)), 2) as results:
                list(results)
        assert multiprocessing.active_children() == [] and threading.active_count() == threads


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

    def test_empty_sides(self):
        empty, one = np.array([], dtype=str), np.array(["a"])
        for keys, wanted in ((empty, empty), (one, empty)):
            got = match_ids(keys, wanted, "k", "w")
            assert got.dtype == np.intp and got.shape == (0,)
        with pytest.raises(ValueError, match="id 'a' in w has no row in k"):
            match_ids(empty, one, "k", "w")
