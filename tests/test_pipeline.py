"""Labeling windows, channel policy, chronological splits, synthetic data,
and the CSV round trips."""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from flarecast import (
    FlareClass,
    FlareEvent,
    Sample,
    SplitSpec,
    apply_channel_policy,
    gen_synthetic,
    label_max_class,
    label_samples,
    split_timeseries,
)
from flarecast.pipeline import (
    DataFileError,
    REFERENCE_SPLIT_SIZES,
    events_for_samples,
    read_events,
    read_labels,
    read_samples,
    write_events,
    write_labels,
    write_samples,
)

UTC = timezone.utc
T0 = datetime(2021, 10, 26, 0, 0, tzinfo=UTC)


def event(hours_after: float, cls: FlareClass) -> FlareEvent:
    return FlareEvent(T0 + timedelta(hours=hours_after), cls)


def make_sample(i: int, label=None, mask=(True,) * 10, features=None, step_hours=2) -> Sample:
    feats = np.arange(10, dtype=float) + i if features is None else features
    return Sample(f"s{i:03d}", T0 + timedelta(hours=step_hours * i), feats, mask, label)


class TestLabelMaxClass:
    def test_x_event_inside_window(self):
        # an X-class peak about 63 hours ahead labels the instant X
        assert label_max_class(T0, [event(63, FlareClass.X)]) is FlareClass.X

    def test_empty_window_defaults_to_quiet(self):
        assert label_max_class(T0, []) is FlareClass.O
        assert label_max_class(T0, [event(100, FlareClass.X)]) is FlareClass.O

    def test_maximum_over_window(self):
        events = [event(10, FlareClass.C), event(70, FlareClass.M)]
        # brute-force oracle: max class among events with 0 < t <= 72
        expected = max(
            (e.flare_class for e in events if 0 < (e.peak_time - T0).total_seconds() / 3600 <= 72),
            default=FlareClass.O,
        )
        assert label_max_class(T0, events) is expected is FlareClass.M

    def test_half_open_boundaries(self):
        assert label_max_class(T0, [event(0, FlareClass.X)]) is FlareClass.O
        assert label_max_class(T0, [event(72, FlareClass.X)]) is FlareClass.X
        assert label_max_class(T0, [event(72.0000001, FlareClass.X)]) is FlareClass.O

    def test_monotone_in_added_events(self):
        rng = np.random.default_rng(0)
        events = []
        last = FlareClass.O
        for _ in range(50):
            events.append(event(float(rng.uniform(0.1, 72)), FlareClass(int(rng.integers(4)))))
            now = label_max_class(T0, events)
            assert now >= last
            last = now

    def test_unsorted_events_handled(self):
        events = [event(70, FlareClass.M), event(10, FlareClass.C)]
        assert label_max_class(T0, events) is FlareClass.M

    def test_label_samples_matches_scalar_op(self):
        rng = np.random.default_rng(1)
        events = [event(float(rng.uniform(-50, 250)), FlareClass(int(rng.integers(4)))) for _ in range(60)]
        samples = [make_sample(i) for i in range(40)]
        batch = label_samples(samples, events)
        for s, got in zip(samples, batch):
            assert got is label_max_class(s.timestamp, events)


class TestChannelPolicy:
    def test_complete_sample_kept_unchanged(self):
        s = make_sample(0, label=FlareClass.C)
        kept, excluded = apply_channel_policy([s])
        assert excluded == 0
        assert kept[0] is s

    def test_two_missing_kept_with_zero_fill(self):
        mask = (False, False) + (True,) * 8
        s = make_sample(1, label=FlareClass.O, mask=mask)
        kept, excluded = apply_channel_policy([s])
        assert excluded == 0
        assert kept[0].channel_mask == mask
        assert np.array_equal(kept[0].features[:2], [0.0, 0.0])
        assert np.array_equal(kept[0].features[2:], s.features[2:])

    def test_three_missing_excluded(self):
        mask = (False, False, False) + (True,) * 7
        kept, excluded = apply_channel_policy([make_sample(2, label=FlareClass.M, mask=mask)])
        assert kept == [] and excluded == 1

    def test_unlabeled_excluded(self):
        kept, excluded = apply_channel_policy([make_sample(3, label=None)])
        assert kept == [] and excluded == 1

    def test_block_zeroing_for_wide_features(self):
        mask = tuple(ch != 4 for ch in range(10))
        feats = np.ones(20)
        s = make_sample(4, label=FlareClass.C, mask=mask, features=feats)
        kept, _ = apply_channel_policy([s])
        out = kept[0].features
        assert np.array_equal(out[8:10], [0.0, 0.0])  # channel 4 owns features 8..9
        assert out.sum() == 18.0


class TestSplitTimeseries:
    def test_single_fold_ratio_partition(self):
        samples = [make_sample(i) for i in range(10)]
        folds = split_timeseries(samples, SplitSpec(fold_count=1))
        assert folds[0].train == range(0, 6)
        assert folds[0].validation == range(6, 8)
        assert folds[0].test == range(8, 10)

    def test_three_folds_expand_and_stay_ordered(self):
        samples = [make_sample(i) for i in range(30)]
        folds = split_timeseries(samples, SplitSpec(fold_count=3))
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
        samples = [make_sample(i) for i in range(47_895)]
        spec = SplitSpec(fold_count=1, sizes=REFERENCE_SPLIT_SIZES)
        fold = split_timeseries(samples, spec)[0]
        assert (len(fold.train), len(fold.validation), len(fold.test)) == REFERENCE_SPLIT_SIZES

    def test_too_few_samples_rejected(self):
        samples = [make_sample(i) for i in range(2)]
        with pytest.raises(ValueError, match="too few samples"):
            split_timeseries(samples, SplitSpec(fold_count=1))
        samples = [make_sample(i) for i in range(4)]
        with pytest.raises(ValueError, match="too few samples"):
            split_timeseries(samples, SplitSpec(fold_count=3))

    def test_unsorted_rejected(self):
        samples = [make_sample(1), make_sample(0)]
        with pytest.raises(ValueError, match="sorted"):
            split_timeseries(samples, SplitSpec(fold_count=1))

    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SplitSpec(train_frac=0.5, val_frac=0.2, test_frac=0.2)


class TestGenSynthetic:
    def test_deterministic(self):
        a = gen_synthetic(100, [0.38, 0.35, 0.23, 0.04], seed=7, feature_dim=6)
        b = gen_synthetic(100, [0.38, 0.35, 0.23, 0.04], seed=7, feature_dim=6)
        for x, y in zip(a, b):
            assert x.id == y.id and x.timestamp == y.timestamp and x.label == y.label
            assert np.array_equal(x.features, y.features)

    def test_seed_changes_output(self):
        a = gen_synthetic(50, [0.25] * 4, seed=0, feature_dim=4)
        b = gen_synthetic(50, [0.25] * 4, seed=1, feature_dim=4)
        assert any(not np.array_equal(x.features, y.features) for x, y in zip(a, b))

    def test_label_frequencies_match_targets(self):
        probs = np.array([0.38, 0.35, 0.23, 0.04])
        samples = gen_synthetic(10_000, probs, seed=3, feature_dim=5)
        freq = np.bincount([int(s.label) for s in samples], minlength=4) / 10_000
        assert np.all(np.abs(freq - probs) <= 0.02)

    def test_stratified_base_case(self):
        samples = gen_synthetic(4, [0.25] * 4, seed=11, feature_dim=3)
        assert sorted(int(s.label) for s in samples) == [0, 1, 2, 3]

    def test_two_hour_grid_and_spacing(self):
        samples = gen_synthetic(5, [0.25] * 4, seed=0, feature_dim=2, spacing_steps=37)
        for a, b in zip(samples, samples[1:]):
            assert (b.timestamp - a.timestamp) == timedelta(hours=74)

    def test_classes_overlap_but_separate(self):
        samples = gen_synthetic(4000, [0.25] * 4, seed=5, feature_dim=6)
        proj = np.array([s.features.mean() for s in samples])
        labels = np.array([int(s.label) for s in samples])
        means = [proj[labels == k].mean() for k in range(4)]
        stds = [proj[labels == k].std() for k in range(4)]
        assert all(a < b for a, b in zip(means, means[1:]))  # ordered class means
        for k in range(3):  # adjacent classes overlap within ~2 sd
            assert means[k + 1] - means[k] < 2 * (stds[k] + stds[k + 1])


class TestEventsForSamples:
    def test_round_trip_with_disjoint_windows(self):
        samples = gen_synthetic(300, [0.38, 0.35, 0.23, 0.04], seed=9, feature_dim=4, spacing_steps=37)
        events = events_for_samples(samples)
        relabeled = label_samples(samples, events)
        assert [int(s.label) for s in samples] == [int(l) for l in relabeled]

    def test_quiet_samples_produce_no_events(self):
        samples = gen_synthetic(50, [1.0, 0.0, 0.0, 0.0], seed=2, feature_dim=3)
        assert events_for_samples(samples) == []


class TestCsvFormats:
    def test_events_round_trip(self, tmp_path):
        events = [event(10, FlareClass.X), event(30.0, FlareClass.C)]
        path = tmp_path / "events.csv"
        write_events(path, events)
        assert path.read_text().splitlines()[0] == "peak_time,class"
        back = read_events(path)
        assert back == events

    def test_samples_round_trip(self, tmp_path):
        samples = gen_synthetic(20, [0.25] * 4, seed=1, feature_dim=3)
        path = tmp_path / "samples.csv"
        write_samples(path, samples)
        header = path.read_text().splitlines()[0]
        assert header == "id,timestamp,mask,f0,f1,f2"
        back = read_samples(path)
        assert len(back) == 20
        for a, b in zip(samples, back):
            assert a.id == b.id and a.timestamp == b.timestamp
            assert a.channel_mask == b.channel_mask
            assert np.array_equal(a.features, b.features)  # repr round-trips exactly
            assert b.label is None

    def test_labels_round_trip(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_labels(path, ["a", "b"], [FlareClass.X, FlareClass.O])
        assert read_labels(path) == [("a", FlareClass.X), ("b", FlareClass.O)]

    def test_malformed_event_row_names_line(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("peak_time,class\n2020-01-01T00:00:00Z,X\nnot-a-time,C\n")
        with pytest.raises(DataFileError, match=r"events\.csv:3"):
            read_events(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("id,flare\na,X\n")
        with pytest.raises(DataFileError, match="header"):
            read_labels(path)

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

    def test_duplicate_sample_id_names_second_line(self, tmp_path):
        path = tmp_path / "samples.csv"
        row = "1111111111,0.5"
        path.write_text(
            f"id,timestamp,mask,f0\na,2020-01-01T00:00:00Z,{row}\na,2020-01-01T02:00:00Z,{row}\n"
        )
        with pytest.raises(DataFileError, match=r"samples\.csv:3: duplicate id 'a'"):
            read_samples(path)
