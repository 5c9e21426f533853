"""Core domain types: flare classes, the scoring-matrix climatology, confusion
counting, class weights."""

import re
from datetime import datetime, timezone

import numpy as np
import pytest

from flarecast import (
    ConfusionMatrix,
    FlareClass,
    SampleTable,
    apply_channel_policy,
    build_confusion,
    class_weights,
    gerrity_matrix,
)
from flarecast.core import grid_us

from oracles import REFERENCE_CLASS_COUNTS, REFERENCE_CONFUSION, pairs_from_matrix, ranks_from_pairs

UTC = timezone.utc


class TestFlareClass:
    def test_total_order(self):
        assert FlareClass.O < FlareClass.C < FlareClass.M < FlareClass.X

    def test_rank_bijection(self):
        for rank, name in enumerate("OCMX"):
            c = FlareClass(rank)
            assert c.name == name
            assert int(c) == rank
            assert FlareClass.from_name(name) is c
            assert FlareClass.from_name(name.lower()) is c

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown flare class"):
            FlareClass.from_name("B")


class TestProbDist:
    """The climatology a scoring matrix is built from: one probability per class."""

    def test_valid(self):
        p = gerrity_matrix([0.1, 0.2, 0.6, 0.1]).climatology
        assert p.sum() == pytest.approx(1.0)
        assert not p.flags.writeable

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match=r"sum to 1 \(got 2\.0\)"):
            gerrity_matrix([0.5, 0.5, 0.5, 0.5])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="degenerate climatology"):
            gerrity_matrix([-0.1, 0.4, 0.4, 0.3])


def table_at(*stamps, mask_width=10, features=None):
    n = len(stamps)
    return SampleTable(
        [f"s{i}" for i in range(n)],
        [grid_us(t) if isinstance(t, datetime) else t for t in stamps],
        np.ones((n, mask_width), dtype=bool),
        np.zeros((n, 4)) if features is None else features,
    )


class TestSample:
    def test_grid_alignment_enforced(self):
        with pytest.raises(ValueError, match="2-hour grid"):
            grid_us(datetime(2020, 1, 1, 3, tzinfo=UTC))
        with pytest.raises(ValueError, match="2-hour grid"):
            grid_us(datetime(2020, 1, 1, 4, 0, 0, 500_000, tzinfo=UTC))
        with pytest.raises(ValueError, match="2-hour grid"):
            table_at(grid_us(datetime(2020, 1, 1, tzinfo=UTC)) + 3_600_000_000)
        table = table_at(datetime(2020, 1, 1, 4, tzinfo=UTC))
        assert table.times[0] == datetime(2020, 1, 1, 4, tzinfo=UTC).timestamp() * 10**6

    def test_times_in_seconds_rejected(self):
        # A table of UTC epoch seconds, the unit of sample times before they became microseconds, is off the grid.
        seconds = int(datetime(2020, 1, 1, 4, tzinfo=UTC).timestamp())
        with pytest.raises(ValueError, match=r"2-hour grid of UTC epoch microseconds; multiply times in seconds by 10\*\*6"):
            table_at(seconds, seconds + 7200)
        assert table_at(seconds * 10**6, (seconds + 7200) * 10**6).times.tolist() == [seconds * 10**6, (seconds + 7200) * 10**6]

    def test_mask_length_enforced(self):
        with pytest.raises(ValueError, match="10 channels"):
            table_at(datetime(2020, 1, 1, tzinfo=UTC), mask_width=9)

    def test_naive_timestamp_rejected(self):
        with pytest.raises(ValueError, match="UTC"):
            grid_us(datetime(2020, 1, 1))

    def test_columns_must_align(self):
        t = datetime(2020, 1, 1, tzinfo=UTC)
        with pytest.raises(ValueError, match="aligned"):
            table_at(t, t, features=np.zeros((3, 4)))
        with pytest.raises(ValueError, match="aligned"):
            apply_channel_policy(table_at(t), [0, 1])
        with pytest.raises(ValueError, match="2-d"):
            table_at(t, features=np.zeros(1))

    def test_fractional_label_rejected(self):
        # Once cast to int8 and held as M.
        with pytest.raises(ValueError, match=r"^labels must be integer class ranks, got dtype float64$"):
            apply_channel_policy(table_at(datetime(2020, 1, 1, tzinfo=UTC)), [2.7])

    @pytest.mark.parametrize("form", ["float64", "datetime64[us]", "datetime64[s]"])
    def test_times_of_another_dtype_rejected(self, form):
        # Once cast to int64 as they stood: datetime64[s] times counted seconds as microseconds.
        us = np.array([grid_us(datetime(2020, 1, 1, tzinfo=UTC))])
        times = us.astype(form) if form == "float64" else us.astype("datetime64[us]").astype(form)
        with pytest.raises(ValueError, match=rf"^times must be int64 UTC epoch microseconds, got dtype {re.escape(form)}; "):
            table_at(*times)

    def test_columns_frozen_and_copied(self):
        feats = np.zeros((1, 4))
        table = table_at(datetime(2020, 1, 1, tzinfo=UTC), features=feats)
        feats[0, 0] = 1.0
        assert table.features[0, 0] == 0.0
        for column in (table.ids, table.times, table.mask, table.features):
            assert not column.flags.writeable

    @pytest.mark.parametrize("sid", ["a\x00", "\x00", "a\x00\x00"])
    def test_id_ending_in_nul_rejected(self, sid):
        # A str array drops trailing NULs: the table would hold 'a' where it was given 'a\x00'.
        with pytest.raises(ValueError, match="cannot be written") as info:
            SampleTable([sid, "b"], [0, 7200], np.ones((2, 10), bool), np.zeros((2, 1)))
        assert repr(sid) in str(info.value)


class TestBuildConfusion:
    def test_single_diagonal_count(self):
        cm = build_confusion([FlareClass.O], [FlareClass.O])
        assert cm.counts[0, 0] == 1
        assert cm.n == 1

    def test_repeated_off_diagonal_count(self):
        cm = build_confusion([FlareClass.X] * 2, [FlareClass.C] * 2)
        assert cm.counts[3, 1] == 2
        assert cm.n == 2

    def test_reference_matrix_reconstructed(self):
        cm = build_confusion(*ranks_from_pairs(pairs_from_matrix(REFERENCE_CONFUSION)))
        assert np.array_equal(cm.counts, REFERENCE_CONFUSION)
        assert cm.n == 8306

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty evaluation set"):
            build_confusion([], [])

    def test_out_of_range_rank_rejected(self):
        for observed, predicted in (([4], [0]), ([0], [-1])):
            with pytest.raises(ValueError, match="outside 0..3"):
                build_confusion(observed, predicted)

    def test_fractional_rank_rejected(self):
        # Once cast to int64 and counted as M.
        with pytest.raises(ValueError, match=r"^observed must be integer class ranks, got dtype float64$"):
            build_confusion([2.7, 0], [2, 0])
        with pytest.raises(ValueError, match=r"^predicted must be integer class ranks, got dtype float64$"):
            build_confusion([2, 0], [2.7, 0])

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            build_confusion([0, 1], [0])

    def test_marginals_match_pair_counts(self):
        rng = np.random.default_rng(7)
        pairs = [
            (FlareClass(int(a)), FlareClass(int(b)))
            for a, b in zip(rng.integers(0, 4, 200), rng.integers(0, 4, 200))
        ]
        cm = build_confusion(*ranks_from_pairs(pairs))
        obs = np.bincount([int(a) for a, _ in pairs], minlength=4)
        assert np.array_equal(cm.observed_counts(), obs)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ConfusionMatrix(np.array([[1, 0, 0, 0]] * 3 + [[0, 0, 0, -1]]))


class TestClassWeights:
    def test_balanced_counts_give_unit_weights(self):
        assert np.allclose(class_weights((1, 1, 1, 1)).weights, 1.0)

    def test_reference_counts(self):
        w = class_weights(REFERENCE_CLASS_COUNTS).weights
        total = sum(REFERENCE_CLASS_COUNTS)
        assert w[3] == pytest.approx((total / 4) / 2131)
        assert w[0] == pytest.approx((total / 4) / 18170)
        assert w[3] == pytest.approx(5.619, abs=5e-4)
        assert w[0] == pytest.approx(0.659, abs=5e-4)

    def test_exact_proportionality(self):
        w = class_weights((2, 1, 1, 1)).weights
        assert w[0] / w[1] == pytest.approx(0.5)

    def test_invariants(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            counts = rng.integers(1, 10_000, size=4)
            w = class_weights(counts).weights
            prods = w * counts
            assert np.allclose(prods, prods[0], rtol=1e-12)
            assert float((counts / counts.sum()) @ w) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        a = class_weights((3, 5, 7, 11)).weights
        b = class_weights((6, 10, 14, 22)).weights
        assert np.array_equal(a, b)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match="empty class"):
            class_weights((10, 0, 5, 5))
