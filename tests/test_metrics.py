"""Verification scores against independent high-precision and arithmetic oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flarecast import (
    FlareClass,
    ConfusionMatrix,
    bss_ge_m,
    build_confusion,
    build_report,
    gerrity_matrix,
    gmgs,
    gmgs_influence,
    harmonic_mean,
    tss_ge_m,
)
from flarecast.metrics import MetricReport

from oracles import (
    FROZEN_GERRITY_DIAG,
    FROZEN_GMGS_REFERENCE,
    FROZEN_TSS_REFERENCE,
    REFERENCE_CONFUSION,
    arrays_from_forecasts,
    bss_loop,
    confusion_loop,
    gerrity_mp,
    gmgs_mp,
    pairs_from_matrix,
    ranks_from_pairs,
)


def reference_cm() -> ConfusionMatrix:
    return ConfusionMatrix(REFERENCE_CONFUSION)


class TestGerrityMatrix:
    def test_uniform_climatology_invariants(self):
        s = gerrity_matrix([0.25, 0.25, 0.25, 0.25])
        assert float(s.climatology @ np.diag(s.scores)) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(s.climatology @ s.scores)) < 1e-12

    def test_symmetry_exact(self):
        s = gerrity_matrix([0.7, 0.2, 0.07, 0.03])
        assert np.array_equal(s.scores, s.scores.T)

    def test_reference_climatology_matches_high_precision_oracle(self):
        import mpmath as mp

        clim = REFERENCE_CONFUSION.sum(axis=1) / REFERENCE_CONFUSION.sum()
        s = gerrity_matrix(clim)
        n = int(REFERENCE_CONFUSION.sum())
        oracle = gerrity_mp([mp.mpf(int(v)) / n for v in REFERENCE_CONFUSION.sum(axis=1)])
        for i in range(4):
            assert s.scores[i, i] == pytest.approx(float(oracle[i][i]), rel=1e-12)
            assert s.scores[i, i] == pytest.approx(FROZEN_GERRITY_DIAG[i], rel=1e-12)
        for i in range(4):
            for j in range(4):
                assert s.scores[i, j] == pytest.approx(float(oracle[i][j]), abs=1e-12)

    def test_extreme_corner_is_minus_one(self):
        # the O-observed/X-predicted corner is -1 for every climatology
        for clim in ([0.97, 0.02, 0.007, 0.003], [0.4, 0.3, 0.2, 0.1]):
            s = gerrity_matrix(clim)
            assert s.scores[0, 3] == pytest.approx(-1.0, abs=1e-12)

    def test_random_climatologies_satisfy_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = rng.dirichlet(np.ones(4))
            if np.any(p <= 1e-9):
                continue
            s = gerrity_matrix(p)  # construction re-validates all invariants
            assert np.all(np.diag(s.scores)[:, None] >= s.scores)

    def test_degenerate_climatology_rejected(self):
        with pytest.raises(ValueError, match="degenerate climatology"):
            gerrity_matrix([0.5, 0.5, 0.0, 0.0])
        with pytest.raises(ValueError, match="degenerate climatology"):
            gerrity_matrix([0.5, 0.5, -0.1, 0.1])


class TestGmgs:
    def test_perfect_diagonal_scores_one(self):
        cm = ConfusionMatrix(np.diag([25, 25, 25, 25]))
        assert gmgs(cm) == pytest.approx(1.0, abs=1e-12)

    def test_constant_forecast_scores_zero(self):
        counts = np.zeros((4, 4), dtype=int)
        counts[:, 0] = [40, 30, 20, 10]
        assert gmgs(ConfusionMatrix(counts)) == pytest.approx(0.0, abs=1e-10)

    def test_reference_matrix_frozen_value(self):
        value = gmgs(reference_cm())
        assert value == pytest.approx(FROZEN_GMGS_REFERENCE, abs=1e-12)
        assert value == pytest.approx(float(gmgs_mp(REFERENCE_CONFUSION)), abs=1e-12)

    def test_count_scale_invariance(self):
        cm = reference_cm()
        scaled = ConfusionMatrix(cm.counts * 3)
        assert gmgs(scaled) == pytest.approx(gmgs(cm), rel=1e-12)

    def test_explicit_climatology(self):
        cm = reference_cm()
        clim = [0.379, 0.347, 0.229, 0.045]
        clim = np.array(clim) / np.sum(clim)
        assert gmgs(cm, climatology=clim) == pytest.approx(float(gmgs_mp(REFERENCE_CONFUSION, [str(v) for v in clim])), rel=1e-10)

    def test_zero_row_rejected(self):
        counts = np.zeros((4, 4), dtype=int)
        counts[0, 0] = 5
        counts[1, 1] = 5
        counts[2, 2] = 5
        with pytest.raises(ValueError, match="degenerate climatology"):
            gmgs(ConfusionMatrix(counts))


class TestTss:
    def test_perfect_binary_forecast(self):
        cm = ConfusionMatrix(np.diag([10, 10, 10, 10]))
        assert tss_ge_m(cm) == pytest.approx(1.0)

    def test_never_warning_forecast_scores_zero(self):
        counts = np.array([[7, 1, 0, 0], [2, 3, 0, 0], [4, 1, 0, 0], [1, 1, 0, 0]])
        assert tss_ge_m(ConfusionMatrix(counts)) == 0.0

    def test_reference_matrix(self):
        assert tss_ge_m(reference_cm()) == pytest.approx(FROZEN_TSS_REFERENCE, abs=1e-12)
        assert tss_ge_m(reference_cm()) == pytest.approx(0.3304, abs=5e-4)

    def test_sub_threshold_relabeling_invariance(self):
        rng = np.random.default_rng(5)
        base = rng.integers(0, 50, size=(4, 4))
        base[2:, :].flat[rng.integers(0, 8)] += 1  # ensure some positives
        cm = ConfusionMatrix(base)
        moved = base.copy()
        # shuffle counts between O and C (rows and columns) in every block
        moved[0, 0], moved[1, 0] = base[0, 0] + base[1, 0], 0
        moved[0, 1], moved[1, 1] = 0, base[0, 1] + base[1, 1]
        moved[0, 2], moved[1, 2] = base[0, 2] + base[1, 2], 0
        moved[0, 3], moved[1, 3] = 0, base[0, 3] + base[1, 3]
        assert tss_ge_m(ConfusionMatrix(moved)) == pytest.approx(tss_ge_m(cm), rel=1e-14)

    def test_degenerate_observed_sets_rejected(self):
        all_positive = np.zeros((4, 4), dtype=int)
        all_positive[2, 2] = all_positive[3, 3] = 5
        with pytest.raises(ValueError, match="undefined TSS"):
            tss_ge_m(ConfusionMatrix(all_positive))
        all_negative = np.zeros((4, 4), dtype=int)
        all_negative[0, 0] = all_negative[1, 1] = 5
        with pytest.raises(ValueError, match="undefined TSS"):
            tss_ge_m(ConfusionMatrix(all_negative))


class TestBss:
    def test_perfect_forecasts(self):
        forecasts = [
            (np.array([0.0, 0.0, 0.5, 0.5]), FlareClass.M),
            (np.array([0.5, 0.5, 0.0, 0.0]), FlareClass.O),
        ]
        assert bss_ge_m(*arrays_from_forecasts(forecasts)) == pytest.approx(1.0)

    def test_base_rate_forecast_scores_zero(self):
        # event frequency 0.5; every forecast assigns q = 0.5
        forecasts = [
            (np.array([0.25, 0.25, 0.25, 0.25]), FlareClass.X),
            (np.array([0.25, 0.25, 0.25, 0.25]), FlareClass.C),
        ]
        assert bss_ge_m(*arrays_from_forecasts(forecasts)) == pytest.approx(0.0, abs=1e-12)

    def test_two_sample_arithmetic(self):
        # events (1, 0), q = (0.8, 0.4): BS = 0.10, BS_clim = 0.25, skill = 0.6
        forecasts = [
            (np.array([0.1, 0.1, 0.4, 0.4]), FlareClass.X),
            (np.array([0.3, 0.3, 0.2, 0.2]), FlareClass.O),
        ]
        assert bss_ge_m(*arrays_from_forecasts(forecasts)) == pytest.approx(0.6)

    def test_degenerate_base_rate_rejected(self):
        with pytest.raises(ValueError, match="degenerate climatology for BSS"):
            bss_ge_m([np.array([0.25, 0.25, 0.25, 0.25])], [FlareClass.X])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            bss_ge_m([], [])

    def test_misaligned_probabilities_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            bss_ge_m([np.array([0.25, 0.25, 0.25, 0.25])], [FlareClass.X, FlareClass.O])


class TestInfluence:
    def test_diagonal_excluded_and_sorted(self):
        cm = reference_cm()
        s = gerrity_matrix(cm.observed_counts() / cm.n)
        table = gmgs_influence(cm, s)
        assert len(table) == 12
        assert all(e.observed != e.predicted for e in table)
        vals = [e.influence for e in table]
        assert vals == sorted(vals, reverse=True)

    def test_values_match_high_precision_oracle(self):
        import mpmath as mp

        cm = reference_cm()
        n = cm.n
        s = gerrity_matrix(cm.observed_counts() / n)
        oracle = gerrity_mp([mp.mpf(int(v)) / n for v in cm.observed_counts()])
        table = {(e.observed, e.predicted): e.influence for e in gmgs_influence(cm, s)}
        for (i, j), got in ((k, v) for k, v in table.items()):
            expected = float(int(cm.counts[int(i), int(j)]) * (oracle[int(i)][int(i)] - oracle[int(i)][int(j)]) / n)
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-14)

    def test_nonnegative_and_sum_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            counts = rng.integers(1, 200, size=(4, 4))
            cm = ConfusionMatrix(counts)
            s = gerrity_matrix(cm.observed_counts() / cm.n)
            table = gmgs_influence(cm, s)
            assert all(e.influence >= 0.0 for e in table)
            total = sum(e.influence for e in table)
            identity = float((cm.counts * np.diag(s.scores)[:, None]).sum() / cm.n - gmgs(cm))
            assert total == pytest.approx(identity, rel=1e-10, abs=1e-12)


class TestHarmonicMean:
    def test_equal_inputs(self):
        assert harmonic_mean(0.5, 0.5) == pytest.approx(0.5)

    def test_reference_pair(self):
        assert harmonic_mean(0.484, 0.353) == pytest.approx(0.4082485065710872)
        assert harmonic_mean(0.484, 0.353) == pytest.approx(0.408, abs=5e-4)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError, match="harmonic mean undefined"):
            harmonic_mean(1.0, 0.0)
        with pytest.raises(ValueError, match="harmonic mean undefined"):
            harmonic_mean(-0.2, 0.5)


class TestMetricReport:
    def test_build_report_hard_predictions(self):
        pairs = pairs_from_matrix(REFERENCE_CONFUSION)
        report = build_report(*ranks_from_pairs(pairs))
        assert report.gmgs == pytest.approx(FROZEN_GMGS_REFERENCE, abs=1e-12)
        assert report.tss_ge_m == pytest.approx(FROZEN_TSS_REFERENCE, abs=1e-12)
        assert report.bss_ge_m is None
        assert report.hm is None
        assert len(report.influence_table) == 12

    def test_build_report_with_probabilities(self):
        forecasts = [
            (np.array([0.1, 0.1, 0.4, 0.4]), FlareClass.X),
            (np.array([0.3, 0.3, 0.2, 0.2]), FlareClass.O),
            (np.array([0.2, 0.2, 0.3, 0.3]), FlareClass.M),
            (np.array([0.4, 0.3, 0.2, 0.1]), FlareClass.C),
        ]
        probs, observed = arrays_from_forecasts(forecasts)
        report = build_report(observed, probs.argmax(axis=1), probs)
        assert report.bss_ge_m is not None
        if report.gmgs > 0 and report.bss_ge_m > 0:
            assert report.hm == pytest.approx(harmonic_mean(report.gmgs, report.bss_ge_m))

    def test_text_and_csv_serialization(self):
        report = build_report(*ranks_from_pairs(pairs_from_matrix(REFERENCE_CONFUSION)))
        text = report.to_text()
        assert "gmgs" in text and "bss_ge_m      n/a" in text
        assert "5336" in text
        csv_text = report.to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "metric,value"
        metrics = dict(line.split(",", 1) for line in lines[1:])
        assert float(metrics["gmgs"]) == pytest.approx(report.gmgs)
        assert metrics["bss_ge_m"] == "n/a"
        assert metrics["confusion_O_O"] == "5336"
        assert float(metrics["influence_C_O"]) > 0

    def test_sorted_invariant_enforced(self):
        cm = reference_cm()
        s = gerrity_matrix(cm.observed_counts() / cm.n)
        table = gmgs_influence(cm, s)
        with pytest.raises(ValueError, match="sorted"):
            MetricReport(0.5, 0.5, None, None, cm, tuple(reversed(table)))


class TestArrayScoringMatchesLoopOracle:
    """The bincount confusion and array BSS reproduce the per-row loops exactly."""

    # Each case opens with one row per class, so every score is defined.
    pair_lists = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=300).map(
        lambda rows: [(c, c) for c in range(4)] + rows
    )

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(pairs=pair_lists, seed=st.integers(0, 2**32 - 1))
    def test_scores_equal_loop_forms(self, pairs, seed):
        pairs = [(FlareClass(o), FlareClass(p)) for o, p in pairs]
        probs = np.random.default_rng(seed).dirichlet(np.ones(4), size=len(pairs))
        forecasts = [(probs[i], obs) for i, (obs, _) in enumerate(pairs)]
        observed, predicted = ranks_from_pairs(pairs)

        counts = confusion_loop(pairs)
        assert np.array_equal(build_confusion(observed, predicted).counts, counts)
        assert bss_ge_m(probs, observed) == bss_loop(forecasts)

        report = build_report(observed, predicted, probs)
        assert np.array_equal(report.confusion.counts, counts)
        assert report.gmgs == gmgs(ConfusionMatrix(counts))
        assert report.tss_ge_m == tss_ge_m(ConfusionMatrix(counts))
        assert report.bss_ge_m == bss_loop(forecasts)
