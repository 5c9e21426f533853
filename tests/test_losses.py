"""Loss family: forward values against hand arithmetic, gradients against
central finite differences, influence factors against the gradient-sum
identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flarecast import ClassWeights, FlareClass, softmax
from flarecast.losses import (
    FACTOR_FLOOR,
    LossBreakdown,
    _bss_logit_grad,
    batch_factors_arrays,
    flare_loss_arrays,
    gradient_error,
)

from oracles import (
    HeadState,
    bss_grad_w,
    bss_loss,
    ce_loss,
    flare_loss,
    flare_loss_grad,
    ib_factor_bss,
    ib_factor_ce,
    max_rel_err,
    one_hot,
    residual,
)

UNIFORM = ClassWeights.uniform()


def random_state(rng, width=5):
    h = rng.standard_normal(width)
    w = rng.standard_normal((4, width))
    return HeadState.from_hidden(h, w)


def random_label(rng):
    y = np.zeros(4)
    y[rng.integers(4)] = 1.0
    return y


def two_class_state(hidden):
    """Head state whose softmax is uniform over the first two classes only."""
    h = np.asarray(hidden, dtype=float)
    w = np.zeros((4, h.size))
    w[2:, :] = -50.0 / h.sum()
    return HeadState.from_hidden(h, w)


class TestHeadState:
    def test_from_hidden_consistency(self):
        rng = np.random.default_rng(0)
        s = random_state(rng)
        assert np.allclose(s.logits, s.weights @ s.hidden)
        assert s.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_inconsistent_logits_rejected(self):
        with pytest.raises(ValueError, match="logits"):
            HeadState(np.ones(3), np.zeros((4, 3)), np.ones(4), np.full(4, 0.25))

    def test_inconsistent_probs_rejected(self):
        with pytest.raises(ValueError, match="softmax"):
            HeadState(np.ones(3), np.zeros((4, 3)), np.zeros(4), np.array([0.4, 0.3, 0.2, 0.1]))


class TestResidual:
    def test_sums_to_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            s = random_state(rng)
            d = residual(s.probs, random_label(rng))
            assert abs(d.sum()) <= 1e-12

    def test_rejects_non_distribution_pair(self):
        with pytest.raises(ValueError, match="sum to zero"):
            residual(np.full(4, 0.25), np.array([1.0, 1.0, 0.0, 0.0]))


class TestCeLoss:
    def test_certain_correct_prediction(self):
        y = one_hot(FlareClass.C)
        assert ce_loss(y, y) == 0.0

    def test_uniform_prediction(self):
        assert ce_loss(one_hot(FlareClass.X), np.full(4, 0.25)) == pytest.approx(math.log(4.0))

    def test_arithmetic_example(self):
        got = ce_loss(one_hot(FlareClass.M), np.array([0.1, 0.2, 0.6, 0.1]))
        assert got == pytest.approx(-math.log(0.6))

    def test_clamped_at_zero_probability(self):
        val = ce_loss(one_hot(FlareClass.O), np.array([0.0, 0.0, 0.0, 1.0]))
        assert val == pytest.approx(-math.log(1e-12))
        assert math.isfinite(val)


class TestBssLoss:
    def test_exact_match(self):
        y = one_hot(FlareClass.M)
        assert bss_loss(y, y) == 0.0

    def test_uniform_prediction(self):
        assert bss_loss(one_hot(FlareClass.O), np.full(4, 0.25)) == pytest.approx(0.75)

    def test_maximal_miss(self):
        assert bss_loss(one_hot(FlareClass.O), np.array([0.0, 0.0, 0.0, 1.0])) == pytest.approx(2.0)

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            p = rng.dirichlet(np.ones(4))
            val = bss_loss(random_label(rng), p)
            assert 0.0 <= val <= 2.0


class TestBssGradW:
    def test_zero_residual_gives_zero_matrix(self):
        rng = np.random.default_rng(3)
        s = random_state(rng)
        assert np.array_equal(bss_grad_w(s, s.probs), np.zeros((4, s.hidden.size)))

    def test_saturated_softmax_is_nearly_zero(self):
        h = np.array([1.0])
        w = np.array([[100.0], [0.0], [0.0], [0.0]])
        s = HeadState.from_hidden(h, w)
        assert np.max(np.abs(bss_grad_w(s, one_hot(FlareClass.O)))) < 1e-40

    def test_reduced_two_class_value(self):
        s = two_class_state([1.0])
        g = bss_grad_w(s, one_hot(FlareClass.O))
        assert g[0, 0] == pytest.approx(-0.5, abs=1e-12)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(4)
        step = 1e-6
        for _ in range(30):
            s = random_state(rng, width=rng.integers(1, 8))
            y = random_label(rng)
            analytic = bss_grad_w(s, y)
            fd = np.zeros_like(analytic)
            w = s.weights.copy()
            for k in range(4):
                for l in range(s.hidden.size):
                    w[k, l] += step
                    up = bss_loss(y, softmax(w @ s.hidden))
                    w[k, l] -= 2 * step
                    down = bss_loss(y, softmax(w @ s.hidden))
                    w[k, l] += step
                    fd[k, l] = (up - down) / (2 * step)
            assert max_rel_err(analytic, fd) <= 1e-6


class TestIbFactors:
    def test_reduced_two_class_factor(self):
        s = two_class_state([1.0, 1.0])  # ||h||_1 = 2
        assert ib_factor_bss(s, one_hot(FlareClass.O)) == pytest.approx(2.0, abs=1e-12)

    def test_zero_residual_floored(self):
        rng = np.random.default_rng(5)
        s = random_state(rng)
        assert ib_factor_bss(s, s.probs) == FACTOR_FLOOR
        assert ib_factor_ce(s, s.probs) == FACTOR_FLOOR

    def test_factor_equals_absolute_gradient_sum(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            s = random_state(rng, width=rng.integers(1, 10))
            y = random_label(rng)
            factor = ib_factor_bss(s, y)
            grad_sum = float(np.abs(bss_grad_w(s, y)).sum())
            assert abs(factor - grad_sum) / grad_sum <= 1e-10

    def test_ce_factor_residual_mode(self):
        # uniform probabilities, one-hot target, ||h||_1 = 1: ||p - y||_1 = 1.5
        s = HeadState.from_hidden(np.array([1.0]), np.zeros((4, 1)))
        assert ib_factor_ce(s, one_hot(FlareClass.X)) == pytest.approx(1.5)


def uniform_prob_state():
    """L = 1, ||h||_1 = 1, uniform probabilities."""
    return HeadState.from_hidden(np.array([1.0]), np.zeros((4, 1)))


class TestFlareLoss:
    def test_warmup_disables_influence_terms(self):
        rng = np.random.default_rng(8)
        batch = [(random_state(rng), random_label(rng)) for _ in range(6)]
        b = flare_loss(batch, UNIFORM, 3.0, ib_active=False)
        assert b.ib_ce == 0.0 and b.ib_bss == 0.0
        assert b.total == pytest.approx(b.wce + 3.0 * b.wbss, rel=1e-15)
        assert not b.ib_active

    def test_reduces_to_plain_cross_entropy(self):
        rng = np.random.default_rng(9)
        batch = [(random_state(rng), random_label(rng)) for _ in range(5)]
        b = flare_loss(batch, UNIFORM, 0.0, ib_active=False)
        mean_ce = np.mean([ce_loss(y, s.probs) for s, y in batch])
        assert b.total == pytest.approx(mean_ce, rel=1e-14)

    def test_single_sample_composed_from_component_oracles(self):
        s = uniform_prob_state()
        y = one_hot(FlareClass.X)
        expected = (ce_loss(y, s.probs) + ce_loss(y, s.probs) / ib_factor_ce(s, y)) + 3.0 * (
            bss_loss(y, s.probs) + bss_loss(y, s.probs) / ib_factor_bss(s, y)
        )
        b = flare_loss([(s, y)], UNIFORM, 3.0, ib_active=True)
        assert b.total == pytest.approx(expected, rel=1e-14)
        assert b.total == pytest.approx(7.560490601866484, rel=1e-12)

    def test_breakdown_identity(self):
        rng = np.random.default_rng(10)
        batch = [(random_state(rng), random_label(rng)) for _ in range(7)]
        weights = ClassWeights(np.array([0.5, 0.8, 1.4, 5.0]))
        b = flare_loss(batch, weights, 2.5, ib_active=True)
        assert b.total == pytest.approx((b.wce + b.ib_ce) + 2.5 * (b.wbss + b.ib_bss), rel=1e-15)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        batch = [(random_state(rng), random_label(rng)) for _ in range(9)]
        weights = ClassWeights(np.array([0.6, 0.9, 1.5, 4.0]))
        a = flare_loss(batch, weights, 3.0, ib_active=True)
        b = flare_loss(batch[::-1], weights, 3.0, ib_active=True)
        assert a.total == pytest.approx(b.total, rel=1e-12)

    def test_linear_scaling_in_class_weights(self):
        rng = np.random.default_rng(12)
        batch = [(random_state(rng), random_label(rng)) for _ in range(5)]
        w1 = ClassWeights(np.array([0.5, 1.0, 1.5, 2.0]))
        w2 = ClassWeights(2.0 * w1.weights)
        a = flare_loss(batch, w1, 3.0, ib_active=True)
        b = flare_loss(batch, w2, 3.0, ib_active=True)
        for name in ("wce", "ib_ce", "wbss", "ib_bss", "total"):
            assert getattr(b, name) == pytest.approx(2.0 * getattr(a, name), rel=1e-12)

    def test_unit_weights_equal_unweighted(self):
        rng = np.random.default_rng(13)
        batch = [(random_state(rng), random_label(rng)) for _ in range(6)]
        b = flare_loss(batch, UNIFORM, 1.0, ib_active=False)
        assert b.wce == pytest.approx(np.mean([ce_loss(y, s.probs) for s, y in batch]), rel=1e-14)
        assert b.wbss == pytest.approx(np.mean([bss_loss(y, s.probs) for s, y in batch]), rel=1e-14)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty batch"):
            flare_loss([], UNIFORM, 3.0, ib_active=False)

    def test_nonfinite_breakdown_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            LossBreakdown(float("nan"), 0.0, 0.0, 0.0, 0.0, False)

    def test_batch_api_matches_array_kernel(self):
        rng = np.random.default_rng(14)
        batch = [(random_state(rng), random_label(rng)) for _ in range(8)]
        weights = ClassWeights(np.array([0.7, 1.1, 1.3, 3.2]))
        probs = np.stack([s.probs for s, _ in batch])
        ys = np.stack([y for _, y in batch])
        h_l1 = np.array([np.abs(s.hidden).sum() for s, _ in batch])
        sample_w = ys @ weights.weights
        for ib in (False, True):
            a = flare_loss(batch, weights, 3.0, ib_active=ib)
            b, _ = flare_loss_arrays(probs, ys, h_l1, sample_w, 3.0, ib)
            assert a == b


class TestFlareLossGrad:
    def test_zero_residual_gives_zero_gradient(self):
        rng = np.random.default_rng(15)
        batch = [(s, s.probs) for s in (random_state(rng) for _ in range(4))]
        grads = flare_loss_grad(batch, UNIFORM, 3.0, ib_active=True)
        for g in grads:
            assert np.array_equal(g, np.zeros(4))

    def test_matches_central_differences_with_frozen_factors(self):
        rng = np.random.default_rng(16)
        step = 1e-6
        for _ in range(20):
            batch = [(random_state(rng), random_label(rng)) for _ in range(rng.integers(1, 6))]
            weights = ClassWeights(np.exp(rng.standard_normal(4) * 0.5))
            probs = np.stack([s.probs for s, _ in batch])
            ys = np.stack([y for _, y in batch])
            h_l1 = np.array([np.abs(s.hidden).sum() for s, _ in batch])
            sample_w = ys @ weights.weights
            frozen = batch_factors_arrays(probs, ys, h_l1)
            analytic = flare_loss_grad(batch, weights, 3.0, ib_active=True, frozen_factors=frozen)
            logits = np.stack([s.logits for s, _ in batch])
            for i in range(len(batch)):
                fd = np.zeros(4)
                for k in range(4):
                    for sign in (1.0, -1.0):
                        z = logits.copy()
                        z[i, k] += sign * step
                        val = flare_loss_arrays(
                            softmax(z), ys, h_l1, sample_w, 3.0, True, frozen_factors=frozen
                        )[0].total
                        fd[k] += sign * val / (2 * step)
                assert max_rel_err(analytic[i], fd) <= 1e-6

    def test_ib_toggle_changes_gradient_by_influence_contribution(self):
        rng = np.random.default_rng(17)
        batch = [(random_state(rng), random_label(rng)) for _ in range(5)]
        weights = ClassWeights(np.array([0.5, 1.0, 2.0, 4.0]))
        lam = 3.0
        on = flare_loss_grad(batch, weights, lam, ib_active=True)
        off = flare_loss_grad(batch, weights, lam, ib_active=False)
        n = len(batch)
        for i, (s, y) in enumerate(batch):
            f_ce = ib_factor_ce(s, y)
            f_bss = ib_factor_bss(s, y)
            d = s.probs - y
            dp = float(d @ s.probs)
            ib_part = weights.weights @ y / n * (d / f_ce + lam * 2.0 * s.probs * (d - dp) / f_bss)
            assert np.allclose(on[i] - off[i], ib_part, rtol=1e-10, atol=1e-15)

    def test_grad_kernel_matches_list_api(self):
        rng = np.random.default_rng(18)
        batch = [(random_state(rng), random_label(rng)) for _ in range(6)]
        probs = np.stack([s.probs for s, _ in batch])
        ys = np.stack([y for _, y in batch])
        h_l1 = np.array([np.abs(s.hidden).sum() for s, _ in batch])
        sample_w = ys @ UNIFORM.weights
        got = flare_loss_grad(batch, UNIFORM, 2.0, ib_active=True)
        _, kernel = flare_loss_arrays(probs, ys, h_l1, sample_w, 2.0, True)
        assert np.array_equal(np.stack(got), kernel)


class TestKernelMatchesPerSampleOracles:
    """The batch factors and the Brier logit gradient agree with the per-sample forms.

    The CE factor is computed by the same operations in both forms, so it
    matches exactly. The Brier forms take ``delta . p`` as a dot product
    (oracle) or a row sum (kernel), which may differ in the last place; the
    difference then passes through ``delta_k - delta . p``, which cancels on
    near-certain heads. It is therefore bounded relative to the size of the
    operands before that cancellation, ``p_k (|delta_k| + sum_i |delta_i p_i|) |h_l|``.
    """

    # Each row: head width, seed of its standard-normal hidden vector and head
    # weights, a scale of the hidden vector (0 floors both factors, 10
    # saturates the softmax), and its target class (None: the target equals
    # the prediction, so the residual and both factors vanish to the floor).
    rows = st.tuples(
        st.integers(1, 8),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 1.0, 3.0, 10.0]),
        st.one_of(st.none(), st.integers(0, 3)),
    )

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(batch=st.lists(rows, min_size=1, max_size=6))
    def test_factors_and_brier_gradient(self, batch):
        states, targets = [], []
        for width, seed, scale, cls in batch:
            rng = np.random.default_rng(seed)
            s = HeadState.from_hidden(scale * rng.standard_normal(width), rng.standard_normal((4, width)))
            states.append(s)
            targets.append(s.probs if cls is None else one_hot(FlareClass(cls)))
        probs = np.stack([s.probs for s in states])
        ys = np.stack(targets)
        h_l1 = np.array([np.abs(s.hidden).sum() for s in states])
        grad = _bss_logit_grad(probs, ys)
        f_ce, f_bss = batch_factors_arrays(probs, ys, h_l1)
        assert f_ce.tolist() == [ib_factor_ce(s, y) for s, y in zip(states, ys)]
        for i, (s, y) in enumerate(zip(states, ys)):
            d = s.probs - y
            operands = np.outer(s.probs * (np.abs(d) + np.abs(d * s.probs).sum()), np.abs(s.hidden))
            assert abs(f_bss[i] - ib_factor_bss(s, y)) <= 1e-12 * 2.0 * operands.sum()
            assert np.all(np.abs(np.outer(grad[i], s.hidden) - bss_grad_w(s, y)) <= 1e-12 * 2.0 * operands)


class TestGradientError:
    def test_contiguous_view_is_moved_in_place_and_restored(self):
        buf = np.arange(12.0)
        x = buf[4:8].reshape(2, 2)  # a contiguous view, as the trainer's parameters are
        before = buf.copy()
        err = gradient_error(lambda: float((buf**2).sum()), x, 2.0 * x)
        assert err < 1e-8
        assert np.array_equal(buf, before)

    @pytest.mark.parametrize(
        "make", [lambda: np.zeros((3, 4))[:, :2], lambda: np.zeros(8)[::2], lambda: np.zeros((3, 4)).T]
    )
    def test_non_contiguous_array_rejected(self, make):
        x = make()
        with pytest.raises(ValueError, match="C-contiguous"):
            gradient_error(lambda: 0.0, x, np.zeros(x.shape))
