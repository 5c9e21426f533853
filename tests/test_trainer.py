"""Trainer: forward contract, optimizer update rule, training loop schedule,
checkpoint selection, determinism, and file outputs."""

import ctypes
import functools
import glob
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from flarecast import SplitSpec, TrainConfig, adamw_step, forward, gen_synthetic, train
from flarecast.core import EPOCH
from flarecast.pipeline import split_timeseries
from flarecast.trainer import (
    Checkpoint,
    _backprop,
    _views,
    evaluate_fold,
    init_params,
    load_checkpoint,
    save_checkpoint,
    write_history,
)

from oracles import adamw_step_dicts, backprop_allocating, forward_allocating, forward_row, train_reference

PROBS = [0.4, 0.3, 0.2, 0.1]
ROOT = Path(__file__).resolve().parent.parent


def small_dataset(n=400, seed=0, feature_dim=4):
    """A table and its class ranks."""
    return gen_synthetic(n, PROBS, seed=seed, feature_dim=feature_dim)


def columns(table, labels):
    """The columns train and evaluate_fold read: features, times and labels."""
    return table.features, table.times, labels


def small_config(**overrides):
    defaults = dict(
        epochs=4,
        batch_size=32,
        learning_rate=1e-2,
        warmup_epochs=2,
        hidden_sizes=(8, 8),
        seed=1,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestForward:
    def test_zero_parameters_give_uniform_distribution(self):
        cfg = small_config()
        samples, _ = small_dataset(4)
        params = init_params(4, cfg, np.random.default_rng(0))
        for name in params:
            params[name] = np.zeros_like(params[name])
        state = forward_row(samples, 0, params, cfg)
        assert np.allclose(state.probs, 0.25)

    def test_embedding_adds_exactly_one_input_channel(self):
        from flarecast.cycle import cycle_phase

        cfg_off = small_config(use_cycle_embedding=False)
        cfg_on = small_config(use_cycle_embedding=True)
        samples, _ = small_dataset(3)
        params_off = init_params(4, cfg_off, np.random.default_rng(5))
        params_on = {k: v.copy() for k, v in params_off.items()}
        params_on["head"] = np.hstack([params_off["head"], np.zeros((4, 1))])
        for row in range(len(samples)):
            a = forward_row(samples, row, params_off, cfg_off)
            b = forward_row(samples, row, params_on, cfg_on)
            assert b.hidden.size == a.hidden.size + 1
            assert np.array_equal(b.hidden[:-1], a.hidden)
            stamp = EPOCH + timedelta(microseconds=int(samples.times[row]))
            assert b.hidden[-1] == cycle_phase(stamp, cfg_on.cycle)
            assert np.allclose(a.probs, b.probs)

    def test_deterministic(self):
        cfg = small_config()
        samples, _ = small_dataset(2)
        params = init_params(4, cfg, np.random.default_rng(3))
        a = forward_row(samples, 0, params, cfg)
        b = forward_row(samples, 0, params, cfg)
        assert np.array_equal(a.probs, b.probs) and np.array_equal(a.logits, b.logits)

    def test_dimension_mismatch_rejected(self):
        cfg = small_config()
        samples, _ = small_dataset(1, feature_dim=6)
        params = init_params(4, cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="dimension mismatch"):
            forward_row(samples, 0, params, cfg)


def fresh_moments(n):
    return np.zeros(n), np.zeros(n)


class TestAdamwStep:
    def test_decay_only_step_shrinks_exactly(self):
        cfg = small_config(learning_rate=0.1, weight_decay=0.05)
        theta = np.array([2.0, -3.0])
        start = theta.copy()
        m, v = fresh_moments(2)
        adamw_step(theta, np.zeros(2), m, v, cfg, step_index=1)
        assert np.array_equal(theta, start * (1 - 0.1 * 0.05))
        assert np.array_equal(m, np.zeros(2))

    def test_first_step_is_sign_normalized(self):
        cfg = small_config(learning_rate=0.1, weight_decay=0.0)
        g = np.array([0.5, -2.0, 1e-3])
        theta = np.zeros(3)
        adamw_step(theta, g, *fresh_moments(3), cfg, step_index=1)
        expected = -0.1 * g / (np.abs(g) + cfg.adam_eps)
        assert np.allclose(theta, expected, rtol=1e-12)

    def test_two_identical_steps_match_scalar_trace(self):
        cfg = small_config(learning_rate=0.1, weight_decay=0.0, beta1=0.9, beta2=0.95)
        g = 0.5
        # independent scalar re-derivation of the update rule
        m = v = 0.0
        p_ref = 1.0
        for t in (1, 2):
            m = 0.9 * m + 0.1 * g
            v = 0.95 * v + 0.05 * g * g
            p_ref -= 0.1 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.95**t)) + cfg.adam_eps)
        theta = np.array([1.0])
        moments = fresh_moments(1)
        for t in (1, 2):
            adamw_step(theta, np.array([g]), *moments, cfg, step_index=t)
        assert theta[0] == pytest.approx(p_ref, rel=1e-15)

    def test_nonfinite_gradient_raises_diverged(self):
        cfg = small_config()
        with pytest.raises(RuntimeError, match="diverged"):
            adamw_step(np.ones(2), np.array([1.0, np.nan]), *fresh_moments(2), cfg, step_index=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("view", ["w0", "w1", "head"])
    def test_divergence_leaves_state_untouched(self, bad, view):
        cfg = small_config(weight_decay=0.05)
        rng = np.random.default_rng(4)
        like = init_params(3, cfg, rng)
        assert list(like)[-1] == "head"
        size = sum(p.size for p in like.values())
        theta, grad, m, v = (rng.standard_normal(size) for _ in range(4))
        v = np.abs(v)
        _views(grad, like)[view].flat[-1] = bad  # for "head", the last element of grad
        before = [a.copy() for a in (theta, m, v)]
        with pytest.raises(RuntimeError, match="^diverged: "):
            adamw_step(theta, grad, m, v, cfg, step_index=3)
        for a, b in zip((theta, m, v), before):
            assert np.array_equal(a, b)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        shapes=st.lists(
            st.lists(st.integers(1, 6), min_size=1, max_size=2).map(tuple), min_size=1, max_size=5
        ),
        start=st.integers(1, 50),
        steps=st.integers(1, 3),
        lr=st.floats(1e-6, 1.0),
        wd=st.floats(0.0, 0.5),
        beta1=st.floats(0.0, 0.999),
        beta2=st.floats(0.0, 0.9999),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_in_place_step_equals_dict_oracle_bit_for_bit(self, shapes, start, steps, lr, wd, beta1, beta2, seed):
        cfg = small_config(learning_rate=lr, weight_decay=wd, beta1=beta1, beta2=beta2)
        rng = np.random.default_rng(seed)
        like = {f"p{i}": np.empty(shape) for i, shape in enumerate(shapes)}
        size = sum(p.size for p in like.values())
        theta, m, v = rng.standard_normal(size), rng.standard_normal(size), rng.random(size)
        params = {k: a.copy() for k, a in _views(theta, like).items()}
        moments = {k: (a.copy(), b.copy()) for (k, a), b in zip(_views(m, like).items(), _views(v, like).values())}
        grad = np.empty(size)
        # The same steps with caller-owned scratch vectors, whose stale contents must not matter.
        theta2, m2, v2 = theta.copy(), m.copy(), v.copy()
        scratch = (np.full(size, np.nan), np.full(size, np.inf))
        for t in range(start, start + steps):
            grad[:] = rng.standard_normal(size) * rng.choice([1e-8, 1.0, 1e3])
            params, moments = adamw_step_dicts(params, _views(grad, like), moments, cfg, t)
            adamw_step(theta, grad, m, v, cfg, t)
            adamw_step(theta2, grad, m2, v2, cfg, t, scratch)
        flat = lambda arrays: np.concatenate([a.ravel() for a in arrays])
        assert flat(params.values()).tobytes() == theta.tobytes() == theta2.tobytes()
        assert flat(mv[0] for mv in moments.values()).tobytes() == m.tobytes() == m2.tobytes()
        assert flat(mv[1] for mv in moments.values()).tobytes() == v.tobytes() == v2.tobytes()


def blas_core():
    """The name of the kernel numpy's bundled OpenBLAS runs (such as ``SkylakeX``), or None where it is not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_corename64_"):
            lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
            return lib.scipy_openblas_get_corename64_().decode()
    return None


def block_scoring_cases(n_max, sizes):
    """For each row count in ``sizes``, with and without the cycle embedding: the block sizes evaluate_fold
    scores rows 100.. in, and whether its probabilities, predictions and labels are one forward pass's
    bytes. Run in a child process, whose OpenBLAS settings are fixed when numpy loads."""
    import flarecast.trainer as trainer_mod

    table, labels = gen_synthetic(100 + n_max, PROBS, seed=5, feature_dim=12)
    real_forward, blocks = trainer_mod.forward, []
    trainer_mod.forward = lambda x, phis, params: blocks.append(len(x)) or real_forward(x, phis, params)
    trainer_mod.build_report = lambda observed, predicted, probs: (observed, predicted, probs)
    results = {}
    for n in sizes:
        for embedding in (True, False):
            cfg = TrainConfig(hidden_sizes=(64, 64), use_cycle_embedding=embedding)
            params = init_params(12, cfg, np.random.default_rng(n))
            rows = slice(100, 100 + n)
            want = real_forward(table.features[rows], trainer_mod._phis(table.times[rows], cfg), params)[-1]
            blocks.clear()
            observed, predicted, probs = evaluate_fold(*columns(table, labels), range(100, 100 + n), params, cfg)
            results[f"{n}-{embedding}"] = {
                "blocks": list(blocks),
                "probs": probs.shape == want.shape and probs.tobytes() == want.tobytes(),
                "classes": bool(np.array_equal(predicted, want.argmax(axis=1)) and np.array_equal(observed, labels[rows])),
            }
    return {"core": blas_core(), "cases": results, "forward": forward_cases()}


FORWARD_WIDTHS = (6, 7, 13, 64)
FORWARD_ROWS = (1, 7, 64, 2432)


def forward_cases():
    """For each hidden width, row count and embedding setting: whether forward's first activation, second
    activation, head input and probabilities are the bytes of ``forward_allocating``'s. Widths 6, 7 and 13
    leave tails past the SIMD lanes of the bias and tanh passes."""
    rng = np.random.default_rng(11)
    results = {}
    for width in FORWARD_WIDTHS:
        for n in FORWARD_ROWS:
            for embedding in (True, False):
                params = init_params(12, TrainConfig(hidden_sizes=(width, width), use_cycle_embedding=embedding), rng)
                x = 2.0 * rng.standard_normal((n, 12))
                phis = rng.uniform(0.0, 1.0, n) if embedding else None
                a0, a1, head_in, _, probs = forward(x, phis, params)
                want = forward_allocating(x, phis, params)
                results[f"{width}-{n}-{embedding}"] = [
                    got.shape == w.shape and got.tobytes() == w.tobytes() for got, w in zip((a0, a1, head_in, probs), want)
                ]
    return results


def core_types():
    """The OpenBLAS core types to score under: the default, and on an x86_64 CPU with AVX2 and FMA also Haswell
    and Sandybridge, the kernels OpenBLAS runs on other CPUs (AMD Zen runs Haswell's)."""
    try:
        with open("/proc/cpuinfo") as fh:
            flags = set(next((line for line in fh if line.startswith("flags")), "").split())
    except OSError:
        flags = set()
    return ["default"] + (["Haswell", "Sandybridge"] if platform.machine() == "x86_64" and {"avx2", "fma"} <= flags else [])


class TestBlockScoring:
    """evaluate_fold scores its rows in ``n // EVAL_BLOCK_ROWS`` (at least one) near-equal blocks cut on
    multiples of 64 rows. With one BLAS thread its probabilities equal one forward pass over all rows, bit
    for bit, under every OpenBLAS kernel tried; with more, OpenBLAS splits a large product's rows across
    threads, and some kernels then change the last bit. Each kernel's cases run in one child process with
    ``OPENBLAS_NUM_THREADS=1``, which also checks that forward, writing its second layer into the head
    input, gives the bytes of the allocating oracle."""

    CASES = [
        (1, [1]),
        (64, [64]),
        (65, [65]),
        (383, [383]),
        (384, [384]),
        (385, [385]),
        (767, [767]),
        (768, [384, 384]),
        (769, [384, 385]),
        (1151, [576, 575]),
        (1152, [384, 384, 384]),
        (1153, [384, 384, 385]),
        (6202, [384] * 8 + [448] + [384] * 6 + [378]),
        (9579, [384, 384, 448] + [384, 384, 384, 448] * 3 + [384] * 4 + [448, 384, 384, 384, 427]),
        (12705, [384] * 31 + [448, 353]),  # the smallest last block: EVAL_BLOCK_ROWS - 31 rows
    ]

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def scored(core):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
        env.pop("OPENBLAS_CORETYPE", None)
        if core != "default":
            env["OPENBLAS_CORETYPE"] = core
        sizes = [n for n, _ in TestBlockScoring.CASES]
        code = f"import json, test_trainer; print(json.dumps(test_trainer.block_scoring_cases({max(sizes)}, {sizes})))"
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    @pytest.mark.parametrize("core", core_types())
    def test_child_runs_its_kernel(self, core):
        name = self.scored(core)["core"]
        assert core == "default" or name is None or name == core

    @pytest.mark.parametrize("n, blocks", CASES)
    @pytest.mark.parametrize("embedding", [True, False])
    @pytest.mark.parametrize("core", core_types())
    def test_blocks_equal_one_forward_pass(self, core, n, blocks, embedding):
        case = self.scored(core)["cases"][f"{n}-{embedding}"]
        assert case["blocks"] == blocks
        assert case["probs"], f"{n} rows under {core}: block probabilities differ from one forward pass"
        assert case["classes"]

    @pytest.mark.parametrize("width", FORWARD_WIDTHS)
    @pytest.mark.parametrize("embedding", [True, False])
    @pytest.mark.parametrize("core", core_types())
    def test_forward_equals_allocating_oracle(self, core, width, embedding):
        cases = self.scored(core)["forward"]
        for n in FORWARD_ROWS:
            same = dict(zip(("a0", "a1", "head_in", "probs"), cases[f"{width}-{n}-{embedding}"]))
            assert all(same.values()), f"{n} rows of width {width} under {core}: {same}"


class TestBackprop:
    @pytest.mark.parametrize("batch", [1, 7, 64])
    @pytest.mark.parametrize("embed", [False, True])
    def test_views_filled_bit_equal_to_allocating_form(self, batch, embed):
        cfg = small_config(hidden_sizes=(8, 5), use_cycle_embedding=embed)
        rng = np.random.default_rng(batch)
        params = init_params(6, cfg, rng)
        x = rng.standard_normal((batch, 6))
        phis = rng.uniform(0.0, 1.0, batch) if embed else None
        a0, a1, head_in, _, probs = forward(x, phis, params)
        d_logits = probs - np.eye(4)[rng.integers(0, 4, batch)]
        expected = backprop_allocating(x, a0, a1, head_in, d_logits, params, embed)
        grad = np.full(sum(p.size for p in params.values()), np.nan)
        grads = _views(grad, params)
        _backprop(x, a0, a1, head_in, d_logits, params, grads)
        assert sorted(grads) == sorted(expected)
        for name, g in grads.items():
            assert g.shape == expected[name].shape
            assert g.tobytes() == expected[name].tobytes(), name
        assert np.isfinite(grad).all()  # every element of the flat buffer was written


@pytest.fixture(scope="module")
def run():
    samples, labels = small_dataset()
    fold = split_timeseries(samples, SplitSpec(fold_count=1))[0]
    cfg = small_config()
    return (samples, labels), fold, cfg, train(*columns(samples, labels), fold, cfg)


class TestTrainLoop:

    def test_history_covers_every_epoch(self, run):
        _, _, cfg, result = run
        assert [r.epoch for r in result.history] == list(range(cfg.epochs))

    def test_warmup_schedule_flips_once(self, run):
        _, _, cfg, result = run
        flags = [r.losses.ib_active for r in result.history]
        assert flags == [e >= cfg.warmup_epochs for e in range(cfg.epochs)]
        for r in result.history:
            if r.epoch < cfg.warmup_epochs:
                assert r.losses.ib_ce == 0.0 and r.losses.ib_bss == 0.0
            else:
                assert r.losses.ib_ce > 0.0 and r.losses.ib_bss > 0.0

    def test_checkpoint_is_argmax_earliest(self, run):
        _, _, _, result = run
        scores = [r.val_gmgs for r in result.history]
        best = max(scores)
        assert result.best.val_gmgs == best
        assert result.best.epoch == scores.index(best)

    def test_deterministic_given_seed(self, run):
        samples, fold, cfg, result = run
        again = train(*columns(*samples), fold, cfg)
        for a, b in zip(result.history, again.history):
            assert a == b
        for k in result.best.params:
            assert np.array_equal(result.best.params[k], again.best.params[k])

    def test_full_warmup_never_activates_influence(self):
        samples, labels = small_dataset(200)
        fold = split_timeseries(samples, SplitSpec(fold_count=1))[0]
        cfg = small_config(epochs=3, warmup_epochs=3)
        result = train(*columns(samples, labels), fold, cfg)
        for r in result.history:
            assert r.losses.ib_ce == 0.0 and r.losses.ib_bss == 0.0 and not r.losses.ib_active

    def test_one_loss_call_per_training_step(self, monkeypatch):
        import flarecast.trainer as trainer_mod

        calls = []
        real = trainer_mod.flare_loss_arrays

        def spy(*args, **kwargs):
            calls.append(args[0].shape[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "flare_loss_arrays", spy)
        samples, labels = small_dataset()
        fold = split_timeseries(samples, SplitSpec(fold_count=1))[0]
        cfg = small_config()
        train(*columns(samples, labels), fold, cfg)
        steps = -(-len(fold.train) // cfg.batch_size)
        assert len(fold.train) % cfg.batch_size != 0  # a short last batch is one call too
        assert len(calls) == cfg.epochs * steps
        assert sum(calls) == cfg.epochs * len(fold.train)

    def test_degenerate_split_rejected(self):
        samples, _ = small_dataset(60, feature_dim=3)
        # X appears only in the final test range, never during training
        labels = np.where(np.arange(60) >= 54, 3, np.arange(60) % 3)
        fold = split_timeseries(samples, SplitSpec(fold_count=1))[0]
        with pytest.raises(ValueError, match="degenerate split.*X"):
            train(*columns(samples, labels), fold, small_config(epochs=1, warmup_epochs=0))

    @pytest.mark.parametrize("first", ["training", "validation", "test"])
    def test_each_range_lacking_a_class_rejected_before_set_up(self, monkeypatch, first):
        """train checks the fold's training, validation and test ranges, in that order, before it sets up anything:
        X is missing from the range ``first`` and from every range after it, and the error names ``first``."""
        import flarecast.trainer as trainer_mod

        monkeypatch.setattr(trainer_mod, "init_params", lambda *args: pytest.fail("parameters initialised"))
        samples, labels = small_dataset(60, feature_dim=3)
        fold = split_timeseries(samples, SplitSpec(fold_count=1))[0]
        lacking = {"training": fold.train, "validation": fold.validation, "test": fold.test}[first].start
        labels = np.where(np.arange(60) < lacking, np.arange(60) % 4, np.arange(60) % 3)
        with pytest.raises(ValueError, match=rf"^degenerate split: {first} range is missing class\(es\) X$"):
            train(samples.features, samples.times, labels, fold, small_config(epochs=1, warmup_epochs=0))

    @pytest.mark.parametrize("cut", ["features", "times", "labels"])
    def test_misaligned_columns_rejected(self, cut):
        samples, labels = small_dataset(80, feature_dim=3)
        fold = split_timeseries(samples, SplitSpec(fold_count=1))[0]
        cfg = small_config(epochs=1, warmup_epochs=0)
        given = [c[:-1] if name == cut else c for name, c in zip(("features", "times", "labels"), columns(samples, labels))]
        with pytest.raises(ValueError, match="must be aligned"):
            train(*given, fold, cfg)
        with pytest.raises(ValueError, match="must be aligned"):
            evaluate_fold(*given, fold.test, init_params(3, cfg, np.random.default_rng(0)), cfg)

    def test_times_in_seconds_rejected(self):
        # Sample times in UTC epoch seconds, their unit before they became microseconds, would give wrong cycle phases.
        samples, labels = small_dataset(80, feature_dim=3)
        fold = split_timeseries(samples, SplitSpec(fold_count=1))[0]
        cfg = small_config(epochs=1, warmup_epochs=0)
        seconds = samples.times // 10**6
        message = r"2-hour grid of UTC epoch microseconds; multiply times in seconds by 10\*\*6"
        with pytest.raises(ValueError, match=message):
            train(samples.features, seconds, labels, fold, cfg)
        with pytest.raises(ValueError, match=message):
            evaluate_fold(samples.features, seconds, labels, fold.test, init_params(3, cfg, np.random.default_rng(0)), cfg)

    @pytest.mark.parametrize("form", ["float64", "datetime64[us]"])
    def test_times_of_another_dtype_rejected(self, form):
        # Once cast to int64 as they stood, and datetime64[s] times not even then (their cycle phases were wrong).
        samples, labels = small_dataset(80, feature_dim=3)
        fold = split_timeseries(samples, SplitSpec(fold_count=1))[0]
        cfg = small_config(epochs=1, warmup_epochs=0)
        times = samples.times.astype(form)
        message = rf"^times must be int64 UTC epoch microseconds, got dtype {re.escape(form)}; "
        with pytest.raises(ValueError, match=message):
            train(samples.features, times, labels, fold, cfg)
        with pytest.raises(ValueError, match=message):
            evaluate_fold(samples.features, times, labels, fold.test, init_params(3, cfg, np.random.default_rng(0)), cfg)

    @pytest.mark.parametrize(
        "bad, message",
        [(-1, r"holds -1: class rank outside 0\.\.3$"), (2.5, r"must be integer class ranks, got dtype float64$")],
    )
    def test_labels_outside_classes_rejected(self, bad, message):
        samples, labels = small_dataset(80, feature_dim=3)
        fold = split_timeseries(samples, SplitSpec(fold_count=1))[0]
        labels = np.where(np.arange(80) == 5, bad, labels)
        with pytest.raises(ValueError, match=rf"^labels {message}"):
            train(samples.features, samples.times, labels, fold, small_config(epochs=1, warmup_epochs=0))

    def test_gradient_verification_flag_passes(self):
        samples, labels = small_dataset(80, feature_dim=3)
        fold = split_timeseries(samples, SplitSpec(fold_count=1))[0]
        cfg = small_config(epochs=1, warmup_epochs=0, batch_size=16, hidden_sizes=(4, 4), verify_gradients=True)
        result = train(*columns(samples, labels), fold, cfg)  # raises if analytic and FD gradients disagree
        assert len(result.history) == 1

    def test_gradient_verification_detects_corruption(self, monkeypatch):
        import flarecast.trainer as trainer_mod

        real = trainer_mod._backprop

        def corrupted(x, a0, a1, head_in, d_logits, params, grads):
            real(x, a0, a1, head_in, d_logits, params, grads)
            grads["head"] *= 1.01

        monkeypatch.setattr(trainer_mod, "_backprop", corrupted)
        samples, labels = small_dataset(80, feature_dim=3)
        fold = split_timeseries(samples, SplitSpec(fold_count=1))[0]
        cfg = small_config(epochs=1, warmup_epochs=0, batch_size=16, hidden_sizes=(4, 4), verify_gradients=True)
        with pytest.raises(RuntimeError, match="gradient verification failed"):
            train(*columns(samples, labels), fold, cfg)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(batch_size=26),  # 235 training rows: the last batch holds 1 row
            dict(use_cycle_embedding=False),
            dict(use_class_weights=False),
            dict(warmup_epochs=0, lambda_bss=0.5),
            dict(verify_gradients=True, hidden_sizes=(4, 4)),
        ],
        ids=["last-batch-1-row", "no-embedding", "uniform-weights", "no-warmup", "verify-gradients"],
    )
    @pytest.mark.parametrize("seed", [0, 7])
    def test_loop_bit_equal_to_per_batch_reference(self, overrides, seed):
        samples, labels = small_dataset(n=392, seed=seed)
        fold = split_timeseries(samples, SplitSpec(fold_count=1))[0]
        cfg = small_config(**{"epochs": 3, "warmup_epochs": 1, "seed": seed, **overrides})
        result = train(*columns(samples, labels), fold, cfg)
        history, best_epoch, best_params = train_reference(samples, labels, fold, cfg)
        assert len(fold.train) == 235
        assert [repr(r) for r in result.history] == [repr(r) for r in history]
        assert result.best.epoch == best_epoch
        assert sorted(result.best.params) == sorted(best_params)
        for name, p in best_params.items():
            assert result.best.params[name].tobytes() == p.tobytes(), name

    def test_best_checkpoint_is_a_snapshot(self, monkeypatch):
        import flarecast.trainer as trainer_mod

        live = []
        real = trainer_mod.adamw_step

        def spy(theta, grad, m, v, *args):
            if not live:
                live.extend((theta, grad, m, v))
            real(theta, grad, m, v, *args)

        monkeypatch.setattr(trainer_mod, "adamw_step", spy)
        samples, labels = small_dataset()
        fold = split_timeseries(samples, SplitSpec(fold_count=1))[0]
        cfg = small_config()
        result = train(*columns(samples, labels), fold, cfg)
        assert result.best.epoch < cfg.epochs - 1
        assert result.history[-1].val_gmgs != result.best.val_gmgs
        assert evaluate_fold(*columns(samples, labels), fold.validation, result.best.params, cfg).gmgs == result.best.val_gmgs
        assert len(live) == 4
        for p in result.best.params.values():
            assert not any(np.shares_memory(p, buf) for buf in live)

    def test_evaluate_fold_report(self, run):
        samples, fold, cfg, result = run
        report = evaluate_fold(*columns(*samples), fold.test, result.best.params, cfg)
        assert report.confusion.n == len(fold.test)
        assert np.isfinite(report.gmgs)


class TestArtifacts:
    def test_history_file_format(self, tmp_path):
        samples, labels = small_dataset(200)
        fold = split_timeseries(samples, SplitSpec(fold_count=1))[0]
        cfg = small_config(epochs=2)
        result = train(*columns(samples, labels), fold, cfg)
        path = tmp_path / "history.csv"
        write_history(path, result.history)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,wce,ib_ce,wbss,ib_bss,total,val_gmgs,val_tss,val_bss"
        assert len(lines) == 1 + cfg.epochs
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[5]) == pytest.approx(result.history[0].losses.total)

    def test_history_bytes_deterministic(self, tmp_path):
        samples, labels = small_dataset(200)
        fold = split_timeseries(samples, SplitSpec(fold_count=1))[0]
        cfg = small_config(epochs=2)
        for name in ("a.csv", "b.csv"):
            write_history(tmp_path / name, train(*columns(samples, labels), fold, cfg).history)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_checkpoint_round_trip(self, tmp_path):
        samples, labels = small_dataset(200)
        fold = split_timeseries(samples, SplitSpec(fold_count=1))[0]
        cfg = small_config(epochs=2)
        result = train(*columns(samples, labels), fold, cfg)
        path = tmp_path / "checkpoint.txt"
        save_checkpoint(path, result.best, "seed=0\n")
        params, meta = load_checkpoint(path)
        assert meta["config_hash"] == hashlib.sha256(b"seed=0\n").hexdigest()[:16]
        assert meta["epoch"] == str(result.best.epoch)
        for k in result.best.params:
            assert np.array_equal(params[k], result.best.params[k])

    @pytest.mark.parametrize("value", [np.nan, -np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_refused_before_the_file_exists(self, tmp_path, value):
        # Written as 'nan' or 'inf': a NaN's sign and payload do not survive repr.
        params = {"a": np.array([0.5, value]), "b": np.array([value])}
        path = tmp_path / "checkpoint.txt"
        with pytest.raises(ValueError, match=r"^parameter array 'a' cannot be written: its values must be finite$"):
            save_checkpoint(path, Checkpoint(epoch=0, params=params, val_gmgs=0.0, val_report=None), "seed=0\n")
        assert not path.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda lines: lines[:-1], r"checkpoint\.txt:8: truncated file: array b has no values line"),
            (
                lambda lines: lines[:-1] + [lines[-1].rsplit(" ", 1)[0]],
                r"checkpoint\.txt:8: array b has 1 values, its shape 2 needs 2",
            ),
            (
                lambda lines: lines[:4] + ["array a 3x3"] + lines[5:],
                r"checkpoint\.txt:6: array a has 6 values, its shape 3x3 needs 9",
            ),
            (lambda lines: lines[:6] + ["array b"], r"checkpoint\.txt:7: expected 'array <name> <shape>'"),
            # '²' passed str.isdigit(), and int() then raised without the path or line.
            (
                lambda lines: lines[:6] + ["array b ²"] + lines[7:],
                r"checkpoint\.txt:7: expected 'array <name> <shape>', got 'array b ²'$",
            ),
            (lambda lines: lines + lines[4:6], r"checkpoint\.txt:9: duplicate array a$"),  # once replaced the first a
        ],
        ids=[
            "values-line-missing", "values-line-cut", "shape-mismatch", "header-line-cut", "shape-not-ascii",
            "repeated-array",
        ],
    )
    def test_damaged_checkpoint_names_path_and_line(self, tmp_path, edit, message):
        params = {"a": np.arange(6.0).reshape(2, 3), "b": np.array([0.5, -1.0])}
        path = tmp_path / "checkpoint.txt"
        save_checkpoint(path, Checkpoint(epoch=0, params=params, val_gmgs=0.0, val_report=None), "seed=0\n")
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)
