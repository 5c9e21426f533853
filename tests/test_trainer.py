"""Trainer: forward contract, optimizer update rule, training loop schedule,
checkpoint selection, determinism, and file outputs."""

from dataclasses import replace
from datetime import datetime, timezone

import numpy as np
import pytest

from flarecast import SplitSpec, TrainConfig, adamw_step, gen_synthetic, train
from flarecast.pipeline import split_timeseries
from flarecast.trainer import (
    Checkpoint,
    config_hash,
    evaluate_fold,
    init_params,
    load_checkpoint,
    save_checkpoint,
    write_history,
)

from oracles import forward_row

PROBS = [0.4, 0.3, 0.2, 0.1]


def small_dataset(n=400, seed=0, feature_dim=4):
    return gen_synthetic(n, PROBS, seed=seed, feature_dim=feature_dim)


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
        samples = small_dataset(4)
        params = init_params(4, cfg, np.random.default_rng(0))
        for name in params:
            params[name] = np.zeros_like(params[name])
        state = forward_row(samples, 0, params, cfg)
        assert np.allclose(state.probs, 0.25)

    def test_embedding_adds_exactly_one_input_channel(self):
        from flarecast.cycle import cycle_phase

        cfg_off = small_config(use_cycle_embedding=False)
        cfg_on = small_config(use_cycle_embedding=True)
        samples = small_dataset(3)
        params_off = init_params(4, cfg_off, np.random.default_rng(5))
        params_on = {k: v.copy() for k, v in params_off.items()}
        params_on["head"] = np.hstack([params_off["head"], np.zeros((4, 1))])
        for row in range(len(samples)):
            a = forward_row(samples, row, params_off, cfg_off)
            b = forward_row(samples, row, params_on, cfg_on)
            assert b.hidden.size == a.hidden.size + 1
            assert np.array_equal(b.hidden[:-1], a.hidden)
            stamp = datetime.fromtimestamp(int(samples.times[row]), timezone.utc)
            assert b.hidden[-1] == cycle_phase(stamp, cfg_on.cycle)
            assert np.allclose(a.probs, b.probs)

    def test_deterministic(self):
        cfg = small_config()
        samples = small_dataset(2)
        params = init_params(4, cfg, np.random.default_rng(3))
        a = forward_row(samples, 0, params, cfg)
        b = forward_row(samples, 0, params, cfg)
        assert np.array_equal(a.probs, b.probs) and np.array_equal(a.logits, b.logits)

    def test_dimension_mismatch_rejected(self):
        cfg = small_config()
        samples = small_dataset(1, feature_dim=6)
        params = init_params(4, cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="dimension mismatch"):
            forward_row(samples, 0, params, cfg)


class TestAdamwStep:
    def test_decay_only_step_shrinks_exactly(self):
        cfg = small_config(learning_rate=0.1, weight_decay=0.05)
        params = {"w": np.array([2.0, -3.0])}
        grads = {"w": np.zeros(2)}
        new, moments = adamw_step(params, grads, {}, cfg, step_index=1)
        assert np.array_equal(new["w"], params["w"] * (1 - 0.1 * 0.05))
        assert np.array_equal(moments["w"][0], np.zeros(2))

    def test_first_step_is_sign_normalized(self):
        cfg = small_config(learning_rate=0.1, weight_decay=0.0)
        g = np.array([0.5, -2.0, 1e-3])
        params = {"w": np.zeros(3)}
        new, _ = adamw_step(params, {"w": g}, {}, cfg, step_index=1)
        expected = -0.1 * g / (np.abs(g) + cfg.adam_eps)
        assert np.allclose(new["w"], expected, rtol=1e-12)

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
        params = {"w": np.array([1.0])}
        moments = {}
        for t in (1, 2):
            params, moments = adamw_step(params, {"w": np.array([g])}, moments, cfg, step_index=t)
        assert params["w"][0] == pytest.approx(p_ref, rel=1e-15)

    def test_nonfinite_gradient_raises_diverged(self):
        cfg = small_config()
        with pytest.raises(RuntimeError, match="diverged"):
            adamw_step({"w": np.ones(2)}, {"w": np.array([1.0, np.nan])}, {}, cfg, step_index=1)


@pytest.fixture(scope="module")
def run():
    samples = small_dataset()
    fold = split_timeseries(samples, SplitSpec(fold_count=1))[0]
    cfg = small_config()
    return samples, fold, cfg, train(samples, fold, cfg)


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
        again = train(samples, fold, cfg)
        for a, b in zip(result.history, again.history):
            assert a == b
        for k in result.best.params:
            assert np.array_equal(result.best.params[k], again.best.params[k])

    def test_full_warmup_never_activates_influence(self):
        samples = small_dataset(200)
        fold = split_timeseries(samples, SplitSpec(fold_count=1))[0]
        cfg = small_config(epochs=3, warmup_epochs=3)
        result = train(samples, fold, cfg)
        for r in result.history:
            assert r.losses.ib_ce == 0.0 and r.losses.ib_bss == 0.0 and not r.losses.ib_active

    def test_degenerate_split_rejected(self):
        base = small_dataset(60, feature_dim=3)
        # X appears only in the final test range, never during training
        samples = replace(base, labels=np.where(np.arange(60) >= 54, 3, np.arange(60) % 3))
        fold = split_timeseries(samples, SplitSpec(fold_count=1))[0]
        with pytest.raises(ValueError, match="degenerate split.*X"):
            train(samples, fold, small_config(epochs=1, warmup_epochs=0))

    def test_gradient_verification_flag_passes(self):
        samples = small_dataset(80, feature_dim=3)
        fold = split_timeseries(samples, SplitSpec(fold_count=1))[0]
        cfg = small_config(epochs=1, warmup_epochs=0, batch_size=16, hidden_sizes=(4, 4), verify_gradients=True)
        result = train(samples, fold, cfg)  # raises if analytic and FD gradients disagree
        assert len(result.history) == 1

    def test_gradient_verification_detects_corruption(self, monkeypatch):
        import flarecast.trainer as trainer_mod

        real = trainer_mod._backprop

        def corrupted(*args, **kwargs):
            grads = real(*args, **kwargs)
            grads["head"] = grads["head"] * 1.01
            return grads

        monkeypatch.setattr(trainer_mod, "_backprop", corrupted)
        samples = small_dataset(80, feature_dim=3)
        fold = split_timeseries(samples, SplitSpec(fold_count=1))[0]
        cfg = small_config(epochs=1, warmup_epochs=0, batch_size=16, hidden_sizes=(4, 4), verify_gradients=True)
        with pytest.raises(RuntimeError, match="gradient verification failed"):
            train(samples, fold, cfg)

    def test_evaluate_fold_report(self, run):
        samples, fold, cfg, result = run
        report = evaluate_fold(samples, fold.test, result.best.params, cfg)
        assert report.confusion.n == len(fold.test)
        assert np.isfinite(report.gmgs)


class TestArtifacts:
    def test_history_file_format(self, tmp_path):
        samples = small_dataset(200)
        fold = split_timeseries(samples, SplitSpec(fold_count=1))[0]
        cfg = small_config(epochs=2)
        result = train(samples, fold, cfg)
        path = tmp_path / "history.csv"
        write_history(path, result.history)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,wce,ib_ce,wbss,ib_bss,total,val_gmgs,val_tss,val_bss"
        assert len(lines) == 1 + cfg.epochs
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[5]) == pytest.approx(result.history[0].losses.total)

    def test_history_bytes_deterministic(self, tmp_path):
        samples = small_dataset(200)
        fold = split_timeseries(samples, SplitSpec(fold_count=1))[0]
        cfg = small_config(epochs=2)
        for name in ("a.csv", "b.csv"):
            write_history(tmp_path / name, train(samples, fold, cfg).history)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_checkpoint_round_trip(self, tmp_path):
        samples = small_dataset(200)
        fold = split_timeseries(samples, SplitSpec(fold_count=1))[0]
        cfg = small_config(epochs=2)
        result = train(samples, fold, cfg)
        path = tmp_path / "checkpoint.txt"
        save_checkpoint(path, result.best, cfg)
        params, meta = load_checkpoint(path)
        assert meta["config_hash"] == config_hash(cfg)
        assert meta["epoch"] == str(result.best.epoch)
        for k in result.best.params:
            assert np.array_equal(params[k], result.best.params[k])

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
        ],
        ids=["values-line-missing", "values-line-cut", "shape-mismatch", "header-line-cut"],
    )
    def test_damaged_checkpoint_names_path_and_line(self, tmp_path, edit, message):
        params = {"a": np.arange(6.0).reshape(2, 3), "b": np.array([0.5, -1.0])}
        path = tmp_path / "checkpoint.txt"
        save_checkpoint(path, Checkpoint(epoch=0, params=params, val_gmgs=0.0, val_report=None), small_config())
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)

    def test_config_hash_sensitive_to_values(self):
        assert config_hash(small_config()) != config_hash(small_config(seed=2))
        assert config_hash(small_config()) == config_hash(small_config())
