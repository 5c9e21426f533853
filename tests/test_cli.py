"""Command-line surface: flags, file contracts, exit codes, determinism,
config resolution."""

import ast
import csv
import hashlib
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import weakref
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

import flarecast.cli as cli
from flarecast import FlareClass
from flarecast.cli import main
from flarecast import pipeline
from flarecast.pipeline import _SPLIT_BYTES, read_labels, read_samples, write_labels
from flarecast.trainer import Checkpoint, load_checkpoint, save_checkpoint

from oracles import REFERENCE_CONFUSION, pairs_from_matrix

UTC = timezone.utc


def run_cli(*args):
    return main([str(a) for a in args])


def read_metric_csv(path):
    out = {}
    for line in path.read_text().strip().splitlines()[1:]:
        key, _, value = line.partition(",")
        out[key] = value
    return out


class TestGenData:
    def test_deterministic_across_directories(self, tmp_path):
        for d in ("one", "two"):
            assert run_cli("gen-data", "--n", 200, "--seed", 7, "--out-dir", tmp_path / d) == 0
        for name in ("samples.csv", "events.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_label_frequencies_near_targets(self, tmp_path):
        assert run_cli(
            "gen-data", "--n", 1000, "--seed", 3,
            "--class-probs", "0.38,0.35,0.23,0.04", "--out-dir", tmp_path,
        ) == 0
        assert run_cli(
            "label", "--events", tmp_path / "events.csv",
            "--samples", tmp_path / "samples.csv", "--out", tmp_path / "labels.csv",
        ) == 0
        _, ranks = read_labels(tmp_path / "labels.csv")
        freq = np.bincount(ranks, minlength=4) / len(ranks)
        assert np.all(np.abs(freq - [0.38, 0.35, 0.23, 0.04]) <= 0.05)

    def test_zero_n_is_usage_error(self, tmp_path, capsys):
        assert run_cli("gen-data", "--n", 0, "--out-dir", tmp_path) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("n, spacing", [(40, 2_000_000), (3, 17_506_617), (2, 2**62)], ids=["spaced", "last-step", "wide"])
    def test_times_after_year_9999_are_usage_error_leaving_nothing(self, tmp_path, capsys, n, spacing):
        # --n 40 --spacing-steps 2000000 wrote events.csv with the stamp 10225-02-20T12:00:00Z, which label rejected.
        out = tmp_path / "far"
        assert run_cli("gen-data", "--n", n, "--spacing-steps", spacing, "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert "the last sample or its event after 9999-12-31T23:59:59.999999Z" in err and not out.exists()

    def test_bad_class_probs_is_usage_error(self, tmp_path):
        assert run_cli("gen-data", "--n", 10, "--class-probs", "0.5,0.5", "--out-dir", tmp_path) == 1

    def test_config_echo_written(self, tmp_path):
        run_cli("gen-data", "--n", 10, "--seed", 5, "--out-dir", tmp_path)
        echo = (tmp_path / "config.txt").read_text()
        assert "seed=5" in echo and "n=10" in echo


class TestLabel:
    def test_empty_events_give_all_quiet(self, tmp_path):
        run_cli("gen-data", "--n", 20, "--out-dir", tmp_path)
        (tmp_path / "none.csv").write_text("peak_time,class\n")
        run_cli(
            "label", "--events", tmp_path / "none.csv",
            "--samples", tmp_path / "samples.csv", "--out", tmp_path / "labels.csv",
        )
        assert np.all(read_labels(tmp_path / "labels.csv")[1] == FlareClass.O)

    def test_single_event_inside_window(self, tmp_path):
        run_cli("gen-data", "--n", 3, "--seed", 1, "--out-dir", tmp_path)
        samples = (tmp_path / "samples.csv").read_text().splitlines()
        first_ts = samples[1].split(",")[1]
        t0 = datetime.fromisoformat(first_ts.replace("Z", "+00:00"))
        # a single X-class peak 63 hours after the first sample
        peak = (t0 + timedelta(hours=63)).strftime("%Y-%m-%dT%H:%M:%SZ")
        (tmp_path / "one.csv").write_text(f"peak_time,class\n{peak},X\n")
        run_cli(
            "label", "--events", tmp_path / "one.csv",
            "--samples", tmp_path / "samples.csv", "--out", tmp_path / "labels.csv",
        )
        ids, ranks = read_labels(tmp_path / "labels.csv")
        first_id = samples[1].split(",")[0]
        assert ranks[ids.tolist().index(first_id)] == FlareClass.X

    def test_malformed_row_exits_2_naming_line(self, tmp_path, capsys):
        (tmp_path / "events.csv").write_text("peak_time,class\n2020-01-01T00:00:00Z,Q\n")
        run_cli("gen-data", "--n", 3, "--out-dir", tmp_path / "d")
        code = run_cli(
            "label", "--events", tmp_path / "events.csv",
            "--samples", tmp_path / "d" / "samples.csv", "--out", tmp_path / "labels.csv",
        )
        assert code == 2
        assert "events.csv:2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stamp, reason",
        [
            ("2020-01-01T09:00:00Z", "grid"),
            ("2020-01-01T10:00:00.5Z", "grid"),
            ("2020-01-01T10:00:00", "UTC offset"),
        ],
    )
    def test_bad_sample_time_exits_2_naming_line(self, tmp_path, capsys, stamp, reason):
        (tmp_path / "events.csv").write_text("peak_time,class\n")
        (tmp_path / "samples.csv").write_text(
            f"id,timestamp,mask,f0\na,2020-01-01T00:00:00Z,1111111111,0.5\nb,{stamp},1111111111,0.5\n"
        )
        code = run_cli(
            "label", "--events", tmp_path / "events.csv",
            "--samples", tmp_path / "samples.csv", "--out", tmp_path / "labels.csv",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "samples.csv:3" in err and reason in err

    @pytest.mark.parametrize("hours", ["0", "nan", "inf", "1e10", "1e15", "1e-10"])
    def test_unusable_horizon_is_usage_error_before_reading(self, tmp_path, capsys, hours):
        code = run_cli(
            "label", "--events", tmp_path / "missing.csv", "--samples", tmp_path / "missing.csv",
            "--horizon-hours", hours, "--out", tmp_path / "labels.csv",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "usage error: invalid --horizon-hours: horizon must be positive" in err and "Traceback" not in err
        assert not (tmp_path / "labels.csv").exists()

    def test_non_finite_feature_exits_2_naming_line(self, tmp_path, capsys):
        (tmp_path / "events.csv").write_text("peak_time,class\n")
        (tmp_path / "samples.csv").write_text(
            "id,timestamp,mask,f0\na,2020-01-01T00:00:00Z,1111111111,0.5\nb,2020-01-01T02:00:00Z,1111111111,nan\n"
        )
        code = run_cli(
            "label", "--events", tmp_path / "events.csv",
            "--samples", tmp_path / "samples.csv", "--out", tmp_path / "labels.csv",
        )
        assert code == 2
        assert "samples.csv:3: features of id 'b' must be finite" in capsys.readouterr().err
        assert not (tmp_path / "labels.csv").exists()

    def test_header_only_samples_give_header_only_labels(self, tmp_path):
        (tmp_path / "events.csv").write_text("peak_time,class\n2020-01-01T05:00:00Z,X\n")
        (tmp_path / "samples.csv").write_text("id,timestamp,mask,f0,f1\n")
        code = run_cli(
            "label", "--events", tmp_path / "events.csv",
            "--samples", tmp_path / "samples.csv", "--out", tmp_path / "labels.csv",
        )
        assert code == 0
        assert (tmp_path / "labels.csv").read_text().splitlines() == ["id,label"]


def quote_lines(path, *line_nos):
    """Put a ``"`` at the start of each of the file's ``line_nos`` (1-based)."""
    lines = path.read_text().splitlines()
    for i in line_nos:
        lines[i - 1] = '"' + lines[i - 1]
    path.write_text("\n".join(lines) + "\n")


class TestStrayQuote:
    """A ``"`` opening lines 6 and 10 would merge rows 6-10 into one quoted
    id under lenient quoting; no field is quoted, and every command rejects
    it, naming line 6."""

    message = "'\"' is not allowed: CSV files hold no quote"

    def test_label(self, tmp_path, capsys):
        assert run_cli("gen-data", "--n", 300, "--out-dir", tmp_path) == 0
        quote_lines(tmp_path / "samples.csv", 6, 10)
        code = run_cli(
            "label", "--events", tmp_path / "events.csv",
            "--samples", tmp_path / "samples.csv", "--out", tmp_path / "labels.csv",
        )
        assert code == 2
        assert f"{tmp_path / 'samples.csv'}:6: {self.message}" in capsys.readouterr().err
        assert not (tmp_path / "labels.csv").exists()

    @pytest.mark.parametrize("name", ["samples.csv", "labels.csv"])
    def test_train(self, tmp_path, capsys, name):
        make_training_data(tmp_path, n=300)
        quote_lines(tmp_path / name, 6, 10)
        assert run_cli("train", "--data-dir", tmp_path, "--out-dir", tmp_path / "out") == 2
        assert f"{tmp_path / name}:6: {self.message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["preds.csv", "labels.csv"])
    def test_eval(self, tmp_path, capsys, name):
        ids = [f"s{i}" for i in range(300)]
        write_labels(tmp_path / "labels.csv", ids, [i % 4 for i in range(300)])
        write_labels(tmp_path / "preds.csv", ids, [i % 4 for i in range(300)])
        quote_lines(tmp_path / name, 6, 10)
        code = run_cli(
            "eval", "--preds", tmp_path / "preds.csv", "--labels", tmp_path / "labels.csv",
            "--out-dir", tmp_path / "out",
        )
        assert code == 2
        assert f"{tmp_path / name}:6: {self.message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestEval:
    def write_pairs(self, tmp_path, pairs):
        ids = [f"s{i}" for i in range(len(pairs))]
        write_labels(tmp_path / "labels.csv", ids, [obs for obs, _ in pairs])
        write_labels(tmp_path / "preds.csv", ids, [pred for _, pred in pairs])

    def test_perfect_predictions(self, tmp_path, capsys):
        pairs = [(c, c) for c in FlareClass] * 5
        self.write_pairs(tmp_path, pairs)
        code = run_cli(
            "eval", "--preds", tmp_path / "preds.csv", "--labels", tmp_path / "labels.csv",
            "--out-dir", tmp_path / "out",
        )
        assert code == 0
        metrics = read_metric_csv(tmp_path / "out" / "report.csv")
        assert float(metrics["gmgs"]) == pytest.approx(1.0, abs=1e-12)
        assert float(metrics["tss_ge_m"]) == pytest.approx(1.0)
        assert metrics["bss_ge_m"] == "n/a"

    def test_constant_quiet_forecast_scores_zero(self, tmp_path):
        pairs = [(c, FlareClass.O) for c in FlareClass] * 3
        self.write_pairs(tmp_path, pairs)
        run_cli(
            "eval", "--preds", tmp_path / "preds.csv", "--labels", tmp_path / "labels.csv",
            "--out-dir", tmp_path / "out",
        )
        metrics = read_metric_csv(tmp_path / "out" / "report.csv")
        assert abs(float(metrics["gmgs"])) <= 1e-10
        assert float(metrics["tss_ge_m"]) == 0.0

    def test_reference_matrix_influence_ordering(self, tmp_path, capsys):
        self.write_pairs(tmp_path, pairs_from_matrix(REFERENCE_CONFUSION))
        # row-sum climatology: rare-class confusions carry the largest penalty
        run_cli(
            "eval", "--preds", tmp_path / "preds.csv", "--labels", tmp_path / "labels.csv",
            "--out-dir", tmp_path / "rows",
        )
        text = (tmp_path / "rows" / "report.txt").read_text()
        top_row = text.split("top influence", 1)[1].strip().splitlines()[1]
        assert top_row.strip().startswith("X -> C")
        # with the corpus-wide climatology the C->O confusion dominates
        run_cli(
            "eval", "--preds", tmp_path / "preds.csv", "--labels", tmp_path / "labels.csv",
            "--climatology", "0.37937154,0.34675854,0.22937676,0.04449316",
            "--out-dir", tmp_path / "corpus",
        )
        text = (tmp_path / "corpus" / "report.txt").read_text()
        lines = text.split("top influence", 1)[1].strip().splitlines()[1:3]
        assert lines[0].strip().startswith("C -> O")
        assert lines[1].strip().startswith("O -> C")

    def test_probabilistic_predictions_report_bss(self, tmp_path):
        ids = ["a", "b", "c", "d"]
        labels = [FlareClass.X, FlareClass.O, FlareClass.M, FlareClass.C]
        write_labels(tmp_path / "labels.csv", ids, labels)
        rows = ["id,p_o,p_c,p_m,p_x"]
        probs = [
            (0.05, 0.05, 0.2, 0.7),
            (0.7, 0.2, 0.05, 0.05),
            (0.1, 0.2, 0.5, 0.2),
            (0.3, 0.5, 0.1, 0.1),
        ]
        for sid, p in zip(ids, probs):
            rows.append(f"{sid},{p[0]},{p[1]},{p[2]},{p[3]}")
        (tmp_path / "preds.csv").write_text("\n".join(rows) + "\n")
        code = run_cli(
            "eval", "--preds", tmp_path / "preds.csv", "--labels", tmp_path / "labels.csv",
            "--out-dir", tmp_path / "out",
        )
        assert code == 0
        metrics = read_metric_csv(tmp_path / "out" / "report.csv")
        assert metrics["bss_ge_m"] != "n/a"
        assert float(metrics["bss_ge_m"]) > 0.0
        assert metrics["hm"] != "n/a"

    def test_id_mismatch_exits_2_listing_id(self, tmp_path, capsys):
        write_labels(tmp_path / "labels.csv", ["a", "b"], [FlareClass.O, FlareClass.C])
        write_labels(tmp_path / "preds.csv", ["a"], [FlareClass.O])
        code = run_cli(
            "eval", "--preds", tmp_path / "preds.csv", "--labels", tmp_path / "labels.csv",
            "--out-dir", tmp_path / "out",
        )
        assert code == 2
        assert "'b'" in capsys.readouterr().err

    def test_extra_prediction_named_in_file_order(self, tmp_path, capsys):
        write_labels(tmp_path / "labels.csv", ["a", "b"], [FlareClass.O, FlareClass.C])
        write_labels(tmp_path / "preds.csv", ["a", "zz", "b", "c"], [FlareClass.O] * 4)
        code = run_cli(
            "eval", "--preds", tmp_path / "preds.csv", "--labels", tmp_path / "labels.csv",
            "--out-dir", tmp_path / "out",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"id 'zz' in {tmp_path / 'preds.csv'} has no row in {tmp_path / 'labels.csv'}" in err
        assert not (tmp_path / "out").exists()

    def test_oversized_id_exits_2_naming_line(self, tmp_path, capsys):
        write_labels(tmp_path / "labels.csv", ["a"], [FlareClass.O])
        (tmp_path / "preds.csv").write_text("id,label\n" + "x" * 200_000 + ",O\n")
        code = run_cli(
            "eval", "--preds", tmp_path / "preds.csv", "--labels", tmp_path / "labels.csv",
            "--out-dir", tmp_path / "out",
        )
        assert code == 2
        assert "preds.csv:2: id of 200000 characters is longer than 256" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "climatology, reason",
        [
            ("0.5,0.5", "4 probabilities"),
            ("0.5,0.5,0.5,0.5", "sum to 1 (got 2.0)"),
            ("-0.1,0.4,0.4,0.3", "degenerate climatology"),
            ("0,0.5,0.25,0.25", "degenerate climatology"),
        ],
        ids=["count", "sum", "negative", "zero"],
    )
    def test_bad_climatology_is_usage_error_before_reading(self, tmp_path, capsys, climatology, reason):
        (tmp_path / "labels.csv").write_text("not,a,labels,file\n")
        code = run_cli(
            "eval", "--preds", tmp_path / "missing.csv", "--labels", tmp_path / "labels.csv",
            f"--climatology={climatology}", "--out-dir", tmp_path / "out",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "usage error: --climatology" in err and reason in err and "np.float64" not in err
        assert not (tmp_path / "out").exists()

    def test_duplicate_prediction_id_exits_2_naming_line(self, tmp_path, capsys):
        write_labels(tmp_path / "labels.csv", list("abcd"), list(FlareClass))
        write_labels(tmp_path / "preds.csv", list("abcda"), list(FlareClass) + [FlareClass.O])
        code = run_cli(
            "eval", "--preds", tmp_path / "preds.csv", "--labels", tmp_path / "labels.csv",
            "--out-dir", tmp_path / "out",
        )
        assert code == 2
        assert "preds.csv:6: duplicate id 'a'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_duplicate_label_id_exits_2_naming_line(self, tmp_path, capsys):
        write_labels(tmp_path / "labels.csv", list("abca"), list(FlareClass))
        write_labels(tmp_path / "preds.csv", list("abc"), list(FlareClass)[:3])
        code = run_cli(
            "eval", "--preds", tmp_path / "preds.csv", "--labels", tmp_path / "labels.csv",
            "--out-dir", tmp_path / "out",
        )
        assert code == 2
        assert "labels.csv:5: duplicate id 'a'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, where, reason",
        [
            (["id,p_o,p_c,p_m", "a,0.25,0.25,0.5"], 1, "expected header 'id,label' or 'id,p_o,p_c,p_m,p_x'"),
            (["id,p_o,p_c,p_m,p_x", "a,0.25,0.25,0.25,0.25", "b,0.5,0.5,0.0"], 3, "expected 5 fields, got 4"),
            (["id,label", "a,O", "b,C,extra"], 3, "expected 2 fields, got 3"),
            (["id,p_o,p_c,p_m,p_x", "a,0.25,0.25,0.25,0.25", "b,0.5,0.5,0.5,0.5"], 3, "sum to 1"),
            (["id,p_o,p_c,p_m,p_x", "a,1.2,-0.2,0.0,0.0"], 2, "non-negative"),
            (["id,p_o,p_c,p_m,p_x", "a,0.25,0.25,0.25,0.25", "b,nan,0.5,0.25,0.25"], 3, "sum to 1"),
        ],
        ids=["header", "prob-width", "label-width", "sum", "negative", "nan"],
    )
    def test_malformed_predictions_exit_2_naming_line(self, tmp_path, capsys, rows, where, reason):
        write_labels(tmp_path / "labels.csv", ["a", "b"], [FlareClass.O, FlareClass.C])
        (tmp_path / "preds.csv").write_text("\n".join(rows) + "\n")
        code = run_cli(
            "eval", "--preds", tmp_path / "preds.csv", "--labels", tmp_path / "labels.csv",
            "--out-dir", tmp_path / "out",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"preds.csv:{where}: " in err and reason in err
        assert not (tmp_path / "out").exists()


def make_training_data(tmp_path, n=240, seed=2):
    run_cli(
        "gen-data", "--n", n, "--seed", seed, "--feature-dim", 4,
        "--class-probs", "0.4,0.3,0.2,0.1", "--out-dir", tmp_path,
    )
    run_cli(
        "label", "--events", tmp_path / "events.csv",
        "--samples", tmp_path / "samples.csv", "--out", tmp_path / "labels.csv",
    )


BASE_CONFIG = """
# desk-scale run
epochs=3
warmup_epochs=1
learning_rate=0.01
batch_size=32
hidden_sizes=8,8
fold_count=1
seed=4
"""


class TestTrain:
    def test_duplicate_label_id_exits_2(self, tmp_path, capsys):
        make_training_data(tmp_path)
        lines = (tmp_path / "labels.csv").read_text().splitlines()
        (tmp_path / "labels.csv").write_text("\n".join(lines + [lines[1]]) + "\n")
        code = run_cli("train", "--data-dir", tmp_path, "--out-dir", tmp_path / "out")
        assert code == 2
        assert f"labels.csv:{len(lines) + 1}: duplicate id" in capsys.readouterr().err

    def test_unlabeled_sample_exits_2_naming_both_files(self, tmp_path, capsys):
        make_training_data(tmp_path)
        lines = (tmp_path / "labels.csv").read_text().splitlines()
        sid = lines[5].split(",")[0]
        (tmp_path / "labels.csv").write_text("\n".join(lines[:5] + lines[6:]) + "\n")
        code = run_cli("train", "--data-dir", tmp_path, "--out-dir", tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert f"id '{sid}' in {tmp_path / 'samples.csv'} has no row in {tmp_path / 'labels.csv'}" in err
        assert not (tmp_path / "out").exists()

    def test_extra_label_ids_allowed(self, tmp_path, capsys):
        make_training_data(tmp_path)
        with open(tmp_path / "labels.csv", "a") as fh:
            fh.write("not-a-sample,X\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CONFIG)
        assert run_cli("train", "--config", cfg, "--data-dir", tmp_path, "--out-dir", tmp_path / "out") == 0
        assert "0 samples excluded by channel policy" in capsys.readouterr().out

    @pytest.mark.parametrize("line", [2, 241], ids=["training-range", "test-range"])
    def test_non_finite_feature_exits_2_naming_line(self, tmp_path, capsys, line):
        make_training_data(tmp_path)
        lines = (tmp_path / "samples.csv").read_text().splitlines()
        lines[line - 1] = lines[line - 1].rsplit(",", 1)[0] + ",nan"
        (tmp_path / "samples.csv").write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CONFIG)
        code = run_cli("train", "--config", cfg, "--data-dir", tmp_path, "--out-dir", tmp_path / "out")
        assert code == 2
        assert f"samples.csv:{line}: features of id" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_header_only_samples_exit_2(self, tmp_path, capsys):
        (tmp_path / "samples.csv").write_text("id,timestamp,mask,f0\n")
        (tmp_path / "labels.csv").write_text("id,label\n")
        assert run_cli("train", "--data-dir", tmp_path, "--out-dir", tmp_path / "out") == 2
        assert "too few samples (0)" in capsys.readouterr().err

    def test_channel_policy_applied(self, tmp_path, capsys):
        make_training_data(tmp_path, n=600)
        lines = (tmp_path / "samples.csv").read_text().splitlines()
        for i in range(1, len(lines), 2):  # every other row misses three channels
            fields = lines[i].split(",")
            fields[2] = "0001111111"
            lines[i] = ",".join(fields)
        (tmp_path / "samples.csv").write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CONFIG)
        assert run_cli("train", "--config", cfg, "--data-dir", tmp_path, "--out-dir", tmp_path / "out") == 0
        assert "300 samples excluded by channel policy" in capsys.readouterr().out
        # the 300 kept rows split 180/60/60, so the test report counts 60
        metrics = read_metric_csv(tmp_path / "out" / "test_report.csv")
        assert sum(int(v) for k, v in metrics.items() if k.startswith("confusion_")) == 60

    def test_degenerate_test_range_rejected_before_training(self, tmp_path, capsys):
        make_training_data(tmp_path)
        ids, ranks = read_labels(tmp_path / "labels.csv")
        cut = len(ids) * 4 // 5  # the test range of fold_count=1
        calmed = np.where(np.arange(len(ids)) < cut, ranks, np.minimum(ranks, FlareClass.C))
        write_labels(tmp_path / "labels.csv", ids, calmed)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CONFIG)
        code = run_cli("train", "--config", cfg, "--data-dir", tmp_path, "--out-dir", tmp_path / "out")
        assert code == 2
        assert "test range is missing class(es) M, X" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_full_warmup_zeros_influence_columns(self, tmp_path):
        make_training_data(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CONFIG + "warmup_epochs=3\n")
        code = run_cli(
            "train", "--config", cfg, "--data-dir", tmp_path, "--out-dir", tmp_path / "out",
        )
        assert code == 0
        with open(tmp_path / "out" / "history.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert all(float(r["ib_ce"]) == 0.0 and float(r["ib_bss"]) == 0.0 for r in rows)

    def test_identical_runs_identical_history(self, tmp_path):
        make_training_data(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CONFIG)
        for d in ("o1", "o2"):
            assert run_cli("train", "--config", cfg, "--data-dir", tmp_path, "--out-dir", tmp_path / d) == 0
        assert (tmp_path / "o1" / "history.csv").read_bytes() == (tmp_path / "o2" / "history.csv").read_bytes()
        assert (tmp_path / "o1" / "checkpoint.txt").read_bytes() == (tmp_path / "o2" / "checkpoint.txt").read_bytes()

    def test_outputs_and_config_echo(self, tmp_path):
        make_training_data(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CONFIG)
        run_cli("train", "--config", cfg, "--data-dir", tmp_path, "--out-dir", tmp_path / "out")
        out = tmp_path / "out"
        for name in ("history.csv", "checkpoint.txt", "test_report.txt", "test_report.csv", "config.txt"):
            assert (out / name).exists()
        echo = (out / "config.txt").read_text()
        assert "epochs=3" in echo and "warmup_epochs=1" in echo and "fold=0" in echo

    def test_env_and_set_overrides(self, tmp_path, monkeypatch):
        make_training_data(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CONFIG)
        args = ("train", "--config", cfg, "--data-dir", tmp_path, "--set", "seed=9", "--out-dir")
        assert run_cli(*args, tmp_path / "plain") == 0
        for key, value in (("EPOCHS", "2"), ("SEED", "5"), ("LEARNING_RATE", "0.5")):
            monkeypatch.setenv(f"FLARE_{key}", value)  # the environment sets no configuration
        assert run_cli(*args, tmp_path / "out") == 0
        echo = (tmp_path / "out" / "config.txt").read_text()
        assert "\nepochs=3\n" in echo  # the file's value
        assert "\nseed=9\n" in echo    # --set beat the file
        for name in ("config.txt", "history.csv", "checkpoint.txt", "test_report.csv"):
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes(), name

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        make_training_data(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CONFIG + "learning_rte=0.1\n")
        assert run_cli("train", "--config", cfg, "--data-dir", tmp_path, "--out-dir", tmp_path / "o") == 1
        assert "learning_rte" in capsys.readouterr().err

    def test_unknown_ib_ce_mode_is_usage_error_before_reading(self, tmp_path, capsys):
        # the key is gone: a pre-change config.txt's ib_ce_mode=residual line is rejected before any file is read
        code = run_cli(
            "train", "--data-dir", tmp_path / "nope", "--out-dir", tmp_path / "o", "--set", "ib_ce_mode=residual",
        )
        assert code == 1
        assert "unknown configuration key(s): ib_ce_mode" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "key",
        ["learning_rate", "adam_eps", "weight_decay", "lambda_bss", "train_frac", "val_frac", "test_frac", "period_hours"],
    )
    def test_non_finite_value_is_usage_error_before_reading(self, tmp_path, capsys, key, value):
        # the data directory does not exist: the value is rejected before any file is read
        code = run_cli("train", "--data-dir", tmp_path / "nope", "--out-dir", tmp_path / "o", "--set", f"{key}={value}")
        assert code == 1
        assert "invalid configuration" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "args",
        [("train", "--set", "seed=-1"), ("gradcheck", "--seed", "-1")],
        ids=["train", "gradcheck"],
    )
    def test_negative_seed_is_usage_error_before_reading(self, tmp_path, capsys, args):
        # train's data directory does not exist: the seed is rejected before any file is read
        extra = ("--data-dir", tmp_path / "nope", "--out-dir", tmp_path / "o") if args[0] == "train" else ()
        assert run_cli(*args, *extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error") and "non-negative" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            [],
            [
                "hidden_sizes=16,8", "use_cycle_embedding=false", "verify_gradients=yes",
                "learning_rate=1e-3", "base_time=2019-12-01T06:00:00Z", "period_hours=1234.5",
                "fold_count=4", "train_frac=0.7", "val_frac=0.1", "fold=2",
            ],
        ],
        ids=["defaults", "overridden"],
    )
    def test_config_echo_round_trips_through_set(self, tmp_path, overrides):
        cfg, split, fold = cli.resolve_run_config(None, overrides)
        text = cli._write_config(tmp_path, cli._config_items(cfg, split, fold))
        assert (tmp_path / "config.txt").read_text() == text
        (tmp_path / "again").mkdir()
        for source in (None, tmp_path / "config.txt"):  # the lines as --set flags, then the file as --config
            again = cli.resolve_run_config(source, text.splitlines() if source is None else [])
            assert again == (cfg, split, fold)
            assert cli._write_config(tmp_path / "again", cli._config_items(*again)) == text

    @pytest.mark.parametrize(
        "changed",
        [["seed=1"], ["fold=1"], ["train_frac=0.7", "test_frac=0.1"], ["base_time=2009-01-01T00:00:00Z"]],
        ids=["seed", "fold", "train_frac", "base_time"],
    )
    def test_config_hash_follows_every_key(self, tmp_path, changed):
        # fold and the split fractions choose the training range, so they count as much as seed
        checkpoint = Checkpoint(epoch=0, params={"a": np.zeros(2)}, val_gmgs=0.0, val_report=None)
        hashes = []
        for name, overrides in (("default", []), ("changed", changed)):
            out = tmp_path / name
            out.mkdir()
            text = cli._write_config(out, cli._config_items(*cli.resolve_run_config(None, overrides)))
            save_checkpoint(out / "checkpoint.txt", checkpoint, text)
            hashes.append(load_checkpoint(out / "checkpoint.txt")[1]["config_hash"])
        assert hashes[0] != hashes[1]

    def test_checkpoint_hash_is_digest_of_config_txt(self, tmp_path):
        make_training_data(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CONFIG)
        assert run_cli("train", "--config", cfg, "--data-dir", tmp_path, "--out-dir", tmp_path / "out") == 0
        digest = hashlib.sha256((tmp_path / "out" / "config.txt").read_bytes()).hexdigest()[:16]
        assert (tmp_path / "out" / "checkpoint.txt").read_text().splitlines()[1] == f"config_hash={digest}"

        # the run's config.txt, passed back as --config, reproduces the run
        again = tmp_path / "again"
        code = run_cli("train", "--config", tmp_path / "out" / "config.txt", "--data-dir", tmp_path, "--out-dir", again)
        assert code == 0
        for name in ("config.txt", "checkpoint.txt"):
            assert (again / name).read_bytes() == (tmp_path / "out" / name).read_bytes()

    def test_missing_data_dir_exits_2(self, tmp_path):
        assert run_cli("train", "--data-dir", tmp_path / "nope", "--out-dir", tmp_path / "o") == 2

    def test_unwritable_out_dir_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")  # a file where the output directory should go
        code = run_cli("gen-data", "--n", 5, "--out-dir", blocker / "sub")
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_divergence_exits_3(self, tmp_path, monkeypatch, capsys):
        import flarecast.cli as cli

        make_training_data(tmp_path)  # every class in every range, so training starts
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CONFIG)

        def explode(*args, **kwargs):
            raise RuntimeError("diverged: non-finite gradient")

        monkeypatch.setattr(cli, "train", explode)
        code = run_cli("train", "--config", cfg, "--data-dir", tmp_path, "--out-dir", tmp_path / "o")
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("verify", ["false", "true"])  # the third call is a step, or inside verification
    def test_non_finite_loss_exits_3_leaving_no_output(self, tmp_path, monkeypatch, capsys, verify):
        import flarecast.trainer as trainer_mod

        make_training_data(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CONFIG + f"verify_gradients={verify}\n")
        real, calls = trainer_mod.forward, []

        def nan_on_third_call(x, phis, params):
            out = real(x, phis, params)
            calls.append(x.shape[0])
            if len(calls) == 3:
                out[-1][0, 0] = np.nan
            return out

        monkeypatch.setattr(trainer_mod, "forward", nan_on_third_call)
        code = run_cli("train", "--config", cfg, "--data-dir", tmp_path, "--out-dir", tmp_path / "o")
        assert code == 3
        assert "numerical failure: diverged: non-finite loss" in capsys.readouterr().err
        assert len(calls) == 3  # raised on the batch that produced the NaN
        assert not (tmp_path / "o").exists()

    def test_paired_loss_configs_run_end_to_end(self, tmp_path):
        make_training_data(tmp_path, n=300, seed=6)
        flare_cfg = tmp_path / "flare.cfg"
        flare_cfg.write_text(BASE_CONFIG)
        ce_cfg = tmp_path / "ce.cfg"
        ce_cfg.write_text(BASE_CONFIG + "lambda_bss=0\nuse_class_weights=false\nwarmup_epochs=3\n")
        for cfg, out in ((flare_cfg, "flare"), (ce_cfg, "ce")):
            assert run_cli("train", "--config", cfg, "--data-dir", tmp_path, "--out-dir", tmp_path / out) == 0
        flare_metrics = read_metric_csv(tmp_path / "flare" / "test_report.csv")
        ce_metrics = read_metric_csv(tmp_path / "ce" / "test_report.csv")
        assert np.isfinite(float(flare_metrics["gmgs"])) and np.isfinite(float(ce_metrics["gmgs"]))


def hidden_dirs(root):
    """The ``.flarecast-*`` directories under ``root``, where commands write before their files land."""
    return list(Path(root).rglob(".flarecast-*"))


def listing(root):
    """Every file under ``root`` (relative path -> bytes)."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(Path(root).rglob("*")) if p.is_file()}


class TestLanding:
    """A command writes its files into a hidden directory inside its target and moves them into place, config.txt
    last, only when it succeeds: a failed command leaves its target as it was."""

    def test_failed_checkpoint_leaves_no_out_dir(self, tmp_path, monkeypatch, capsys):
        make_training_data(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CONFIG)
        before, written = listing(tmp_path), []

        def disk_full(path, *args):
            written.extend(sorted(p.name for p in Path(path).parent.iterdir()))
            raise OSError(f"disk full: {path}")

        monkeypatch.setattr(cli, "save_checkpoint", disk_full)
        code = run_cli("train", "--config", cfg, "--data-dir", tmp_path, "--out-dir", tmp_path / "runs" / "a")
        assert code == 2 and "data error: disk full" in capsys.readouterr().err
        assert written == ["config.txt", "history.csv"]  # it failed after two files were written
        assert listing(tmp_path) == before and not (tmp_path / "runs").exists()
        assert not hidden_dirs(tmp_path)

    def test_failed_eval_leaves_existing_target_and_success_keeps_other_files(self, tmp_path, monkeypatch):
        write_labels(tmp_path / "labels.csv", [f"s{i}" for i in range(8)], [0, 1, 2, 3] * 2)
        out = tmp_path / "eval"
        out.mkdir()
        old = {"keep.txt": b"mine\n", "report.txt": b"old report\n", "report.csv": b"metric,value\ngmgs,0.5\n"}
        for name, data in old.items():
            (out / name).write_bytes(data)
        args = ("eval", "--preds", tmp_path / "labels.csv", "--labels", tmp_path / "labels.csv", "--out-dir", out)
        real, calls = Path.write_text, []

        def second_write_fails(path, *a, **kw):
            calls.append(path.name)
            if len(calls) == 2:
                raise OSError(f"disk full: {path}")
            return real(path, *a, **kw)

        with monkeypatch.context() as patch:
            patch.setattr(Path, "write_text", second_write_fails)
            assert run_cli(*args) == 2
        assert calls == ["report.txt", "report.csv"]
        assert listing(out) == old and not hidden_dirs(tmp_path)

        assert run_cli(*args) == 0
        landed = listing(out)
        assert sorted(landed) == ["config.txt", "keep.txt", "report.csv", "report.txt"]
        assert landed["keep.txt"] == old["keep.txt"]
        assert landed["report.txt"] != old["report.txt"] and landed["report.csv"] != old["report.csv"]
        assert not hidden_dirs(tmp_path)

    def test_failed_label_leaves_previous_labels(self, tmp_path, monkeypatch, capsys):
        make_training_data(tmp_path)
        before = listing(tmp_path)

        def partial(path, ids, labels):
            with open(path, "w", newline="") as fh:
                fh.write("id,label\r\ns000")
            raise OSError(f"disk full: {path}")

        monkeypatch.setattr(cli, "write_labels", partial)
        args = ("--events", tmp_path / "events.csv", "--samples", tmp_path / "samples.csv")
        assert run_cli("label", *args, "--out", tmp_path / "labels.csv") == 2
        assert run_cli("label", *args, "--out", tmp_path / "new" / "labels.csv") == 2
        assert "data error: disk full" in capsys.readouterr().err
        assert listing(tmp_path) == before and not (tmp_path / "new").exists()
        assert not hidden_dirs(tmp_path)

    def test_label_makes_a_missing_parent(self, tmp_path):
        make_training_data(tmp_path)
        out = tmp_path / "a" / "b" / "labels.csv"
        assert run_cli("label", "--events", tmp_path / "events.csv", "--samples", tmp_path / "samples.csv", "--out", out) == 0
        assert out.read_bytes() == (tmp_path / "labels.csv").read_bytes()
        assert [p.name for p in out.parent.iterdir()] == ["labels.csv"]

    @pytest.mark.parametrize("command", ["gen-data", "eval", "train", "label"])
    def test_target_under_a_file_exits_2_naming_it(self, tmp_path, capsys, command):
        blocker = tmp_path / "blocker"
        blocker.write_text("")  # a regular file where a directory should go
        target = blocker / "sub"
        make_training_data(tmp_path / "data")
        data = tmp_path / "data"
        before = listing(tmp_path)
        args = {
            "gen-data": ("--n", 5, "--out-dir", target),
            "eval": ("--preds", data / "labels.csv", "--labels", data / "labels.csv", "--out-dir", target),
            "train": ("--data-dir", data, "--out-dir", target, "--set", "epochs=1", "--set", "warmup_epochs=0"),
            "label": ("--events", data / "events.csv", "--samples", data / "samples.csv", "--out", target / "l.csv"),
        }[command]
        assert run_cli(command, *args) == 2
        assert f"data error: output directory {target} is not writable: " in capsys.readouterr().err
        assert listing(tmp_path) == before and not hidden_dirs(tmp_path)

    def test_directory_of_an_output_name_lands_no_file(self, tmp_path, capsys):
        """A directory where gen-data's samples.csv would land: the check comes before the first move, so not even
        events.csv, which sorts before it, lands."""
        out = tmp_path / "t"
        (out / "samples.csv").mkdir(parents=True)
        (out / "samples.csv" / "mine.txt").write_text("mine\n")
        before = sorted(tmp_path.rglob("*")), listing(tmp_path)
        assert run_cli("gen-data", "--n", 20, "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert f"data error: output directory {out} holds a directory named samples.csv" in err and ".flarecast-" not in err
        assert (sorted(tmp_path.rglob("*")), listing(tmp_path)) == before

    def test_files_land_from_inside_the_target_config_last(self, tmp_path, monkeypatch):
        real, moves = os.replace, []

        def spy(src, dst):
            moves.append((Path(src).parent, Path(dst)))
            real(src, dst)

        monkeypatch.setattr(cli.os, "replace", spy)
        out = tmp_path / "data"
        assert run_cli("gen-data", "--n", 20, "--out-dir", out) == 0
        assert [dst for _, dst in moves] == [out / "events.csv", out / "samples.csv", out / "config.txt"]
        (hidden,) = {src for src, _ in moves}
        assert hidden.parent == out and hidden.name.startswith(".flarecast-")
        assert sorted(p.name for p in out.iterdir()) == ["config.txt", "events.csv", "samples.csv"]

    def test_killed_command_leaves_only_a_hidden_directory(self, tmp_path):
        """A SIGKILL after samples.csv is written, before events.csv: no visible file, partial or whole."""
        code = (
            "import os, signal, sys, flarecast.cli as cli\n"
            "cli.write_events = lambda *args: os.kill(os.getpid(), signal.SIGKILL)\n"
            "cli.main(['gen-data', '--n', '50', '--out-dir', sys.argv[1]])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")], env=env, capture_output=True)
        assert proc.returncode == -9, proc.stderr
        (hidden,) = (tmp_path / "out").iterdir()
        assert hidden.name.startswith(".flarecast-") and [p.name for p in hidden.iterdir()] == ["samples.csv"]


def table_bytes(path):
    table = read_samples(path)
    return sum(c.nbytes for c in (table.ids, table.times, table.mask, table.features, table.labels))


def traced_peak(*args):
    """The tracemalloc peak of one in-process CLI run, after an untraced run of the same arguments (whose
    lazy imports then happen outside the trace); its last argument is the output, given a new name."""
    assert run_cli(*args[:-1], str(args[-1]) + "-warm") == 0
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert run_cli(*args) == 0
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMemory:
    """``train`` holds one copy of the sample table from the parse on, gathers one batch at a time and
    scores in row blocks; ``label`` holds the parsed table and writes in row blocks.

    numpy reports its data buffers to tracemalloc, so the traced peak of an in-process run is
    deterministic (forked CSV workers are not traced; what they send back is). Copying the table at each
    preparation step and scoring in one pass peaked at about 12 times the table's bytes, one gather with
    scoring blocks of 2,048 rows and a remainder at about 8.2 times; near-equal blocks, per-batch targets
    and dropping the label columns once joined, at about 7.3 times; the read's own columns, batch gathers,
    validation views and the second layer written into the head input, at about 5 times; each range's
    columns landed in place as it arrives, the ids and the mask dropped once joined and blocks of 384 rows,
    at about 4.1 times. Its peak is the one-process read of ``samples.csv``: 4.42 times with ``labels.csv``
    read after it, 4.56 times now that ``labels.csv`` is read first and its columns are held through it. The
    traced bytes rise by those columns while the resident peak falls, because the labels parse's transient
    then lands before the table exists and the samples read reuses the freed heap. ``label`` holding every
    output line and the forked read's parts beside their join peaked at about 2.2 times; it peaks at about
    1.76 times now. A one-process read holding the whole file's texts peaked at about 6.3 times, one holding
    each range's parse until the join at about 3.8 times, and one holding one range's parse at a time peaks
    at about 3.3 times."""

    def test_train_peak_within_six_tables(self, tmp_path):
        data = tmp_path / "data"
        assert run_cli("gen-data", "--n", 6000, "--seed", 3, "--feature-dim", 12, "--out-dir", data) == 0
        assert (data / "samples.csv").stat().st_size < 2 * _SPLIT_BYTES  # read in one process: nothing forks
        assert run_cli(
            "label", "--events", data / "events.csv", "--samples", data / "samples.csv", "--out", data / "labels.csv",
        ) == 0
        nbytes = table_bytes(data / "samples.csv")
        args = ["train", "--data-dir", data]
        for setting in ("epochs=1", "warmup_epochs=0", "learning_rate=0.01", "fold_count=1",
                        "train_frac=0.1", "val_frac=0.8", "test_frac=0.1"):
            args += ["--set", setting]
        peak = traced_peak(*args, "--out-dir", tmp_path / "run")
        assert peak < 6 * nbytes, f"traced peak {peak} B is {peak / nbytes:.2f} times the table's {nbytes} B"

    def test_read_ids_and_mask_dead_while_training(self, tmp_path, monkeypatch):
        # Once the id join and the channel policy are done, cmd_train keeps only the features, times and labels.
        make_training_data(tmp_path)
        refs, read, train = {}, cli.read_samples, cli.train

        def read_spy(path):
            table = read(path)
            refs.update(ids=weakref.ref(table.ids), mask=weakref.ref(table.mask))
            return table

        def train_spy(*args, **kwargs):
            refs["alive"] = [name for name in ("ids", "mask") if refs[name]() is not None]
            return train(*args, **kwargs)

        monkeypatch.setattr(cli, "read_samples", read_spy)
        monkeypatch.setattr(cli, "train", train_spy)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CONFIG)
        assert run_cli("train", "--config", cfg, "--data-dir", tmp_path, "--out-dir", tmp_path / "out") == 0
        assert refs["alive"] == []

    def label_peak(self, tmp_path):
        """The traced peak of ``label`` on a 10,000-row chain, in tables."""
        data = tmp_path / "data"
        assert run_cli("gen-data", "--n", 10_000, "--seed", 3, "--feature-dim", 12, "--out-dir", data) == 0
        assert _SPLIT_BYTES < (data / "samples.csv").stat().st_size < 3 * _SPLIT_BYTES
        peak = traced_peak(
            "label", "--events", data / "events.csv", "--samples", data / "samples.csv", "--out", data / "labels.csv",
        )
        return peak / table_bytes(data / "samples.csv")

    def test_label_peak_within_two_tables(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)  # two workers
        tables = self.label_peak(tmp_path)
        assert tables < 2.0, f"traced peak is {tables:.2f} times the table's bytes"

    def test_one_process_label_peak_within_four_and_a_half_tables(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "_processes", lambda size: 1)  # as on one usable CPU
        tables = self.label_peak(tmp_path)
        assert tables < 4.5, f"traced peak is {tables:.2f} times the table's bytes"


class TestPinnedBytes:
    """The sha256 of what gen-data, label and a probabilistic eval write, at a
    dense and at the default sparse spacing, and at a size whose samples and
    prediction files are read and written by forked workers: the CSV writers
    and readers may get faster, never different."""

    DIGESTS = {
        "1": {
            "samples.csv": "09da54f2987c97d0fce07995fb8874f192fe883c73f64169bf89ec6519974d36",
            "events.csv": "57365920d729b944e4d6448592b2ef14d03b711f5daef999d1e58bbb119b9a57",
            "labels.csv": "a958c1f2ceaf66a31fe707739ef7ff422e0582554f0d27876f292845c830b4df",
            "report.csv": "cd73f506a5a4e2965340ef2bafad8c4eb44d160b9297cd7174307fbeb544c231",
        },
        "37": {
            "samples.csv": "e14237d197d5298256bf7293d240caabac80395cf392a2da0b196499b0a7743f",
            "events.csv": "fc54d7ff2a06045d03e444f3c35958cb86ee3bb3fbce5b7cec53580398faa4be",
            "labels.csv": "2c517f31e877aeb1a3342cd9af41665f5ae13c0976685b1e8a7da00b3d4701d7",
            "report.csv": "2e06ec57a22b80a8bbaa3c855bc7d26a50bdba5dd9186959535e3fde71fa0626",
        },
        "1-split": {
            "samples.csv": "952dcea12101b8c5140ca79bda157980161918a7731707b8f3f697c6a178a467",
            "events.csv": "251c625f0b51218629cb903fad510d378c865aa74948349f930262b472841d81",
            "labels.csv": "45c936455038c70443278e76de71d62a02e0802cd62c83ffc3a5e41fc54a6533",
            "report.csv": "b6ff6d36406657d7f858c89dd996068e9a7b65ce8bc3b23b5093f32a3e79718e",
        },
    }

    @pytest.mark.parametrize("spacing, n", [(1, 3000), (37, 3000), (1, 30_000)], ids=["1", "37", "1-split"])
    def test_chain_outputs_pinned(self, request, tmp_path, spacing, n):
        data = tmp_path / "data"
        assert run_cli(
            "gen-data", "--n", n, "--seed", 1, "--feature-dim", 12,
            "--spacing-steps", spacing, "--class-probs", "0.9735,0.0178,0.0076,0.0011", "--out-dir", data,
        ) == 0
        assert run_cli(
            "label", "--events", data / "events.csv", "--samples", data / "samples.csv", "--out", data / "labels.csv",
        ) == 0
        ids, _ = read_labels(data / "labels.csv")
        raw = np.random.default_rng(spacing).random((len(ids), 4))
        probs = (raw / raw.sum(axis=1, keepdims=True)).tolist()
        preds = tmp_path / "preds.csv"
        preds.write_text("id,p_o,p_c,p_m,p_x\n" + "".join(f"{i},{','.join(map(repr, p))}\n" for i, p in zip(ids, probs)))
        assert run_cli("eval", "--preds", preds, "--labels", data / "labels.csv", "--out-dir", tmp_path / "eval") == 0
        paths = [data / "samples.csv", data / "events.csv", data / "labels.csv", tmp_path / "eval" / "report.csv"]
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
        assert got == self.DIGESTS[request.node.callspec.id]
        assert multiprocessing.active_children() == []


class TestGradcheck:
    def test_default_run_passes(self, capsys):
        assert run_cli("gradcheck", "--trials", 25, "--seed", 0) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3 and "FAIL" not in out

    def test_deterministic_report(self, capsys):
        run_cli("gradcheck", "--trials", 1, "--seed", 0)
        first = capsys.readouterr().out
        run_cli("gradcheck", "--trials", 1, "--seed", 0)
        assert capsys.readouterr().out == first

    def test_exact_report(self, capsys):
        assert run_cli("gradcheck", "--trials", 100, "--seed", 0) == 0
        assert capsys.readouterr().out.splitlines() == [
            "PASS bss head-weight gradient vs central differences: max relative error 4.755e-10 (tolerance 1e-06)",
            "PASS influence factor vs absolute gradient sum: max relative error 5.442e-16 (tolerance 1e-10)",
            "PASS composite loss logit gradient vs central differences: max relative error 1.148e-07 (tolerance 1e-06)",
        ]

    def test_zero_trials_is_usage_error(self):
        assert run_cli("gradcheck", "--trials", 0) == 1

    def test_corrupted_gradient_detected(self, monkeypatch, capsys):
        real = cli._bss_logit_grad
        monkeypatch.setattr(cli, "_bss_logit_grad", lambda p, y: real(p, y) * 1.001)
        assert run_cli("gradcheck", "--trials", 3, "--seed", 1) == 3
        assert "FAIL" in capsys.readouterr().out


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "flarecast.cli", "gradcheck", "--trials", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "PASS" in proc.stdout

    def test_unknown_flag_is_usage_error(self):
        assert run_cli("gen-data", "--n", 5, "--wat", 3) == 1


def child_modules(code, *args):
    """The names that ``code``, run in a new interpreter over this checkout's ``src`` with ``args`` in sys.argv,
    prints as a Python list, the last line of its output."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


class TestImports:
    """A command loads only what it uses. hashlib loads OpenSSL (``_hashlib``, about 3.6 MB resident), and only
    ``save_checkpoint`` hashes; ``numpy.random`` imports it too, so ``train`` and ``gen-data`` still load it.
    ``numpy.ma`` came with ``np.setdiff1d``, and ``multiprocessing`` loads only when a CSV file is worth forking."""

    GUARDED = ("hashlib", "_hashlib", "numpy.ma", "numpy.random", "multiprocessing")

    def test_cli_import_leaves_guarded_modules_out(self):
        code = "import sys, flarecast.cli; print([m for m in sys.argv[1:] if m in sys.modules])"
        assert child_modules(code, *self.GUARDED) == []

    def test_label_leaves_openssl_out(self, tmp_path):
        make_training_data(tmp_path)
        code = (
            "import sys; from flarecast.cli import main\n"
            "assert main(['label', '--events', sys.argv[1], '--samples', sys.argv[2], '--out', sys.argv[3]]) == 0\n"
            "print([m for m in ('hashlib', '_hashlib') if m in sys.modules])"
        )
        out = tmp_path / "again.csv"
        assert child_modules(code, tmp_path / "events.csv", tmp_path / "samples.csv", out) == []
        assert out.read_bytes() == (tmp_path / "labels.csv").read_bytes()
