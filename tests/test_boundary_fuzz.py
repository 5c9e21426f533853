"""Malformed inputs at the CLI boundary: mutated files of a small valid chain
run through ``label``, ``train`` and ``eval`` in process. Each run is either
processed (exit 0) or rejected (exit 2) with a message that names the file and
line, or the id join's ``id ... in ... has no row in ...``; never a traceback.
A rejected run leaves no output, and no run leaves its hidden ``.flarecast-*``
directory. What ``label`` and ``eval`` accept, they must compute as the row
oracles of ``oracles.py`` do from the same files."""

import io
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flarecast.cli import main
from flarecast.core import EPOCH, FlareClass

from oracles import confusion_loop, label_max_class, read_events_rows, read_id_classes_rows, read_samples_rows

TRAIN_SETTINGS = ["epochs=1", "warmup_epochs=0", "learning_rate=0.01", "batch_size=32", "hidden_sizes=4,4",
                  "fold_count=1"]

# The commands that read each file of the chain.
READERS = {
    "samples.csv": ("label", "train"),
    "events.csv": ("label",),
    "labels.csv": ("train", "eval"),
    "preds.csv": ("eval",),
}

# Bytes an insertion draws from: separators, line ends, number characters, a
# byte that is not UTF-8, a non-breaking space and a full-width digit.
INSERTS = [b",", b"\n", b"\r", b"\r\n", b" ", b"\t", b"x", b"-", b".", b"0", b"9", b"Z", b"_", b"n",
           b"\xff", b"\xc3", b"\xc2\xa0", b"\xef\xbc\x91"]


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """A valid chain of 160 samples: samples, events, their labels and a probability file."""
    d = tmp_path_factory.mktemp("chain")
    with redirect_stdout(io.StringIO()):
        assert main(["gen-data", "--n", "160", "--seed", "3", "--feature-dim", "3",
                     "--class-probs", "0.25,0.25,0.25,0.25", "--out-dir", str(d)]) == 0
        assert main(["label", "--events", str(d / "events.csv"), "--samples", str(d / "samples.csv"),
                     "--out", str(d / "labels.csv")]) == 0
    ids = [line.split(",")[0] for line in (d / "labels.csv").read_text().splitlines()[1:]]
    probs = np.random.default_rng(3).dirichlet(np.ones(4), len(ids)).tolist()
    (d / "preds.csv").write_text("id,p_o,p_c,p_m,p_x\n" + "".join(
        sid + "".join("," + repr(p) for p in row) + "\n" for sid, row in zip(ids, probs)
    ))
    return {name: (d / name).read_bytes() for name in READERS}


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """``data`` after one to three mutations; every field it writes stays within 300 characters."""
    for _ in range(draw(st.integers(1, 3))):
        lines = data.splitlines(keepends=True) or [b""]
        # Drawn from ranges rather than as integers, which hypothesis draws near 0, in the header, most often.
        i, j = draw(st.sampled_from(range(len(lines)))), draw(st.sampled_from(range(len(lines))))
        at = draw(st.sampled_from(range(len(data) + 1)))
        kind = draw(st.sampled_from([
            "insert", "drop bytes", "duplicate line", "drop line", "swap lines", "quote", "bom", "line ends",
            "nul", "separator", "long field", "header",
        ]))
        if kind == "insert":
            data = data[:at] + draw(st.sampled_from(INSERTS)) + data[at:]
        elif kind == "drop bytes":
            data = data[:at] + data[at + draw(st.integers(1, 3)):]
        elif kind == "duplicate line":
            lines.insert(j, lines[i])
            data = b"".join(lines)
        elif kind == "drop line":
            data = b"".join(lines[:i] + lines[i + 1:])
        elif kind == "swap lines":
            lines[i], lines[j] = lines[j], lines[i]
            data = b"".join(lines)
        elif kind == "quote":
            data = data[:at] + b'"' + data[at:]
        elif kind == "bom":
            data = b"\xef\xbb\xbf" + data
        elif kind == "line ends":
            ends = draw(st.lists(st.sampled_from([b"\n", b"\r", b"\r\n"]), min_size=len(lines), max_size=len(lines)))
            data = b"".join(line.rstrip(b"\r\n") + end for line, end in zip(lines, ends))
        elif kind == "nul":
            data = data[:at] + b"\x00" + data[at:]
        elif kind == "separator":
            data = data[:at] + draw(st.sampled_from([b"\x1c", b"\x1d", b"\x1e", b"\x1f"])) + data[at:]
        elif kind == "long field":
            body, end = lines[i].rstrip(b"\r\n"), lines[i][len(lines[i].rstrip(b"\r\n")):]
            fields = body.split(b",")
            k = draw(st.integers(0, len(fields) - 1))
            width = draw(st.integers(100, 300))
            fields[k] = draw(st.sampled_from([b"z" * width, fields[k].rjust(width)]))[:300]
            lines[i] = b",".join(fields) + end
            data = b"".join(lines)
        else:  # header
            body, end = lines[0].rstrip(b"\r\n"), lines[0][len(lines[0].rstrip(b"\r\n")):]
            pad = draw(st.sampled_from([b" ", b"\t", b""]))
            body = draw(st.sampled_from([body.upper(), body.title(), body]))
            lines[0] = pad + body.replace(b",", pad + b"," + pad) + pad + end
            data = b"".join(lines)
    return data


def labels_rows(path):
    """The ids and class ranks of an ``id,label`` file, read by the row oracle."""
    ids, ranks, _ = read_id_classes_rows(path, ["id", "label"])
    return ids, ranks.tolist()


def check_label(d):
    """``label``'s output equals the row oracles' labeling of the same samples and events."""
    table = read_samples_rows(d / "samples.csv")
    peak_us, ranks = read_events_rows(d / "events.csv")
    want = [int(label_max_class(EPOCH + timedelta(microseconds=int(t)), peak_us, ranks)) for t in table.times.tolist()]
    assert labels_rows(d / "out.csv") == (table.ids.tolist(), want)


def check_eval(d):
    """``eval``'s confusion counts equal one count per prediction row, each joined to its label by id and,
    for a probability row, scaled to sum 1 and argmaxed as ``read_predictions`` does."""
    observed = dict(zip(*labels_rows(d / "labels.csv")))
    ids, ranks, probs = read_id_classes_rows(d / "preds.csv", ["id", "label"], ["id", "p_o", "p_c", "p_m", "p_x"])
    predicted = ranks if probs is None else (probs / probs.sum(axis=1, keepdims=True)).argmax(axis=1)
    counts = confusion_loop((observed[sid], int(p)) for sid, p in zip(ids, predicted))
    report = dict(line.split(",") for line in (d / "eval" / "report.csv").read_text().splitlines()[1:])
    assert [[int(report[f"confusion_{o.name}_{p.name}"]) for p in FlareClass] for o in FlareClass] == counts.tolist()


def run(*args):
    """Exit code and stderr of one in-process run; an exception escaping ``main`` fails the test."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, err.getvalue()


@settings(max_examples=600, derandomize=True, deadline=None)
@given(name=st.sampled_from(sorted(READERS)), data=st.data())
def test_mutated_inputs_exit_0_or_2_naming_line(chain, tmp_path_factory, name, data):
    d = tmp_path_factory.mktemp("case")
    for other, content in chain.items():
        (d / other).write_bytes(content)
    (d / name).write_bytes(data.draw(mutated(chain[name])))
    commands = {
        "label": ("label", "--events", d / "events.csv", "--samples", d / "samples.csv", "--out", d / "out.csv"),
        "train": ("train", "--data-dir", d, "--out-dir", d / "run",
                  *[a for s in TRAIN_SETTINGS for a in ("--set", s)]),
        "eval": ("eval", "--preds", d / "preds.csv", "--labels", d / "labels.csv", "--out-dir", d / "eval"),
    }
    outputs = {"label": d / "out.csv", "train": d / "run", "eval": d / "eval"}
    files = "|".join(re.escape(str(d / f)) for f in READERS)
    for command in READERS[name]:
        code, err = run(*commands[command])
        assert code in (0, 2), (command, code, err)
        assert "Traceback" not in err
        assert not list(d.rglob(".flarecast-*")), command
        if code == 2:
            assert not outputs[command].exists(), command
            assert re.match(rf"data error: ((?:{files}):\d+: |id '.*' in (?:{files}) has no row in (?:{files})$)",
                            err, re.S), (command, err)
        elif command == "label":
            check_label(d)
        elif command == "eval":
            check_eval(d)
    shutil.rmtree(d)
