"""Self-test of the benchmark at tiny sizes.

Run from the root of a flarecast checkout (about a minute)::

    python3 perfbench/selftest.py

It runs every workload of ``BENCHMARK.json`` once untraced and once traced,
on a few thousand samples and three epochs, and asserts that every named
end-to-end and per-layer metric is emitted with its unit and that no command
failed. It then corrupts each kind of output (labels, eval report, train
history, test report, checkpoint) to show that the checks catch it, and runs
the benchmark in a directory that holds only ``BENCHMARK.json`` and
``perfbench/``, where it must exit non-zero without a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from checks import check_labels, check_report, check_train, expected_labels
from workloads import workloads

ROOT = Path.cwd()


def assert_metrics(result: dict, declared: list, label: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{label}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{label}: {name} is not a number"
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"], f"{label}: {result}"


def corrupted_outputs_fail() -> None:
    """Flip one label and one GMGS digit of the tiny ingest run: both checks must object."""
    work = ROOT / run.WORK_DIR / "ingest-dense-tiny"
    data = work / "data"
    want = expected_labels(data / "samples.csv", data / "events.csv")
    labels = data / "labels.csv"
    lines = labels.read_text().splitlines()
    sid, name = lines[1].split(",")
    lines[1] = f"{sid},{'X' if name != 'X' else 'O'}"
    labels.write_text("\n".join(lines) + "\n")
    assert check_labels(labels, want), "a flipped label passed the label check"

    report = work / "eval" / "report.csv"
    text = report.read_text()
    gmgs_line = next(line for line in text.splitlines() if line.startswith("gmgs,"))
    report.write_text(text.replace(gmgs_line, f"gmgs,{float(gmgs_line[5:]) + 1e-6!r}"))
    assert check_report(report, want, work / "preds.csv"), "a wrong GMGS passed the report check"


def corrupted_train_outputs_fail() -> None:
    """Drop a history row, move a test confusion count, put a NaN in the checkpoint.

    Each corruption of the tiny train-ref run, undone before the next, must
    make the train check object.
    """
    wl = workloads(tiny=True)["train-ref"]
    out = ROOT / run.WORK_DIR / "train-ref-tiny" / "out"

    def problems():
        return check_train(out, ROOT / "src", wl.epochs, wl.test_size, wl.shapes())

    assert not problems(), f"the tiny train run fails its check: {problems()}"

    def corrupt(name: str, edit, what: str) -> None:
        path = out / name
        text = path.read_text()
        lines = text.splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
        assert problems(), f"{what} passed the train check"
        path.write_text(text)

    def drop_row(lines):
        del lines[-1]

    def move_count(lines):
        i = next(i for i, line in enumerate(lines) if line.startswith("confusion_O_O,"))
        lines[i] = f"confusion_O_O,{int(lines[i].split(',')[1]) + 1}"

    def put_nan(lines):
        i = next(i for i, line in enumerate(lines) if line.startswith("array b0 ")) + 1
        lines[i] = " ".join(["nan"] + lines[i].split()[1:])

    corrupt("history.csv", drop_row, "a missing history row")
    corrupt("test_report.csv", move_count, "a confusion count that does not sum to the test size")
    corrupt("checkpoint.txt", put_nan, "a NaN in the checkpoint")


def bare_directory_fails() -> None:
    bare = ROOT / run.WORK_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-ref", "--seed", "1", "--seconds", "1"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0, "the benchmark succeeded without the flarecast sources"
    assert '"correct"' not in proc.stdout, "the benchmark printed a result without the flarecast sources"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{wl['name']} trace {trace}"
            with contextlib.redirect_stdout(io.StringIO()):
                result = run.run(wl["name"], 1, 1, bool(trace), ROOT, tiny=True)
            assert_metrics(result, declared, label)
            print(f"ok {label}: {result['attempted']} commands, {len(result['metrics'])} metrics")
    corrupted_outputs_fail()
    corrupted_train_outputs_fail()
    print("ok corrupted outputs fail their checks")
    bare_directory_fails()
    print("ok a directory without flarecast sources gives no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
