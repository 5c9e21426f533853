"""Benchmark of the flarecast CLI chain, end to end and layer by layer.

Run from the root of a flarecast checkout::

    python3 perfbench/run.py --workload train-ref --seed 1 --seconds 45 --trace 0

The workloads are defined in ``workloads.py``. A run builds the workload's
inputs from the seed (the set-up, timed), then repeats the timed commands for
about ``--seconds`` seconds, building the inputs again after each of the first
two repetitions, so the three set-ups are spread over the run. Every command is
a child process started from ``src/`` with BLAS pinned to one thread, timed
from start to exit, with its peak RSS read from its own rusage. Timings are the
median over repetitions.

After the timed loop the outputs of the last repetition are checked, and the
outputs of every other repetition must hash the same, so each command's
output is verified. A command that exits non-zero or whose output fails is
counted in ``failed``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` repeats pairs of
an untraced repetition and a traced one, in which ``tracer.py`` wraps the
public functions of the flarecast modules, and reports the per-layer metrics
and the tracing overhead, each the median over pairs. The order within a pair
alternates; a pair takes 23 to 30 s, so a 45 s run holds two pairs, one in
each order.

Earlier lines of standard output hold a table and a ``perfbench-report`` JSON
line with every sample, the failures, the output fingerprints (flagged where
they differ from the ones recorded in ``baseline.json``) and the run
environment. The last line is the result::

    {"correct": true, "attempted": 8, "failed": 0, "metrics": {...}}
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from checks import fingerprints, read_metric_csv
from tracer import LAYERS, load_spans
from workloads import workloads

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
SETUP_REPEATS = 3  # before the first repetition and after each of the next two
IMPORT_REPEATS = 3
RUN_BUDGET_S = 170.0  # a run must end within 180 s
CLI_CODE = "import sys; from flarecast.cli import main; sys.exit(main())"
PINNED_THREADS = "1"

# Per-command times (gen_s, label_s, train_s, eval_s) are in the report line
# only: each has one to four samples per run, too few to be steady here.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "throughput_sps": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics read from span totals: (metric, span name, field).
SPAN_METRICS = [
    ("cli.cmd_gen_data.self_s", "cli.cmd_gen_data", "self_s"),
    ("cli.cmd_label.self_s", "cli.cmd_label", "self_s"),
    ("cli.cmd_eval.self_s", "cli.cmd_eval", "self_s"),
    ("cli.cmd_train.self_s", "cli.cmd_train", "self_s"),
    *((f"pipeline.{f}.s", f"pipeline.{f}", "s") for f in (
        "gen_synthetic", "write_samples", "write_events", "read_samples", "read_labels",
        "read_events", "label_samples", "write_labels", "split_timeseries",
    )),
    ("pipeline.read_samples.rows", "pipeline.read_samples", "rows"),
    ("core.sample.count", "core.sample", "count"),
    ("core.sample.s", "core.sample", "s"),
    ("core.build_confusion.s", "core.build_confusion", "s"),
    ("core.build_confusion.rows", "core.build_confusion", "rows"),
    ("cycle.cycle_phase.count", "cycle.cycle_phase", "count"),
    ("cycle.cycle_phase.s", "cycle.cycle_phase", "s"),
    ("losses.flare_loss_arrays.s", "losses.flare_loss_arrays", "s"),
    ("losses.flare_loss_grad_arrays.s", "losses.flare_loss_grad_arrays", "s"),
    ("losses.batch_factors_arrays.count", "losses.batch_factors_arrays", "count"),
    ("trainer.adamw_step.s", "trainer.adamw_step", "s"),
    ("trainer.adamw_step.count", "trainer.adamw_step", "count"),
    ("trainer.train.self_s", "trainer.train", "self_s"),
    ("trainer.evaluate_fold.s", "trainer.evaluate_fold", "s"),
    ("trainer.save_checkpoint.s", "trainer.save_checkpoint", "s"),
    ("trainer.write_history.s", "trainer.write_history", "s"),
    ("metrics.build_report.s", "metrics.build_report", "s"),
    ("metrics.build_report.count", "metrics.build_report", "count"),
    ("metrics.build_report.rows", "metrics.build_report", "rows"),
    ("metrics.bss_ge_m.s", "metrics.bss_ge_m", "s"),
]

PER_LAYER = {
    "cli.import_s": "s",
    **{m: "count" if field in ("count", "rows") else "s" for m, _, field in SPAN_METRICS},
    "losses.factor_useful_ratio": "ratio",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trainer.test_gmgs": "score",
    "trainer.test_tss": "score",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


class SetupError(Exception):
    """The workload's inputs could not be built; the run has no result."""


class Runner:
    """Starts CLI children from one checkout and keeps the tally of commands."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.src = root / "src"
        self.work = work
        self.logs = work / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("FLARE_")}
        self.env.update(
            PYTHONPATH=str(self.src),
            PYTHONHASHSEED="0",
            OPENBLAS_NUM_THREADS=PINNED_THREADS,
            OMP_NUM_THREADS=PINNED_THREADS,
            MKL_NUM_THREADS=PINNED_THREADS,
        )
        self.attempted = 0
        self.failures: List[str] = []
        self._serial = 0

    def spawn(self, argv: List[str], label: str) -> dict:
        """Run one child to completion; wall time from start to exit, peak RSS from wait4."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise SetupError(f"out of time before {label}")
        self._serial += 1
        log = self.logs / f"{self._serial:03d}-{label}.log"
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out, stderr=subprocess.STDOUT)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "rc": proc.returncode, "log": log}

    def command(self, step, trace_out: str = "") -> dict:
        """Run a CLI step, plainly or under the tracer; a non-zero exit is a failure."""
        if trace_out:
            argv = [sys.executable, str(HERE / "tracer.py"), trace_out, *step.args]
        else:
            argv = [sys.executable, "-c", CLI_CODE, *step.args]
        self.attempted += 1
        result = self.spawn(argv, step.name + ("-traced" if trace_out else ""))
        if result["rc"] != 0:
            tail = result["log"].read_text(errors="replace").strip().splitlines()[-1:]
            self.failures.append(f"{step.name} exited {result['rc']}: {' '.join(tail)}")
        return result

    def check(self, step) -> None:
        if step.check is None:
            return
        try:
            problems = step.check()
        except Exception as exc:  # a malformed output is a failed check, not a crashed run
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append(f"{step.name}: " + "; ".join(problems))


def _clear(paths) -> None:
    for p in paths:
        shutil.rmtree(p, ignore_errors=True)


def _pass(runner: Runner, steps, trace_dir: Optional[Path] = None) -> dict:
    """Run ``steps`` in order; stop at the first that fails. Returns times and fingerprints."""
    out = {"steps": steps, "cmd_s": {}, "rss_mb": 0.0, "outputs": {}, "traces": []}
    for i, step in enumerate(steps):
        trace_out = ""
        if trace_dir is not None:
            trace_out = str(trace_dir / f"{i}-{step.name}.npz")
            out["traces"].append(trace_out)
        result = runner.command(step, trace_out)
        out["cmd_s"][step.name] = result["wall_s"]
        out["rss_mb"] = max(out["rss_mb"], result["rss_mb"])
        out["outputs"][step.name] = fingerprints(step.outputs)
        if result["rc"] != 0:
            out["ok"] = False
            return out
    out["ok"] = True
    return out


def verify(runner: Runner, passes: List[dict]) -> None:
    """Check the last pass's outputs; every other pass must have written the same bytes."""
    last = passes[-1]
    if last["ok"]:
        for step in last["steps"]:
            runner.check(step)
    for i, p in enumerate(passes[:-1]):
        for name, digests in p["outputs"].items():
            if digests != last["outputs"].get(name):
                runner.failures.append(f"{name}: output of pass {i + 1} differs from the checked pass")


class SetUp:
    """Builds the workload's inputs up to ``repeats`` times and keeps the times.

    A set-up's time is the benchmark's own input writing plus the wall time
    of its CLI commands. The builds are spread between the timed
    repetitions, so that their median, ``setup_s``, samples the whole run.
    """

    def __init__(self, runner: Runner, wl, seed: int, repeats: int):
        self.runner, self.wl, self.seed, self.repeats = runner, wl, seed, repeats
        self.times: Dict[str, List[float]] = {"setup_s": []}
        self.passes: List[dict] = []

    def next(self) -> None:
        """Build once more, unless ``repeats`` builds are done."""
        if len(self.passes) < self.repeats:
            self._build()

    def _build(self) -> None:
        runner, work = self.runner, self.runner.work
        start = time.perf_counter()
        self.wl.prepare(work, self.seed)
        prepared = time.perf_counter() - start
        p = _pass(runner, self.wl.setup_steps(work, self.seed))
        if not p["ok"]:
            raise SetupError(runner.failures[-1])
        for name, wall in p["cmd_s"].items():
            self.times.setdefault(f"{name}_s", []).append(wall)
        self.times["setup_s"].append(prepared + sum(p["cmd_s"].values()))
        self.passes.append(p)

    def complete(self) -> None:
        while len(self.passes) < self.repeats:
            self._build()


def repetition(runner: Runner, wl, seed: int, trace_dir: Optional[Path] = None) -> dict:
    """One pass over the timed commands; under the tracer if ``trace_dir`` is given."""
    _clear(wl.output_dirs(runner.work))
    rep = _pass(runner, wl.timed_steps(runner.work, seed, runner.src), trace_dir)
    rep["wall_s"] = sum(rep["cmd_s"].values())
    test_report = runner.work / "out" / "test_report.csv"
    if test_report.exists():
        scores = read_metric_csv(test_report)
        rep["test_gmgs"], rep["test_tss"] = float(scores["gmgs"]), float(scores["tss_ge_m"])
    return rep


def repeat(seconds: float, runner: Runner, once, between=lambda: None) -> list:
    """Call ``once`` as many times as fit ``seconds`` best, at least once.

    Another call starts while the timed total should end before ``seconds``
    plus half a call, so the count is the nearest to ``seconds`` over the
    call's length. ``between`` runs after each call and is not timed.
    """
    results = []
    timed = 0.0
    while True:
        begun = time.perf_counter()
        results.append(once())
        took = time.perf_counter() - begun
        timed += took
        between()
        if timed + took / 2 > seconds or time.monotonic() + 1.5 * took > runner.deadline:
            return results


def summarize(values: List[float]) -> dict:
    """Median and the tail (the largest value: a run holds too few samples for a percentile)."""
    return {"median": statistics.median(values), "max": max(values), "n": len(values)}


def end_to_end(wl, setup_times: Dict[str, List[float]], reps: List[dict]) -> Dict[str, dict]:
    samples = dict(setup_times)
    for rep in reps:
        for name, wall in rep["cmd_s"].items():
            samples.setdefault(f"{name}_s", []).append(wall)
    samples["wall_s"] = [r["wall_s"] for r in reps]
    samples["throughput_sps"] = [wl.work_per_rep() / r["wall_s"] for r in reps]
    samples["peak_rss_mb"] = [r["rss_mb"] for r in reps]
    for score in ("test_gmgs", "test_tss"):
        if score in reps[-1]:
            samples[score] = [r[score] for r in reps]
    return {name: summarize(v) for name, v in samples.items()}


def layer_metrics(wl, rep: dict, import_s: float, untraced_wall: float) -> Dict[str, float]:
    spans: Dict[str, dict] = {}
    rows: Dict[str, int] = {}
    errors = {layer: 0 for layer in LAYERS}
    for path in rep["traces"]:
        if not os.path.exists(path):
            continue
        trace = load_spans(path)
        for name, agg in trace["spans"].items():
            into = spans.setdefault(name, {"count": 0, "s": 0.0, "self_s": 0.0})
            for k in into:
                into[k] += agg[k]
        for name, n in trace["rows"].items():
            rows[name] = rows.get(name, 0) + n
        for layer, n in trace["errors"].items():
            errors[layer] += n
    out = {"cli.import_s": import_s}
    for metric, span, field in SPAN_METRICS:
        out[metric] = rows.get(span, 0) if field == "rows" else spans.get(span, {}).get(field, 0)
    factor_calls = out["losses.batch_factors_arrays.count"]
    out["losses.factor_useful_ratio"] = wl.post_warmup_steps / factor_calls if factor_calls else 0.0
    for layer in LAYERS:
        out[f"{layer}.errors"] = errors[layer]
    out["trainer.test_gmgs"] = rep.get("test_gmgs", 0.0)
    out["trainer.test_tss"] = rep.get("test_tss", 0.0)
    out["trace.spans"] = sum(a["count"] for a in spans.values())
    out["trace.wall_s"] = rep["wall_s"]
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = rep["wall_s"] - untraced_wall
    out["trace.overhead_pct"] = 100.0 * (rep["wall_s"] - untraced_wall) / untraced_wall
    return out


def environment(root: Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(PINNED_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def fingerprint_flags(workload: str, seed: int, passes: List[dict]) -> dict:
    """Output hashes of the run, compared with ``baseline.json`` where it recorded this seed."""
    current = {name: d for p in passes for digests in p["outputs"].values() for name, d in digests.items()}
    recorded = {}
    baseline = HERE / "baseline.json"
    if baseline.exists():
        recorded = json.loads(baseline.read_text())["fingerprints"].get(workload, {}).get(str(seed), {})
    verdict = {
        name: "no baseline for this seed" if name not in recorded else
        "match" if recorded[name] == digest else "DIFFERS"
        for name, digest in current.items()
    }
    return {"sha256": current, "vs_baseline": verdict}


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path, tiny: bool = False) -> dict:
    """One benchmark run; prints the table and report line and returns the result object."""
    wl = workloads(tiny)[workload]
    work = root / WORK_DIR / (f"{workload}-tiny" if tiny else workload)
    _clear([work])
    runner = Runner(root, work, time.monotonic() + RUN_BUDGET_S)
    warm = runner.spawn([sys.executable, "-c", "import flarecast.cli"], "warm-import")
    if warm["rc"] != 0:
        raise SetupError(f"flarecast does not import from {runner.src}; see {warm['log']}")
    setup = SetUp(runner, wl, seed, 1 if trace else SETUP_REPEATS)
    setup.next()
    report = {"workload": workload, "seed": seed, "trace": int(trace), "env": environment(root, seed)}

    if not trace:
        reps = repeat(seconds, runner, lambda: repetition(runner, wl, seed), setup.next)
        setup.complete()
        timings = end_to_end(wl, setup.times, reps)
        metrics = {name: {"value": timings[name]["median"], "unit": unit} for name, unit in END_TO_END.items()}
        report["timings"] = timings
    else:
        imports = [
            runner.spawn([sys.executable, "-c", "import flarecast"], "import")["wall_s"]
            for _ in range(IMPORT_REPEATS)
        ]
        trace_dir = work / "traces"
        traced_first = itertools.cycle((False, True))

        def traced_rep():
            _clear([trace_dir])
            trace_dir.mkdir(parents=True)
            return repetition(runner, wl, seed, trace_dir)

        def pair():
            # Every other pair runs the traced repetition first, so that over
            # two pairs a steady drift of the machine's speed cancels out of
            # the overhead.
            if next(traced_first):
                traced = traced_rep()
                plain = repetition(runner, wl, seed)
            else:
                plain = repetition(runner, wl, seed)
                traced = traced_rep()
            return plain, traced, layer_metrics(wl, traced, statistics.median(imports), plain["wall_s"])

        pairs = repeat(seconds, runner, pair)
        reps = [r for p in pairs for r in p[:2]]
        metrics = {
            name: {"value": statistics.median(p[2][name] for p in pairs), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    verify(runner, setup.passes)
    verify(runner, reps)
    report["samples"] = [{k: r[k] for k in ("cmd_s", "wall_s", "rss_mb")} for r in reps]
    report["fingerprint"] = fingerprint_flags(workload, seed, [setup.passes[-1], reps[-1]])
    report["error_rate"] = len(runner.failures) / runner.attempted
    report["failures"] = runner.failures
    print_table(report, metrics)
    print("perfbench-report " + json.dumps(report, sort_keys=True))
    return {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }


def print_table(report: dict, metrics: dict) -> None:
    print(f"{report['workload']} seed {report['seed']} trace {report['trace']}: "
          f"error_rate {report['error_rate']:.4f} ({len(report['failures'])} failed)")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    if "timings" in report:
        print(f"  {'metric':<16}{'median':>14}{'max':>14}{'n':>4}  unit")
        for name, s in report["timings"].items():
            unit = END_TO_END.get(name) or ("score" if name.startswith("test_") else "s")
            print(f"  {name:<16}{s['median']:>14.6g}{s['max']:>14.6g}{s['n']:>4}  {unit}")
    else:
        for name, m in metrics.items():
            print(f"  {name:<36}{m['value']:>14.6g}  {m['unit']}")
    changed = [f for f, v in report["fingerprint"]["vs_baseline"].items() if v == "DIFFERS"]
    if changed:
        print(f"  fingerprint differs from baseline.json: {', '.join(changed)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "flarecast" / "cli.py").is_file():
        print(f"perfbench: no flarecast sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
