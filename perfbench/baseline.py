"""Repeat the benchmark over several seeds and report each metric's spread.

Run from the root of a flarecast checkout::

    python3 perfbench/baseline.py --seeds 1-10 --out baseline.json

For every workload of ``BENCHMARK.json`` it runs ``run.py`` once per seed,
untraced, for the file's ``run_seconds``, and prints per end-to-end metric
the median over seeds and the spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median. With ``--out`` it writes those results, each run's
result object and the output fingerprints per seed; ``run.py`` flags
fingerprints that differ from the ones in ``perfbench/baseline.json``. With
``--against`` it also gives, per metric, how much worse the median is than in
an earlier record and whether that stays within the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPORT_PREFIX = "perfbench-report "


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", help="write the runs, spreads and fingerprints here")
    parser.add_argument("--against", help="an earlier --out record to compare medians with")
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}

    record = {"seconds": seconds, "workloads": {}, "fingerprints": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs, prints = [], {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            report = json.loads(next(l for l in lines if l.startswith(REPORT_PREFIX))[len(REPORT_PREFIX):])
            runs.append({"seed": seed, "result": result, "env": report["env"]})
            prints[str(seed)] = report["fingerprint"]["sha256"]
            verdicts = report["fingerprint"]["vs_baseline"]
            changed = [name for name, v in verdicts.items() if v == "DIFFERS"]
            fingerprint = "differs: " + ",".join(changed) if changed else sorted(set(verdicts.values()))[0]
            print(f"{workload} seed {seed}: correct={result['correct']} fingerprint={fingerprint!r} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name in runs[0]["result"]["metrics"]:
            median, share = spread([r["result"]["metrics"][name]["value"] for r in runs])
            summary[name] = {"median": median, "spread": share}
            line = f"  {workload:<14}{name:<16}median {median:<14.6g}spread {share:.4f}"
            before = earlier.get(workload, {}).get("summary", {}).get(name)
            if before is not None:
                worse = (median - before["median"]) / before["median"]
                if metrics[name]["better"] == "higher":
                    worse = -worse
                verdict = "ok" if worse <= metrics[name]["bound"] else "WORSE THAN BOUND"
                line += f"  worse by {worse:+.4f} vs earlier (bound {metrics[name]['bound']}) {verdict}"
            print(line)
        record["workloads"][workload] = {"summary": summary, "runs": runs}
        record["fingerprints"][workload] = prints
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
