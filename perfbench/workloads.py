"""The benchmark's workloads: what each sets up, runs, and checks.

Every workload runs the real ``flarecast`` CLI as child processes. The seed
reaches the program only through ``gen-data --seed`` and the generated files.

* ``train-ref`` times ``train`` at the reference size (47,895 samples, 9,000
  small optimizer steps), where per-step Python overhead dominates.
* ``ingest-dense`` times ``gen-data``, ``label`` and ``eval`` on 96,408
  samples at the dense 2-hour cadence; it writes CSV, reads it back and never
  trains, so a change to the trainer should not show here.

Settings the checks depend on (epochs, warm-up, batch, widths, feature
dimension, class mix, spacing) are passed explicitly, so the workloads do not
move when a CLI default does.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from checks import check_labels, check_report, check_train, expected_labels

FEATURE_DIM = 12
DEFAULT_PROBS = "0.38,0.35,0.23,0.04"
# Per-sample class mix whose 72 h window maxima at the 2-hour cadence come out
# near O 38 / C 35 / M 23 / X 4 %, the reference label mix.
DENSE_PROBS = "0.9735,0.0178,0.0076,0.0011"


@dataclass(frozen=True)
class Step:
    """One CLI command, the check of what it wrote, and the files to fingerprint."""

    name: str
    args: Tuple[str, ...]
    check: Optional[Callable[[], List[str]]] = None
    outputs: Tuple[Path, ...] = ()


def gen_step(n: int, seed: int, out: Path, probs: str, spacing: int) -> Step:
    args = (
        "gen-data", "--n", str(n), "--seed", str(seed), "--out-dir", str(out),
        "--feature-dim", str(FEATURE_DIM), "--class-probs", probs, "--spacing-steps", str(spacing),
    )
    return Step("gen", args)


def expected(data: Path) -> Callable[[], Dict[str, int]]:
    """The independent labeling of the files in ``data``, computed once on first use."""
    return functools.cache(lambda: expected_labels(data / "samples.csv", data / "events.csv"))


def label_step(data: Path, want: Callable[[], Dict[str, int]]) -> Step:
    args = (
        "label", "--events", str(data / "events.csv"), "--samples", str(data / "samples.csv"),
        "--out", str(data / "labels.csv"),
    )
    return Step("label", args, lambda: check_labels(data / "labels.csv", want()), (data / "labels.csv",))


@dataclass(frozen=True)
class TrainWorkload:
    """Set-up: ``gen-data`` and ``label``. Timed: ``train`` on fold 3 of 3."""

    name: str
    n: int
    batch: int
    hidden: Tuple[int, int]
    epochs: int = 20
    warmup: int = 5

    # Fold 3 of 3 with the default 0.6 / 0.2 / 0.2 fractions spans all n rows.
    @property
    def train_size(self) -> int:
        return self.n * 3 // 5

    @property
    def test_size(self) -> int:
        return self.n - self.n * 4 // 5

    @property
    def post_warmup_steps(self) -> int:
        return -(-self.train_size // self.batch) * (self.epochs - self.warmup)

    def work_per_rep(self) -> int:
        """Sample-epochs trained by one ``train``."""
        return self.train_size * self.epochs

    def shapes(self) -> Dict[str, tuple]:
        h1, h2 = self.hidden
        return {"w0": (h1, FEATURE_DIM), "b0": (h1,), "w1": (h2, h1), "b1": (h2,), "head": (4, h2 + 1)}

    def prepare(self, work: Path, seed: int) -> None:
        """Set-up done inside the benchmark: none, the CLI builds the inputs."""

    def setup_steps(self, work: Path, seed: int) -> List[Step]:
        data = work / "data"
        return [gen_step(self.n, seed, data, DEFAULT_PROBS, 37), label_step(data, expected(data))]

    def timed_steps(self, work: Path, seed: int, src: Path) -> List[Step]:
        data, out = work / "data", work / "out"
        args = ["train", "--data-dir", str(data), "--out-dir", str(out)]
        for s in (
            "learning_rate=0.01", f"epochs={self.epochs}", f"warmup_epochs={self.warmup}",
            f"batch_size={self.batch}", f"hidden_sizes={self.hidden[0]},{self.hidden[1]}",
        ):
            args += ["--set", s]
        check = lambda: check_train(out, src, self.epochs, self.test_size, self.shapes())
        outputs = tuple(out / f for f in ("history.csv", "checkpoint.txt", "test_report.csv"))
        return [Step("train", tuple(args), check, outputs)]

    def output_dirs(self, work: Path) -> List[Path]:
        return [work / "out"]


@dataclass(frozen=True)
class IngestWorkload:
    """Set-up: a seeded prediction file. Timed: ``gen-data``, ``label``, ``eval``."""

    name: str
    n: int

    @property
    def post_warmup_steps(self) -> int:
        return 0

    def work_per_rep(self) -> int:
        """Samples carried through the chain by one repetition."""
        return self.n

    def prepare(self, work: Path, seed: int) -> None:
        """Write the seeded ``id,p_o,p_c,p_m,p_x`` file that ``eval`` scores.

        Ids follow ``gen-data``'s ``s<index>`` format, zero-padded to the
        width of n, so every generated sample has exactly one prediction.
        """
        work.mkdir(parents=True, exist_ok=True)
        probs = np.random.default_rng(seed).dirichlet(np.ones(4), size=self.n)
        width = len(str(self.n))
        lines = ["id,p_o,p_c,p_m,p_x"]
        lines += [f"s{i:0{width}d},{a!r},{b!r},{c!r},{d!r}" for i, (a, b, c, d) in enumerate(probs.tolist())]
        (work / "preds.csv").write_text("\n".join(lines) + "\n")

    def setup_steps(self, work: Path, seed: int) -> List[Step]:
        return []

    def timed_steps(self, work: Path, seed: int, src: Path) -> List[Step]:
        data, report = work / "data", work / "eval"
        want = expected(data)
        evaluate = Step(
            "eval",
            ("eval", "--preds", str(work / "preds.csv"), "--labels", str(data / "labels.csv"),
             "--out-dir", str(report)),
            lambda: check_report(report / "report.csv", want(), work / "preds.csv"),
            (report / "report.csv",),
        )
        return [gen_step(self.n, seed, data, DENSE_PROBS, 1), label_step(data, want), evaluate]

    def output_dirs(self, work: Path) -> List[Path]:
        return [work / "data", work / "eval"]


def workloads(tiny: bool = False) -> Dict[str, object]:
    """The workloads; ``tiny`` shrinks them for the benchmark's self-test."""
    train_n, epochs, warmup = (2_400, 3, 1) if tiny else (47_895, 20, 5)
    return {
        "train-ref": TrainWorkload("train-ref", train_n, 64, (64, 64), epochs, warmup),
        "ingest-dense": IngestWorkload("ingest-dense", 4_000 if tiny else 96_408),
    }
