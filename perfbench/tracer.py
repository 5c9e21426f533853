"""Span tracer for the benchmark's traced runs.

Run as a script it traces one flarecast command in-process and writes the
spans to a ``.npz`` file when the command ends::

    python3 perfbench/tracer.py SPANS.npz gen-data --n 100 --out-dir data

Every public function of the traced modules is wrapped, and the wrapper is
bound at every module attribute that refers to the function, so callers that
imported it by name (``from .pipeline import read_samples``) go through the
wrapper too. ``Sample.__post_init__`` is wrapped as ``core.sample`` to count
per-row object construction. Nothing in the package itself is edited: a name
that a later version of flarecast drops is simply not traced.

Each span records its name, start, end and the index of its parent span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("cli", "pipeline", "core", "cycle", "losses", "trainer", "metrics")


def _size(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


# Rows handled per call, for the spans whose work scales with a row count.
ROW_COUNTERS = {
    "pipeline.read_samples": lambda args, result: _size(result),
    "core.build_confusion": lambda args, result: _size(args[0]) if args else 0,
    "metrics.build_report": lambda args, result: _size(args[0]) if args else 0,
}


class Tracer:
    """Keeps spans in memory; ``save`` writes them once the traced call ends."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.rows = {}
        self.errors = {layer: 0 for layer in LAYERS}
        self._stack = []

    def wrap(self, name: str, fn):
        spans, stack, rows, errors = self.spans, self._stack, self.rows, self.errors
        layer = name.split(".", 1)[0]
        count_rows = ROW_COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if count_rows is not None:
                rows[name] = rows.get(name, 0) + count_rows(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every traced module."""
        modules = {layer: importlib.import_module(f"flarecast.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ == module.__name__:
                    wrapped[id(value)] = (value, self.wrap(f"{layer}.{attr}", value))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "flarecast" and not mod_name.startswith("flarecast."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        sample = getattr(modules["core"], "Sample", None)
        post_init = vars(sample).get("__post_init__") if sample is not None else None
        if post_init is not None:
            sample.__post_init__ = self.wrap("core.sample", post_init)

    def save(self, path, exit_code: int) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        meta = {"names": names, "rows": self.rows, "errors": self.errors, "exit_code": exit_code}
        np.savez(
            path,
            name=np.array([index[s[0]] for s in self.spans], dtype=np.int32),
            parent=np.array([s[1] for s in self.spans], dtype=np.int64),
            start=np.array([s[2] for s in self.spans], dtype=np.float64),
            end=np.array([s[3] for s in self.spans], dtype=np.float64),
            meta=np.array(json.dumps(meta)),
        )


def load_spans(path) -> dict:
    """Per-span-name totals of one saved trace.

    Returns ``{"spans": {name: {"count", "s", "self_s"}}, "rows", "errors",
    "exit_code"}``. Self time is a span's duration minus its children's; the
    children of one span never overlap, since the traced program runs on one
    thread.
    """
    with np.load(path) as z:
        meta = json.loads(str(z["meta"]))
        name, parent = z["name"], z["parent"]
        duration = z["end"] - z["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
    own = duration - child
    n = len(meta["names"])
    count = np.bincount(name, minlength=n)
    total = np.bincount(name, weights=duration, minlength=n)
    self_total = np.bincount(name, weights=own, minlength=n)
    spans = {
        label: {"count": int(count[i]), "s": float(total[i]), "self_s": float(self_total[i])}
        for i, label in enumerate(meta["names"])
    }
    return {"spans": spans, "rows": meta["rows"], "errors": meta["errors"], "exit_code": meta["exit_code"]}


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.npz COMMAND [ARGS...]", file=sys.stderr)
        return 1
    out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["flarecast.cli"]
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        tracer.save(out, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
