"""Public surface: every name a module lists in ``__all__``, every name the
package exports, and every name the README imports resolves, and every README
python block runs."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import flarecast
from flarecast.cli import main

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["core", "cycle", "losses", "metrics", "pipeline", "trainer", "cli"]


def imported_names(source):
    """(module, name) of every ``from flarecast... import name`` in Python
    source; relative imports are read as made from inside the package."""
    pairs = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = f"flarecast.{node.module}" if node.level else node.module
            if module.startswith("flarecast"):
                pairs += [(module, alias.name) for alias in node.names]
    return pairs


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"flarecast.{name}")
    public = getattr(module, "__all__", [])
    assert len(set(public)) == len(public)
    assert [n for n in public if not hasattr(module, n)] == []


def test_package_exports_resolve_and_are_public():
    exports = imported_names(Path(flarecast.__file__).read_text())
    assert exports
    for module_name, name in exports:
        module = importlib.import_module(module_name)
        assert getattr(flarecast, name) is getattr(module, name)
        assert name in getattr(module, "__all__", [name]), f"{module_name}.{name} is not in its __all__"


README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)


def test_readme_imports_resolve():
    names = [pair for block in README_BLOCKS for pair in imported_names(block)]
    assert names
    for module_name, name in names:
        assert hasattr(importlib.import_module(module_name), name), f"README imports {module_name}.{name}"


README_BLOCK_NAMES = [f"block{i}" for i in range(len(README_BLOCKS))]


@pytest.mark.parametrize("name", README_BLOCK_NAMES)
def test_readme_block_runs(name, tmp_path, monkeypatch):
    """Each README python block runs as written, in a directory holding ``data/samples.csv``, ``data/events.csv``
    and ``data/labels.csv`` as ``flarecast gen-data`` and ``label`` write them, and nothing else but their
    ``config.txt``: the Library section cannot drift from what the library takes and refuses."""
    monkeypatch.chdir(tmp_path)
    assert main(["gen-data", "--n", "40", "--out-dir", "data"]) == 0
    label = ["label", "--events", "data/events.csv", "--samples", "data/samples.csv", "--out", "data/labels.csv"]
    assert main(label) == 0
    block = README_BLOCKS[README_BLOCK_NAMES.index(name)]
    exec(compile(block, f"README.md python {name}", "exec"), {"__name__": "readme"})
