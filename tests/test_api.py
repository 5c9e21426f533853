"""Public surface: every name a module lists in ``__all__``, every name the
package exports, and every name the README imports resolves."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import flarecast

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


def test_readme_imports_resolve():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
    names = [pair for block in blocks for pair in imported_names(block)]
    assert names
    for module_name, name in names:
        assert hasattr(importlib.import_module(module_name), name), f"README imports {module_name}.{name}"
