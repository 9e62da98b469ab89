"""Every name a batchrb module exports in ``__all__`` resolves, so deleting an
object cannot leave a stale export behind, and every module-level import is
used, so deleting its last use cannot leave the import behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import batchrb

MODULES = sorted(
    ["batchrb"] + [f"batchrb.{info.name}" for info in pkgutil.iter_modules(batchrb.__path__)]
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_used(name):
    """Each module-level import is read by the module, listed in ``__all__``,
    or marked ``# noqa: F401`` (an import kept for its side effect)."""
    module = importlib.import_module(name)
    source = Path(module.__file__).read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            continue
        if "# noqa: F401" in " ".join(lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read and bound not in getattr(module, "__all__", []):
                unused.append(bound)
    assert not unused, f"{name} imports unused {unused}"
