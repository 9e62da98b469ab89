"""Every name a batchrb module exports in ``__all__`` resolves, so deleting an
object cannot leave a stale export behind."""

import importlib
import pkgutil

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
