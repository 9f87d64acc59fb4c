"""Every public name of the package resolves: the ``__all__`` of each
module, and the entry points the benchmark's tracer wraps by name."""

import importlib
import pkgutil
import runpy
from pathlib import Path

import pytest

import unravel

MODULES = sorted(info.name for info in pkgutil.iter_modules(unravel.__path__))
TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"unravel.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def test_traced_entry_points_resolve():
    """``bench/tracing.py`` wraps each (module, name) with getattr; a name
    deleted from the package would break a traced benchmark run."""
    entry_points = runpy.run_path(str(TRACING))["ENTRY_POINTS"]
    missing = []
    for module, name, _kind in entry_points:
        obj = importlib.import_module(f"unravel.{module}")
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{module}.{name}")
    assert entry_points and not missing
