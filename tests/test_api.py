"""The package's public API: the names ``enmkl`` exports."""

import importlib
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import enmkl


def test_every_exported_name_resolves():
    assert [name for name in enmkl.__all__ if not hasattr(enmkl, name)] == []
    assert len(set(enmkl.__all__)) == len(enmkl.__all__)


def test_all_lists_exactly_the_public_imports():
    # enmkl/__init__.py imports nothing eagerly: its table of each public
    # name's home module stands in for the imports, and __all__ is that table.
    assert enmkl.__all__ == list(enmkl._HOME)
    for name, home in enmkl._HOME.items():
        module = importlib.import_module(f"enmkl.{home}")
        value = getattr(enmkl, name)
        assert value is getattr(module, name)
        assert getattr(value, "__module__", module.__name__) == module.__name__, name
    # Besides the table's names, the package holds only modules.
    assert {
        n for n, v in vars(enmkl).items() if not (n.startswith("_") or isinstance(v, ModuleType))
    } <= set(enmkl.__all__)
    src = str(Path(enmkl.__file__).resolve().parent.parent)
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, enmkl; print(sorted(m for m in sys.modules if m.startswith('enmkl')))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    ).stdout
    assert loaded.strip() == "['enmkl']"


def test_training_loop_internals_are_not_exported():
    for name in ("update_lambda", "update_beta", "compute_block_norms", "enmkl_objective"):
        assert name not in enmkl.__all__
        assert not hasattr(enmkl, name)


def test_exception_hierarchy():
    # The CLI maps the type to the exit code. A DataError is also a
    # ValueError, so a library caller that catches those still catches it;
    # usage and convergence errors are not.
    assert issubclass(enmkl.DataError, enmkl.EnmklError)
    assert issubclass(enmkl.DataError, ValueError)
    for cls in (enmkl.UsageError, enmkl.ConvergenceError):
        assert issubclass(cls, enmkl.EnmklError) and not issubclass(cls, ValueError)
    assert not issubclass(enmkl.EnmklError, ValueError)
