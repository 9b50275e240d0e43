"""The package's public API: the names ``enmkl`` exports."""

import ast
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


def test_no_module_reads_another_modules_private_names():
    # A name with one leading underscore belongs to its module; another
    # module that needs it calls a public name instead.
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    found = []
    for path in sorted(Path(enmkl.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    siblings.update(alias.asname or alias.name for alias in node.names)
                found += [f"{path.name}:{node.lineno}: from .{node.module} import {alias.name}"
                          for alias in node.names if node.module and private(alias.name)]
        found += [
            f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in siblings and private(node.attr)
        ]
    assert found == []


def test_package_imports_only_the_standard_library_and_numpy():
    # numpy is the one dependency; scipy, pytest and hypothesis are test
    # extras. Imports inside functions count: a command would fail on them.
    allowed = set(sys.stdlib_module_names) | {"numpy", "enmkl"}
    found = []
    for path in sorted(Path(enmkl.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert found == []


# The package modules each module imports at module level. A command loads
# its modules' imports too, so this keeps kernels, solvers and the fitting
# code off the path of predict and report --model, which load io and model.
_MODULE_IMPORTS = {
    "__init__": set(), "__main__": {"cli"}, "errors": set(), "cli": {"errors"},
    "io": {"errors"}, "model": {"errors", "io"}, "kernels": {"errors"},
    "solvers": {"errors", "kernels"}, "mkl": {"errors", "kernels", "model", "solvers"},
    "evaluation": {"errors", "io", "kernels", "mkl", "model", "solvers"},
}


def test_each_module_imports_only_its_layers_at_module_level():
    found = {}
    for path in sorted(Path(enmkl.__file__).resolve().parent.glob("*.py")):
        imported, pending = set(), list(ast.parse(path.read_text()).body)
        while pending:
            node = pending.pop()
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported.update([node.module] if node.module else (a.name for a in node.names))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names] if isinstance(node, ast.Import) else [
                    f"{node.module}.{a.name}" for a in node.names]
                imported.update(n.split(".")[1] for n in names if n.startswith("enmkl."))
            elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                pending += node.orelse  # annotations only: never run
            elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                pending += [n for n in ast.iter_child_nodes(node) if isinstance(n, ast.stmt)]
        found[path.stem] = imported
    assert found == _MODULE_IMPORTS
