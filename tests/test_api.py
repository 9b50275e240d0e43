"""The package's public API: the names ``enmkl`` exports."""

import ast
from pathlib import Path

import enmkl


def _public_imports() -> set[str]:
    """The public names ``enmkl/__init__.py`` imports from its own modules."""
    tree = ast.parse(Path(enmkl.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_every_exported_name_resolves():
    assert [name for name in enmkl.__all__ if not hasattr(enmkl, name)] == []
    assert len(set(enmkl.__all__)) == len(enmkl.__all__)


def test_all_lists_exactly_the_public_imports():
    assert set(enmkl.__all__) == _public_imports()


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
