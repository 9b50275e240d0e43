"""Exception types shared across the package.

The type decides the CLI's exit code: usage errors exit 1, a DataError or an
OSError 2, and solver non-convergence 3. Any other exception is a bug.
"""

import contextlib


class EnmklError(Exception):
    """Base class for errors raised by this package."""


class UsageError(EnmklError):
    """Invalid flag combination or out-of-range option value."""


class DataError(EnmklError, ValueError):
    """Malformed or inconsistent input data.

    Parse errors carry the offending file and line number in the message.
    """


class ConvergenceError(EnmklError):
    """An iterative solver exhausted its update budget without converging."""


@contextlib.contextmanager
def named(where: str):
    """Prefix ``where`` to a DataError or ConvergenceError raised inside; its type stays."""
    try:
        yield
    except (DataError, ConvergenceError) as exc:
        raise type(exc)(f"{where}: {exc}") from None
