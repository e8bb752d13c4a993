"""Exception hierarchy shared across the package.

Each of the four roots below carries the exit code the command line returns
for it (``exit_code``).  New error types subclass one of the roots, and so
inherit its code, rather than raising bare exceptions.
"""

from contextlib import contextmanager


class DevexplainError(Exception):
    """Base class for all package errors."""

    exit_code = 5


class ValidationError(DevexplainError):
    """Invalid argument, specification, or domain-object state."""

    exit_code = 2


class IngestionError(DevexplainError):
    """A data file could not be read or parsed."""

    exit_code = 3


class NumericalError(DevexplainError):
    """A numerical procedure failed (degenerate data, singular system, ...)."""

    exit_code = 4


class SingularFitError(NumericalError):
    """Least-squares design matrix is rank deficient.

    Attributes
    ----------
    column : str
        Name of the (first) linearly dependent column.
    """

    def __init__(self, message: str, column: str):
        super().__init__(message)
        self.column = column


class SearchFailureError(NumericalError):
    """No restart of the multistart MAP search converged.

    Carries the per-run diagnostics so callers can inspect what happened.
    """

    def __init__(self, message: str, diagnostics: list | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


@contextmanager
def _stage(name: str):
    """Tag a package error raised inside with the stage or input ``name``: the
    innermost tag sets ``stage`` and prefixes the message; outer ones add none."""
    try:
        yield
    except DevexplainError as exc:
        if getattr(exc, "stage", None) is None:
            exc.stage = name
            exc.args = (f"{name}: {exc.args[0]}" if exc.args else name, *exc.args[1:])
        raise
