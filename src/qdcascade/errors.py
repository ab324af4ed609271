"""Exception hierarchy shared by all modules.

The CLI maps ValidationError and OSError to exit code 1 and
ComputationError to exit code 2; everything else is a bug.
"""


class CascadeError(Exception):
    """Base class for all package errors."""


class ValidationError(CascadeError):
    """Invalid input: bad state, malformed file, inconsistent config."""


class ParseError(ValidationError):
    """Malformed file content; carries the offending record index."""

    def __init__(self, message, record_index=None):
        if record_index is not None:
            message = f"{message} (record {record_index})"
        super().__init__(message)
        self.record_index = record_index


class ComputationError(CascadeError):
    """A numerical procedure failed (fit, reconstruction, ...)."""


class FitError(ComputationError):
    """A curve fit could not be performed."""
