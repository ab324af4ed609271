"""Exception hierarchy shared by all modules, and the one finite-number check.

The CLI maps ValidationError and OSError to exit code 1 and
ComputationError to exit code 2; everything else is a bug.
"""

import math
import numbers

import numpy as np


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


def require_finite(**values):
    """Raise ValidationError unless every keyword's value is a finite real
    number, or a numeric array of them.

    The package's one finite-number check on input: NaN or inf is bad
    input (exit 1), not a NaN in the output or a failed computation.
    """
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            if not (np.issubdtype(value.dtype, np.number) and np.all(np.isfinite(value))):
                raise ValidationError(f"{name} must hold only finite numbers")
        elif not (isinstance(value, numbers.Real) and not isinstance(value, bool)
                  and math.isfinite(value)):
            raise ValidationError(f"{name} must be a finite number, got {value!r}")
