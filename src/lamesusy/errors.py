"""Exception hierarchy shared across the package, and its integer and real-number checks."""

import operator

import numpy as np


class LamesusyError(Exception):
    """Base class for all package errors."""


class DomainError(LamesusyError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class NumericalError(LamesusyError, RuntimeError):
    """A numerical procedure failed to converge or lost validity."""


class IncompleteSpectrumError(NumericalError):
    """A requested band edge index is missing or doubled among those found.

    The message names those indices and lists every edge found as
    index:energy.
    """


class InvalidGroundStateError(NumericalError):
    """The state used to build a partner potential has a node."""


def _positive_int(value, name: str, low: int = 1) -> int:
    """``value`` as an int (NumPy integers pass, 1.5 and 2.0 do not);
    DomainError unless it is an integer >= ``low``."""
    try:
        index = operator.index(value)
    except TypeError:
        index = low - 1
    if index < low:
        kind = "a positive integer" if low == 1 else f"an integer >= {low}"
        raise DomainError(f"{name} must be {kind}, got {value!r}")
    return index


def _real(values, name: str) -> np.ndarray:
    """``values`` as an array of integers or floats; DomainError for any
    other dtype, so that a complex value is not cast to its real part nor
    a string parsed."""
    values = np.asarray(values)
    if values.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be real, got dtype {values.dtype}")
    return values
