"""Exception types shared across the package, and the checks of every count
and every rank r a caller passes."""

from typing import Any

import numpy as np


class DimensionError(ValueError):
    """A count, or the shape of a matrix or vector argument, is invalid."""


class DataError(ValueError):
    """A dataset could not be ingested, or became empty after preprocessing.
    The base of every error the data is to blame for, which the command line
    reports as a data error (exit 2)."""


class DegenerateProblemError(DataError):
    """The problem instance carries no signal (for example, all-zero data)."""


class DiagnosticUnavailableError(DataError):
    """A diagnostic is undefined at the given point (for example, non-positive
    group variances)."""


class NumericalError(RuntimeError):
    """A solver produced non-finite values or lost manifold feasibility."""


def check_count(name: str, value: Any, minimum: float) -> int:
    """Raise DimensionError naming the argument unless value is an integer
    (numpy integers included, bool not) of at least minimum; return it as
    an int."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DimensionError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DimensionError(f"{name} must be at least {minimum}, got {value!r}")
    return int(value)


def check_rank(name: str, r: Any, d: int) -> int:
    """Raise DimensionError naming the argument unless r is an integer with
    1 <= r <= d, the rank of a point on St(d, r); return it as an int."""
    r = check_count(name, r, 1)
    if r > d:
        raise DimensionError(f"{name} must lie in [1, {d}], got {r}")
    return r
