"""Probability-simplex primitives: Euclidean projection and feasibility checks.

Weight vectors live on Delta_n = {y in R^n : y_i >= 0, sum_i y_i = 1}.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionError, check_count

# Allowed drift of sum(y) from 1 when validating weight vectors.
TOL_SUM = 1e-12


def _as_vector(z: np.ndarray, name: str = "z") -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise DimensionError(f"{name} must be a 1-d array, got shape {z.shape}")
    if z.size == 0:
        raise DimensionError(f"{name} must be non-empty")
    return z


def project_to_simplex(z: np.ndarray) -> np.ndarray:
    """Euclidean projection of z onto the probability simplex.

    Sort-and-threshold method: with the entries of z in decreasing order
    z_(1) >= ... >= z_(n), the projection is max(z - tau, 0) where
    tau = (sum_{j<=m} z_(j) - 1) / m and m is the largest index with
    z_(m) - (sum_{j<=m} z_(j) - 1) / m > 0.  Runs in O(n log n).

    The floating-point residual of the sum is folded back uniformly over the
    support once, so the result sums to 1 exactly up to a final rounding.

    For one entry the simplex is the single point {1}, returned without the
    pass.  That is the pass's own result wherever it has one: for finite
    |z| < 2^53 the rounding error of z - 1 is at most ulp(z) / 2 <= 1 / 2,
    so y = z - (z - 1) lies in [1/2, 3/2]; then y - 1 is exact by Sterbenz's
    lemma and the sum correction y - (y - 1) gives exactly 1.  For
    |z| >= 2^53, z - 1 can round to z, no index passes the threshold test
    and the pass would raise IndexError.

    Internal: z is not checked; callers pass a non-empty, finite 1-d float
    array.
    """
    if z.size == 1:
        return np.ones(1)
    s = np.sort(z)[::-1]
    shifted = s.cumsum() - 1.0
    # index 0 qualifies while |z_(1)| < 2^53, as z_(1) - (z_(1) - 1) >= 1/2
    last = np.flatnonzero(s - shifted / np.arange(1, z.size + 1) > 0)[-1]
    y = z - shifted[last] / (last + 1.0)
    np.maximum(y, 0.0, out=y)
    support = y > 0
    y[support] -= (y.sum() - 1.0) / np.count_nonzero(support)
    # the correction can graze a tiny support entry below zero
    np.maximum(y, 0.0, out=y)
    return y


def uniform_weights(n: int) -> np.ndarray:
    """The barycenter (1/n, ..., 1/n) of the simplex."""
    n = check_count("n", n, 1)
    return np.full(n, 1.0 / n)


def simplex_violation(y: np.ndarray) -> tuple[float, float]:
    """Return (most negative entry clipped to >= 0, |sum(y) - 1|).

    Internal: y is not checked; callers pass a non-empty 1-d float array.
    """
    return max(0.0, -float(y.min())), abs(float(y.sum()) - 1.0)


def validate_weights(y: np.ndarray) -> np.ndarray:
    """Check membership of the simplex (non-negative, sum within TOL_SUM of 1)."""
    y = _as_vector(y, "y")
    neg, drift = simplex_violation(y)
    if neg > 0.0:
        raise ValueError(f"weights must be non-negative, smallest entry {y.min():.3e}")
    if drift > TOL_SUM:
        raise ValueError(f"weights must sum to 1 within {TOL_SUM:g}, got sum {y.sum()!r}")
    return y
