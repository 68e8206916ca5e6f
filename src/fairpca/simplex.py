"""Probability-simplex primitives: Euclidean projection and feasibility checks.

Weight vectors live on Delta_n = {y in R^n : y_i >= 0, sum_i y_i = 1}.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionError

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
    """
    z = _as_vector(z)
    if not np.isfinite(z).all():
        raise ValueError("projection input must be finite")
    s = np.sort(z)[::-1]
    shifted = s.cumsum() - 1.0
    # index 0 always qualifies: z_(1) - (z_(1) - 1) = 1 > 0
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
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DimensionError(f"n must be a positive integer, got {n!r}")
    return np.full(int(n), 1.0 / n)


def simplex_violation(y: np.ndarray) -> tuple[float, float]:
    """Return (most negative entry clipped to >= 0, |sum(y) - 1|)."""
    y = _as_vector(y, "y")
    return max(0.0, -float(y.min())), abs(float(y.sum()) - 1.0)


def validate_weights(y: np.ndarray, tol_sum: float = TOL_SUM) -> np.ndarray:
    """Check membership of the simplex (non-negative, sum within tol_sum of 1)."""
    y = _as_vector(y, "y")
    neg, drift = simplex_violation(y)
    if neg > 0.0:
        raise ValueError(f"weights must be non-negative, smallest entry {y.min():.3e}")
    if drift > tol_sum:
        raise ValueError(f"weights must sum to 1 within {tol_sum:g}, got sum {y.sum()!r}")
    return y
