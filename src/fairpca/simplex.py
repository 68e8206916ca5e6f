"""Probability-simplex primitives: Euclidean projection and feasibility checks.

Weight vectors live on Delta_n = {y in R^n : y_i >= 0, sum_i y_i = 1}.

Two implementations of the projection share one arithmetic:
project_to_simplex on a float array, and _project_floats on a list of
fewer than 8 Python floats, which ARPGDA's dual step takes for few groups,
where numpy's per-call dispatch, not the arithmetic, sets the cost.  They
agree byte for byte because below 8 entries numpy sums in order:
np.add.accumulate always does, and np.add.reduce, which sums in blocks of 8
from 8 entries on, adds them one by one to 0.0 for fewer (numpy 2.4).  Every
other step is one correctly rounded IEEE operation per entry on both sides,
and np.maximum(x, 0) returns +0.0 for x = -0.0, as x if x > 0.0 else 0.0
does.  The float kernel must sum with a plain loop: since Python 3.12 the
built-in sum() compensates float sums, which rounds differently.
"""

from __future__ import annotations

import functools

import numpy as np

from .exceptions import DimensionError, NumericalError, check_count

# Allowed drift of sum(y) from 1 when validating weight vectors.
TOL_SUM = 1e-12

# The constant operands of the per-iterate ufunc calls, as read-only 0-d
# arrays: cheaper than Python floats (see the stiefel module).
_ZERO, _ONE = np.array(0.0), np.array(1.0)
_ZERO.flags.writeable = _ONE.flags.writeable = False


@functools.cache
def _ranks(n: int) -> np.ndarray:
    # 1.0, ..., n, the divisors of the threshold test; shared by every
    # caller, so nobody may write to it
    ranks = np.arange(1.0, n + 1.0)
    ranks.flags.writeable = False
    return ranks


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
    lemma and the sum correction y - (y - 1) gives exactly 1.

    Only the entries above z_(1) - 1 enter the sums, which keeps them from
    overflowing: summed in full, entries near -1e308 reach -inf, so that
    tau is -inf and z - tau NaN or +inf.  No entry cut can be in the support,
    since y_(1) = z_(1) - tau <= 1 gives tau >= z_(1) - 1; and none passes
    the threshold test, since z_(j) <= z_(1) - 1 gives
    sum_{i<=j} z_(i) - 1 >= z_(1) - 1 + (j - 1) z_(j) >= j z_(j).  In
    exact arithmetic the cut thus changes no result; in floating point it
    could only where rounding lets such an entry pass at a tie
    (tools/cell_hashes.py prints the same bytes with and without it).
    Every kept entry lies within 1 of z_(1), so no kept sum overflows.

    For two or more entries with largest |z| >= 2^53, z_(1) - 1 can round to
    z_(1), so no entry is kept and no index passes the threshold test: the
    step that produced z has lost every digit below 1, and NumericalError
    says so.

    The threshold test is written s > q rather than s - q > 0: for doubles,
    with gradual underflow, fl(a - b) is zero only when a = b and otherwise
    has the sign of a - b (an overflow to +-inf included), so the two agree
    bit for bit.  tau is a Python float quotient, the same IEEE division.
    The pass makes 15 C-level numpy calls, since at a few entries their
    dispatch, not the arithmetic, sets its cost (below 8 entries ARPGDA
    takes _project_floats instead).  It calls none of the
    Python-level wrappers np.sort, np.flatnonzero and ndarray.sum, which add
    their own work to the calls they make (at n = 4, np.sort took 1.8 us
    against 0.9 us for copy and sort in place, and np.flatnonzero 2.6 us
    against 0.5 us for nonzero; timeit, one CPU), it runs np.add.accumulate
    itself rather than through ndarray.cumsum (0.5 against 0.9 us), and its
    constant operands are 0-d arrays (see the stiefel module).  The
    transcription oracles.simplex_projection_by_sort, written with those
    wrappers, matches it byte for byte.

    Internal: z is not checked; callers pass a non-empty, finite 1-d float
    array.
    """
    n = z.size
    if n == 1:
        return np.ones(1)
    s = z.copy()
    s.sort()
    # the m largest entries are those above z_(1) - 1
    m = n - s.searchsorted(s.item(-1) - 1.0, "right")
    s = s[::-1][:m]
    shifted = np.add.accumulate(s)
    shifted -= _ONE
    # index 0 qualifies while |z_(1)| < 2^53, as z_(1) - (z_(1) - 1) >= 1/2
    try:
        last = (s > shifted / _ranks(n)[:m]).nonzero()[0].item(-1)
    except IndexError:
        raise NumericalError(
            f"simplex projection lost precision: largest |z| is {np.abs(z).max():.3e} >= 2^53"
        ) from None
    y = z - shifted.item(last) / (last + 1)
    np.maximum(y, _ZERO, out=y)
    support = y > _ZERO
    residual = (np.add.reduce(y).item() - 1.0) / np.count_nonzero(support)
    np.subtract(y, residual, out=y, where=support)
    # the correction can graze a tiny support entry below zero
    np.maximum(y, _ZERO, out=y)
    return y


def _project_floats(z: list[float]) -> tuple[list[float], float]:
    """project_to_simplex(np.array(z)).tolist() and the drift |sum(y) - 1|
    of simplex_violation, byte for byte, for a list of 1 to 7 floats (see
    the module docstring); the other half of simplex_violation, the
    negative part, is 0.0 for any projection, whose last step is a maximum
    with 0.  The same sort, cut at z_(1) - 1, threshold test, tau, residual
    and 2^53 NumericalError as project_to_simplex, and [1.0] for one entry.

    Internal: z is not checked; callers pass finite floats.
    """
    if len(z) == 1:
        return [1.0], 0.0
    total, tau = 0.0, None
    s = sorted(z, reverse=True)
    for m, v in enumerate(s, 1):
        if not v > s[0] - 1.0:
            break
        total += v
        q = (total - 1.0) / m
        if v > q:
            tau = q
    if tau is None:
        raise NumericalError(
            f"simplex projection lost precision: largest |z| is {max(map(abs, z)):.3e} >= 2^53"
        )
    # v - tau > 0 exactly when v > tau (see project_to_simplex), and
    # np.maximum gives +0.0 for the rest, -0.0 included
    y = [v - tau if v > tau else 0.0 for v in z]
    total, support = 0.0, 0
    for v in y:
        if v > 0.0:
            total += v
            support += 1
    residual = (total - 1.0) / support
    total = 0.0
    for i, v in enumerate(y):
        if v > 0.0:
            v -= residual
            # the correction can graze a tiny support entry below zero
            y[i] = v = v if v > 0.0 else 0.0
            total += v
    return y, abs(total - 1.0)


def uniform_weights(n: int) -> np.ndarray:
    """The barycenter (1/n, ..., 1/n) of the simplex."""
    n = check_count("n", n, 1)
    return np.full(n, 1.0 / n)


def simplex_violation(y: np.ndarray) -> tuple[float, float]:
    """Return (most negative entry clipped to >= 0, |sum(y) - 1|).

    Internal: y is not checked; callers pass a non-empty 1-d float array.
    """
    return max(0.0, -float(np.minimum.reduce(y))), abs(float(np.add.reduce(y)) - 1.0)


def validate_weights(y: np.ndarray) -> np.ndarray:
    """Check membership of the simplex: finite entries, tested first, then
    non-negative ones whose sum, even one that overflows, is within TOL_SUM
    of 1; no numpy warning precedes the ValueError."""
    y = _as_vector(y, "y")
    if not np.isfinite(y).all():
        raise ValueError(f"weights must be finite, got {y!r}")
    with np.errstate(over="ignore"):
        neg, drift = simplex_violation(y)
        if neg > 0.0:
            raise ValueError(f"weights must be non-negative, smallest entry {y.min():.3e}")
        if not drift <= TOL_SUM:
            raise ValueError(f"weights must sum to 1 within {TOL_SUM:g}, got sum {y.sum()!r}")
    return y
