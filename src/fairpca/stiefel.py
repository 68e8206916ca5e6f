"""Primitives for the Stiefel manifold St(d, r) = {U in R^{d x r} : U^T U = I_r}.

Points and tangent vectors are plain float64 arrays of shape (d, r).  A
tangent vector D at U satisfies U^T D + D^T U = 0.  The manifold carries the
metric inherited from the ambient Euclidean space, so all inner products and
norms below are Frobenius.

The solver-loop kernels form their products with ndarray.dot rather than the
@ operator.  For 2-d float64 operands both make the same BLAS call (gemm, or
syrk for A^T A), so the results agree bit for bit, but dot skips the matmul
ufunc's dispatch, which at the solvers' shapes costs as much as the product:
U^T G at 23 x 2 took 0.6 us through dot against 1.2 us through @ (one BLAS
thread, Intel Xeon).

For the same reason, in the ufunc calls that the solvers make once per
iterate (here and in the problem, simplex and arpgda modules), constant
operands are read-only 0-d float64 arrays rather than Python floats, and
reductions call np.add.reduce and np.minimum.reduce rather than the
Python-level ndarray.sum and ndarray.min wrappers around them.  numpy
2.4 charges a Python float operand about 0.4 us more per call than a 0-d
array of the same value: 2.0 * G at 23 x 2 took 1.45 us against 1.03 us
(timeit, one CPU).  Both operands are float64 values, so the results agree
bit for bit.  Scalars that change at each iterate, such as a step size,
stay Python floats, since wrapping one costs what it saves.
"""

from __future__ import annotations

import functools
import io
import math
import warnings

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo as _eigh_lo

from .exceptions import DataError, DimensionError, check_count, check_rank

# Tolerance for validating externally supplied points; freshly constructed
# points are held to the tighter construction tolerance.
TOL_ORTH = 1e-8
_TOL_CONSTRUCT = 1e-10

# 2.0 as a read-only 0-d array, the cheaper constant operand (see above)
_TWO = np.array(2.0)
_TWO.flags.writeable = False


def _as_point_shape(U: np.ndarray) -> np.ndarray:
    U = np.asarray(U, dtype=float)
    if U.ndim != 2:
        raise DimensionError(f"U must be a 2-d array, got shape {U.shape}")
    d, r = U.shape
    if r < 1 or r > d:
        raise DimensionError(f"U must be d x r with 1 <= r <= d, got {U.shape}")
    return U


def project_to_tangent(U: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Orthogonally project an ambient matrix onto the tangent space at U.

    Args:
        U: point on St(d, r).
        G: ambient d x r matrix.

    Returns:
        G - U (U^T G + G^T U) / 2, the tangent component of G at U.

    Internal: the arguments are not checked; callers pass float arrays of
    one shape.
    """
    S = U.T.dot(G)
    return G - U.dot((S + S.T) / _TWO)


def polar_retract(U: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Polar retraction R_U(D) = (U + D)(I_r + D^T D)^{-1/2}.

    The inverse square root is taken through a symmetric eigendecomposition
    of the r x r Gram matrix, so the cost beyond forming D^T D is O(r^3).
    For tangent D the result is exactly feasible up to rounding, and it
    satisfies ||R_U(D) - U|| <= ||D|| and ||R_U(D) - U - D|| <= ||D||^2 / 2.

    The decomposition calls numpy's LAPACK gufunc eigh_lo directly, the
    kernel np.linalg.eigh runs for float64 input with UPLO="L", so results
    are bit-identical to it; the wrapper's argument checks, error-state
    context and dtype casts cost more than the kernel at these sizes.
    Without the wrapper a LAPACK non-convergence returns NaN instead of
    raising LinAlgError; both solvers run check_iterate on every retracted
    point and report it as NumericalError.

    Args:
        U: point on St(d, r).
        D: tangent vector at U (tangency is assumed, not checked).

    Returns:
        The retracted point, a d x r array with orthonormal columns.

    Internal: the arguments are not checked; callers pass float arrays of
    one shape.
    """
    A = U + D
    # For feasible U and tangent D the Gram matrix A^T A equals I_r + D^T D;
    # forming it from A directly also absorbs rounding drift in U instead of
    # compounding it across repeated retractions.
    M = A.T.dot(A)
    w, Q = _eigh_lo(M, signature="d->dd")  # w >= 1 up to rounding
    inv_sqrt = (Q / np.sqrt(w)).dot(Q.T)
    return A.dot(inv_sqrt)


def random_stiefel(d: int, r: int, seed: int = 0) -> np.ndarray:
    """Draw the orthonormal (polar) factor of a seeded standard Gaussian d x r matrix."""
    check_count("d", d, 1)
    check_rank("r", r, d)
    rng = np.random.default_rng(check_count("seed", seed, 0))
    A = rng.standard_normal((d, r))
    W, _, Vt = np.linalg.svd(A, full_matrices=False)
    U = W @ Vt
    assert orthonormality_error(U) <= _TOL_CONSTRUCT
    return U


@functools.cache
def _identity(r: int) -> np.ndarray:
    # shared by every caller, so nobody may write to it
    eye = np.eye(r)
    eye.flags.writeable = False
    return eye


def orthonormality_error(U: np.ndarray) -> float:
    """Frobenius feasibility residual ||U^T U - I_r||_F.

    I_r is subtracted as a whole cached array, one ufunc call, which is
    cheaper than indexing the diagonal through G.flat.  The result equals,
    bit for bit, that of subtracting 1.0 from the diagonal alone: off the
    diagonal each entry has 0.0 subtracted, and x - 0.0 = x exactly in IEEE
    arithmetic, -0.0 included.

    Internal: U is not checked; callers pass a 2-d float array.
    """
    G = U.T.dot(U)
    G -= _identity(G.shape[0])
    # the dot product numpy's Frobenius norm takes, without its dispatch
    return math.sqrt(np.vdot(G, G))


def validate_stiefel(U: np.ndarray) -> np.ndarray:
    """Check that U lies on the manifold within TOL_ORTH; return it as a float array."""
    U = _as_point_shape(U)
    err = orthonormality_error(U)
    if not err <= TOL_ORTH:
        raise ValueError(f"point is not orthonormal within {TOL_ORTH:g}: residual {err:.3e}")
    return U


def point_csv_text(U: np.ndarray) -> str:
    """Render a point as CSV, d rows of r comma-separated decimal values, in
    the format load_point reads."""
    buffer = io.StringIO()
    np.savetxt(buffer, _as_point_shape(U), delimiter=",", fmt="%.17e")
    return buffer.getvalue()


def load_point(path) -> np.ndarray:
    """Read a point written by point_csv_text.

    Raises DataError unless the file parses as d rows of r finite values with
    1 <= r <= d.  Orthonormality is not checked here.
    """
    try:
        with warnings.catch_warnings():
            # an empty file is rejected below, by its shape
            warnings.simplefilter("ignore", UserWarning)
            # utf-8-sig skips a byte-order mark, which "CSV UTF-8" exports start with
            U = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2, encoding="utf-8-sig")
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    d, r = U.shape
    if not 1 <= r <= d:
        raise DataError(f"{path}: a point needs d rows of r values with 1 <= r <= d, "
                        f"got shape {U.shape}")
    if not np.isfinite(U).all():
        raise DataError(f"{path}: non-finite values")
    return U
