"""Primitives for the Stiefel manifold St(d, r) = {U in R^{d x r} : U^T U = I_r}.

Points and tangent vectors are plain float64 arrays of shape (d, r).  A
tangent vector D at U satisfies U^T D + D^T U = 0.  The manifold carries the
metric inherited from the ambient Euclidean space, so all inner products and
norms below are Frobenius.
"""

from __future__ import annotations

import io
import math

import numpy as np

from .exceptions import DimensionError

# Tolerance for validating externally supplied points; freshly constructed
# points are held to the tighter construction tolerance.
TOL_ORTH = 1e-8
TOL_TANGENT = 1e-8
_TOL_CONSTRUCT = 1e-10


def _as_matrix(A: np.ndarray, name: str) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise DimensionError(f"{name} must be a 2-d array, got shape {A.shape}")
    return A


def _as_point_shape(U: np.ndarray, name: str = "U") -> np.ndarray:
    U = _as_matrix(U, name)
    d, r = U.shape
    if r < 1 or r > d:
        raise DimensionError(f"{name} must be d x r with 1 <= r <= d, got {U.shape}")
    return U


def project_to_tangent(U: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Orthogonally project an ambient matrix onto the tangent space at U.

    Args:
        U: point on St(d, r).
        G: ambient d x r matrix.

    Returns:
        G - U (U^T G + G^T U) / 2, the tangent component of G at U.
    """
    U = _as_point_shape(U)
    G = _as_matrix(G, "G")
    if G.shape != U.shape:
        raise DimensionError(f"G must match U's shape {U.shape}, got {G.shape}")
    S = U.T @ G
    return G - U @ ((S + S.T) / 2.0)


def polar_retract(U: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Polar retraction R_U(D) = (U + D)(I_r + D^T D)^{-1/2}.

    The inverse square root is taken through a symmetric eigendecomposition
    of the r x r Gram matrix, so the cost beyond forming D^T D is O(r^3).
    For tangent D the result is exactly feasible up to rounding, and it
    satisfies ||R_U(D) - U|| <= ||D|| and ||R_U(D) - U - D|| <= ||D||^2 / 2.

    Args:
        U: point on St(d, r).
        D: tangent vector at U (tangency is assumed, not checked).

    Returns:
        The retracted point, a d x r array with orthonormal columns.
    """
    U = _as_point_shape(U)
    D = _as_matrix(D, "D")
    if D.shape != U.shape:
        raise DimensionError(f"D must match U's shape {U.shape}, got {D.shape}")
    A = U + D
    # For feasible U and tangent D the Gram matrix A^T A equals I_r + D^T D;
    # forming it from A directly also absorbs rounding drift in U instead of
    # compounding it across repeated retractions.
    M = A.T @ A
    w, Q = np.linalg.eigh(M)  # w >= 1 up to rounding
    inv_sqrt = (Q / np.sqrt(w)) @ Q.T
    return A @ inv_sqrt


def random_stiefel(d: int, r: int, seed: int | np.random.Generator | None = 0) -> np.ndarray:
    """Draw the orthonormal (polar) factor of a seeded standard Gaussian d x r matrix."""
    if not isinstance(d, (int, np.integer)) or not isinstance(r, (int, np.integer)):
        raise DimensionError(f"d and r must be integers, got {d!r}, {r!r}")
    if r < 1 or r > d:
        raise DimensionError(f"need 1 <= r <= d, got d={d}, r={r}")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, r))
    W, _, Vt = np.linalg.svd(A, full_matrices=False)
    U = W @ Vt
    assert orthonormality_error(U) <= _TOL_CONSTRUCT
    return U


def random_tangent(U: np.ndarray, seed: int | np.random.Generator | None = 0) -> np.ndarray:
    """Draw a random tangent vector at U by projecting a seeded Gaussian matrix."""
    U = _as_point_shape(U)
    rng = np.random.default_rng(seed)
    return project_to_tangent(U, rng.standard_normal(U.shape))


def orthonormality_error(U: np.ndarray) -> float:
    """Frobenius feasibility residual ||U^T U - I_r||_F."""
    U = _as_matrix(U, "U")
    G = U.T @ U
    G.flat[:: G.shape[0] + 1] -= 1.0
    # the dot product numpy's Frobenius norm takes, without its dispatch
    return math.sqrt(np.vdot(G, G))


def tangency_error(U: np.ndarray, D: np.ndarray) -> float:
    """Frobenius residual ||U^T D + D^T U||_F of the tangency condition."""
    U = _as_matrix(U, "U")
    D = _as_matrix(D, "D")
    if D.shape != U.shape:
        raise DimensionError(f"D must match U's shape {U.shape}, got {D.shape}")
    S = U.T @ D
    return float(np.linalg.norm(S + S.T))


def validate_stiefel(U: np.ndarray, tol: float = TOL_ORTH) -> np.ndarray:
    """Check that U lies on the manifold within tol; return it as a float array."""
    U = _as_point_shape(U)
    err = orthonormality_error(U)
    if not err <= tol:
        raise ValueError(f"point is not orthonormal within {tol:g}: residual {err:.3e}")
    return U


def point_csv_text(U: np.ndarray) -> str:
    """Render a point as CSV, d rows of r comma-separated decimal values, in
    the format load_point reads."""
    buffer = io.StringIO()
    np.savetxt(buffer, _as_point_shape(U), delimiter=",", fmt="%.17e")
    return buffer.getvalue()


def load_point(path) -> np.ndarray:
    """Read a point written by point_csv_text.  Feasibility is not checked here."""
    U = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    return U
