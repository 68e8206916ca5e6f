"""Output checks for the benchmark, written in plain numpy.

Nothing here imports fairpca: every quantity is recomputed from the
benchmark's own copy of the data (X with shape (d, N), one contiguous block
of columns per group) and the basis U and weights y the solver returned.
Each check returns None when the output passes and a one-line reason when
it does not.
"""

from __future__ import annotations

import numpy as np

ORTH_TOL = 1e-8
SIMPLEX_SUM_TOL = 1e-12
PHI_REL_TOL = 1e-9
# E is recomputed in another summation order than the solver's, so a run
# that stopped with E just under epsilon may recompute a few ulps above it.
E_REL_SLACK = 1e-9
SPECTRUM_REL_TOL = 1e-3
DOMINANCE_SLACK = 1e-4


def group_values(X: np.ndarray, sizes: tuple[int, ...], U: np.ndarray) -> np.ndarray:
    """f_i(U) = ||X_i^T U||_F^2 for every group i."""
    P = X.T @ U
    per_sample = np.sum(P * P, axis=1)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    return np.add.reduceat(per_sample, starts)


def stationarity(X: np.ndarray, sizes: tuple[int, ...], U: np.ndarray, y: np.ndarray) -> float:
    """E(U, y) = max(||tangent part of -2 sum_i y_i X_i X_i^T U||_F,
    sum_i y_i f_i(U) - min_i f_i(U))."""
    w = np.repeat(y, sizes)
    G = -2.0 * (X @ (w[:, None] * (X.T @ U)))
    S = U.T @ G
    tangent = G - U @ ((S + S.T) / 2.0)
    f = group_values(X, sizes, U)
    gap = max(float(y @ f - f.min()), 0.0)
    return max(float(np.linalg.norm(tangent)), gap)


def check_orthonormal(U: np.ndarray) -> str | None:
    err = float(np.linalg.norm(U.T @ U - np.eye(U.shape[1])))
    if not err <= ORTH_TOL:
        return f"||U^T U - I|| = {err:.3e} exceeds {ORTH_TOL:g}"
    return None


def check_simplex(y: np.ndarray) -> str | None:
    if not np.all(np.isfinite(y)):
        return "y has non-finite entries"
    low = float(y.min())
    drift = abs(float(y.sum()) - 1.0)
    if low < 0.0 or drift > SIMPLEX_SUM_TOL:
        return f"y is off the simplex: min entry {low:.3e}, |sum - 1| = {drift:.3e}"
    return None


def check_phi(X: np.ndarray, sizes: tuple[int, ...], U: np.ndarray, phi: float) -> str | None:
    recomputed = float(group_values(X, sizes, U).min())
    if not abs(recomputed - phi) <= PHI_REL_TOL * max(abs(recomputed), 1.0):
        return f"reported phi {phi!r} but X and U give {recomputed!r}"
    return None


def check_stationarity(
    X: np.ndarray, sizes: tuple[int, ...], U: np.ndarray, y: np.ndarray, epsilon: float
) -> str | None:
    E = stationarity(X, sizes, U, y)
    if not E <= epsilon * (1.0 + E_REL_SLACK):
        return f"converged run recomputes to E = {E:.6e} > epsilon = {epsilon:.6e}"
    return None


def check_spectrum(X: np.ndarray, r: int, phi: float) -> str | None:
    top = float(np.sum(np.linalg.eigvalsh(X @ X.T)[-r:]))
    rel = abs(phi - top) / top
    if not rel <= SPECTRUM_REL_TOL:
        return f"phi {phi:.8g} is {rel:.2e} relative from the top-{r} eigenvalue sum {top:.8g}"
    return None


def check_dominance(phi_arpgda: float, phi_rsg_best: float) -> str | None:
    if not phi_arpgda >= (1.0 - DOMINANCE_SLACK) * phi_rsg_best:
        return (
            f"ARPGDA phi {phi_arpgda:.8g} is below (1 - {DOMINANCE_SLACK:g}) x "
            f"the best RSG phi {phi_rsg_best:.8g}"
        )
    return None


def check_solution(
    X: np.ndarray,
    sizes: tuple[int, ...],
    U: np.ndarray,
    y: np.ndarray,
    phi: float,
    *,
    converged: bool,
    epsilon: float,
    single_group: bool,
) -> list[str]:
    """All checks that apply to one ARPGDA result.  Feasibility and the
    reported phi are checked on every result; stationarity and the spectrum
    comparison only where the run claims convergence."""
    U = np.asarray(U, dtype=float)
    y = np.asarray(y, dtype=float)
    errors = [check_orthonormal(U), check_simplex(y), check_phi(X, sizes, U, phi)]
    if converged:
        errors.append(check_stationarity(X, sizes, U, y, epsilon))
        if single_group:
            errors.append(check_spectrum(X, U.shape[1], phi))
    return [e for e in errors if e is not None]
