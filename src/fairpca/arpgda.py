"""Alternating Riemannian/projected gradient descent-ascent (ARPGDA).

Solves min_U max_y f(U, y) for the fair PCA objective, alternating one
Riemannian gradient step in U with one projected gradient step in y on the
regularized function f_k(U, y) = f(U, y) - (lambda_k / 2) ||y||^2:

    U_{k+1} = R_{U_k}(-zeta_k grad_U f(U_k, y_k))
    y_{k+1} = P(y_k + (grad_y f(U_{k+1}, y_k) - lambda_k y_k) / (lambda_k + beta_k))

with R the polar retraction and P the simplex projection.  The driving
parameters keep lambda_k = epsilon / (8 R^2) = epsilon / 8 constant (R =
max ||y|| is 1 on the simplex), decay beta_k = mu k^{-rho} with rho > 1,
and couple the U-stepsize to both smoothness constants:

    zeta_k = theta / (L1 + L2^2 / (lambda_k + beta_k + beta_{k+1})),  theta in (0, 2).

Runs stop once the stationarity measure E(U, y) drops to epsilon or the
iteration cap is reached.  solve_arpgda's loop is the only implementation
of the update: it computes lambda_k, beta_k, beta_{k+1} and zeta_k once per
iteration and records them in the trace, and a run with max_iters = k ends
at (U_k, y_k) unless it converged sooner.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .exceptions import DegenerateProblemError, NumericalError, check_count, check_rank
from .problem import (
    Evaluation,
    GroupedDataset,
    evaluate,
    smoothness_constants,
)
from .simplex import project_to_simplex, simplex_violation, uniform_weights
from .stiefel import (
    TOL_ORTH,
    orthonormality_error,
    polar_retract,
    project_to_tangent,
    random_stiefel,
)

# Numerical slack granted when asserting the per-iteration inequalities.
INEQUALITY_SLACK = 1e-8

# R = max ||y|| over the probability simplex, attained at its vertices.
DUAL_RADIUS = 1.0

# JSON schema for run reports produced by SolveResult.to_report (both solvers).
_NULLABLE_NUMBER = {"type": ["number", "null"]}
REPORT_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": [
        "algorithm",
        "params",
        "dataset_meta",
        "r",
        "iterations",
        "converged",
        "phi",
        "stationarity",
        "time_ms",
        "trace",
    ],
    "properties": {
        "algorithm": {"type": "string", "enum": ["arpgda", "rsg"]},
        "params": {"type": "object"},
        "dataset_meta": {"type": "object"},
        "r": {"type": "integer", "minimum": 1},
        "iterations": {"type": "integer", "minimum": 0},
        "converged": {"type": "boolean"},
        "phi": {"type": "number"},
        "stationarity": _NULLABLE_NUMBER,
        "time_ms": {"type": "number"},
        "trace": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "k",
                    "phi",
                    "E",
                    "grad_norm",
                    "gap",
                    "lambda",
                    "beta",
                    "zeta",
                    "ms",
                ],
                "properties": {
                    "k": {"type": "integer", "minimum": 0},
                    "phi": {"type": "number"},
                    "E": _NULLABLE_NUMBER,
                    "grad_norm": _NULLABLE_NUMBER,
                    "gap": _NULLABLE_NUMBER,
                    "lambda": _NULLABLE_NUMBER,
                    "beta": _NULLABLE_NUMBER,
                    "zeta": _NULLABLE_NUMBER,
                    "ms": {"type": "number"},
                },
                "additionalProperties": True,
            },
        },
        "y": {"type": ["array", "null"], "items": {"type": "number"}},
        "max_orth_error": {"type": "number"},
        "violations": {"type": "array"},
    },
    "additionalProperties": True,
}


@dataclass(frozen=True)
class ARPGDAParams:
    """Driving parameters.  The regularization lambda = epsilon / 8 follows
    from epsilon; the dual set is the probability simplex."""

    epsilon: float
    mu: float
    rho: float = 1.1
    theta: float = 1.5
    max_iters: int = 100_000
    seed: int = 0
    trace_stride: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if not 0 <= self.mu < math.inf:
            raise ValueError(f"mu must be non-negative and finite, got {self.mu!r}")
        if not 1 < self.rho < math.inf:
            raise ValueError(f"rho must exceed 1 and be finite, got {self.rho!r}")
        if not 0 < self.theta < 2:
            raise ValueError(f"theta must lie in (0, 2), got {self.theta!r}")
        check_count("max_iters", self.max_iters, 1)
        check_count("seed", self.seed, 0)
        check_count("trace_stride", self.trace_stride, 1)


def _norm(G: np.ndarray) -> float:
    # the dot product numpy's Frobenius norm takes, without its dispatch
    return math.sqrt(np.vdot(G, G))


def check_iterate(ev: Evaluation, k: int, max_orth_error: float = 0.0) -> float:
    """Guard every iterate of both solvers, the start included: raise
    NumericalError, naming the iterate by its step count k, when a group value
    is not finite or U is off the manifold by more than TOL_ORTH; else return
    max(max_orth_error, orthonormality_error(U)).

    The values are tested through their sum, one numpy call: a NaN or an
    infinite entry makes the sum NaN or infinite (+inf and -inf together give
    NaN).  The test is stricter than an entrywise one only when finite values
    sum past the largest double, about 1.8e308; that also raises."""
    if not math.isfinite(ev.values.sum()):
        raise NumericalError(f"non-finite group objectives at iteration {k}")
    orth = orthonormality_error(ev.U)
    if orth > TOL_ORTH:
        raise NumericalError(f"iterate left the manifold at iteration {k}: residual {orth:.3e}")
    return max(max_orth_error, orth)


@dataclass
class SolveResult:
    """Outcome of one solver run.

    trace and violations hold the rows of the run report as they are, so a
    report loaded back from JSON reads the same.  A trace row has the keys
    k, phi, E, grad_norm, gap, lambda, beta, zeta and ms, with None for a
    key that does not apply to the algorithm; a violation has k, kind, lhs
    and rhs.
    """

    algorithm: str
    U: np.ndarray
    y: np.ndarray | None
    phi: float
    stationarity: float | None
    iterations: int
    converged: bool
    trace: list[dict[str, Any]]
    violations: list[dict[str, Any]]
    max_orth_error: float
    time_ms: float
    info: dict[str, Any] = field(default_factory=dict)

    def to_report(self, params: dict[str, Any], dataset_meta: dict[str, Any]) -> dict[str, Any]:
        """Assemble the JSON run report; validates against REPORT_SCHEMA."""
        return {
            "algorithm": self.algorithm,
            "params": params,
            "dataset_meta": dataset_meta,
            "r": int(self.U.shape[1]),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "phi": float(self.phi),
            "stationarity": None if self.stationarity is None else float(self.stationarity),
            "time_ms": float(self.time_ms),
            "trace": self.trace,
            "y": None if self.y is None else [float(v) for v in self.y],
            "max_orth_error": float(self.max_orth_error),
            "violations": self.violations,
            "info": self.info,
        }


def recommended_params(data: GroupedDataset, r: int, *, seed: int = 0) -> ARPGDAParams:
    """Default driving parameters, tuned separately for the two regimes.

    Singleton groups (n = N): epsilon = 1e-3 max_i ||x_i||^2, rho = 1.1,
    theta = 1.5, mu = 30 n^2 sqrt(r).  Block groups (n < N): epsilon = 1e-3,
    rho = 1.01, theta = 1.99, mu = 200 n^2 sqrt(r).  max_iters and
    trace_stride keep their defaults; dataclasses.replace sets others.
    """
    check_rank("r", r, data.d)
    n = data.num_groups
    if n == data.num_samples:
        epsilon = 1e-3 * float((data.sample_norms() ** 2).max())
        rho, theta, mu_scale = 1.1, 1.5, 30.0
    else:
        epsilon = 1e-3
        rho, theta, mu_scale = 1.01, 1.99, 200.0
    if epsilon <= 0.0:
        raise DegenerateProblemError("cannot pick epsilon: all samples have zero norm")
    return ARPGDAParams(
        epsilon=epsilon,
        mu=mu_scale * n * n * math.sqrt(r),
        rho=rho,
        theta=theta,
        seed=seed,
    )


def _regularized_value(weighted: float, y: np.ndarray, lam: float) -> float:
    # f_k(U, y) = f(U, y) - (lam / 2) ||y||^2 with f(U, y) = -weighted,
    # weighted = y . values
    return -weighted - 0.5 * lam * float(y @ y)


def solve_arpgda(data: GroupedDataset, r: int, params: ARPGDAParams) -> SolveResult:
    """Run ARPGDA from a seeded random start until E(U, y) <= epsilon or the
    iteration cap.

    Every iterate passes check_iterate, and each descent direction must have
    a finite norm ||grad||, which the loop computes anyway: a NaN or infinite
    entry raises NumericalError, and so do finite entries whose squares sum
    past the largest double (entries near 1e154 or larger).  The
    per-iteration sufficient-decrease and ascent-gap inequalities are
    evaluated with INEQUALITY_SLACK; failures are collected on the result
    (and surfaced as warnings), never silenced.  The trace keeps every
    trace_stride-th iteration and the last; a row's ms is the wall time
    since the previous row, or since the solve started for the first.
    """
    t0 = time.perf_counter()
    constants = smoothness_constants(data, r)
    L1, L2_sq = constants.L1, constants.L2**2
    if L1 <= 0.0:
        raise DegenerateProblemError("all groups have zero variance; the objective is constant")
    mu, rho, theta = params.mu, params.rho, params.theta
    lam = params.epsilon / (8.0 * DUAL_RADIUS**2)
    decrease = (2.0 - theta) / (2.0 * theta)
    y = uniform_weights(data.num_groups)
    ev = evaluate(data, random_stiefel(data.d, r, params.seed))
    Evaluation = type(ev)
    max_orth = check_iterate(ev, 0)
    # the Riemannian gradient of f(., y) at U certifies (U, y) in E, then
    # serves as the next descent direction
    grad = project_to_tangent(ev.U, ev.gradient(y))
    grad_norm = _norm(grad)

    trace: list[dict[str, Any]] = []
    violations: list[dict[str, Any]] = []
    max_simplex = max(simplex_violation(y))
    initial_phi = float(ev.values.min())
    value = _regularized_value(float(y @ ev.values), y, lam)
    step_sq = 0.0  # ||y_k - y_{k-1}||^2, zero at the start
    converged = False
    last = t0

    for k in range(1, params.max_iters + 1):
        beta_k = mu * k**-rho
        beta_next = mu * (k + 1) ** -rho
        zeta_k = theta / (L1 + L2_sq / (lam + beta_k + beta_next))
        if not math.isfinite(grad_norm):
            raise NumericalError(f"non-finite gradient entering iteration {k}")
        ev = Evaluation(data, polar_retract(ev.U, -zeta_k * grad))
        # U_{k+1} passes check_iterate before the ascent step reads its values
        max_orth = check_iterate(ev, k, max_orth)
        values = ev.values
        # grad_y f(U_{k+1}, y_k) = -values, independent of y; the ascent
        # y + (-values - lam y) / (lam + beta_k), with the negation moved
        # out, which IEEE rounding makes exact
        y_next = project_to_simplex(y - (values + lam * y) / (lam + beta_k))
        max_simplex = max(max_simplex, *simplex_violation(y_next))
        prev_grad_norm = grad_norm
        grad = project_to_tangent(ev.U, ev.gradient(y_next))
        grad_norm = _norm(grad)

        phi = float(values.min())
        weighted = float(y_next @ values)
        gap = max(weighted - phi, 0.0)
        E = max(grad_norm, gap)

        # sufficient decrease of the regularized value, lambda constant
        prev_value, value = value, _regularized_value(weighted, y_next, lam)
        lhs = value - prev_value
        step = y_next - y
        step_sq_prev, step_sq = step_sq, float(step @ step)
        y = y_next
        rhs = (
            -decrease * zeta_k * prev_grad_norm**2
            + 0.5 * (4.0 * beta_k) * DUAL_RADIUS
            - 0.5 * (beta_k * step_sq_prev - beta_next * step_sq)
        )
        if lhs > rhs + INEQUALITY_SLACK:
            violations.append({"k": k, "kind": "sufficient_decrease", "lhs": lhs, "rhs": rhs})
        # ascent gap at the new iterate, bounded by the parameters of the
        # step that produced its weights; recorded at k, as its trace row is
        bound = 4.0 * DUAL_RADIUS**2 * (lam + beta_k)
        if gap > bound + INEQUALITY_SLACK:
            violations.append({"k": k, "kind": "ascent_gap", "lhs": gap, "rhs": bound})

        stop = E <= params.epsilon
        if stop or k % params.trace_stride == 0 or k == params.max_iters:
            now = time.perf_counter()
            trace.append({"k": k, "phi": phi, "E": E, "grad_norm": grad_norm,
                          "gap": gap, "lambda": lam, "beta": beta_k, "zeta": zeta_k,
                          "ms": (now - last) * 1e3})
            last = now
        if stop:
            converged = True
            break

    if violations:
        warnings.warn(
            f"{len(violations)} per-iteration inequality violation(s) recorded",
            RuntimeWarning,
            stacklevel=2,
        )
    return SolveResult(
        algorithm="arpgda",
        U=ev.U,
        y=y,
        phi=phi,
        stationarity=E,
        iterations=k,
        converged=converged,
        trace=trace,
        violations=violations,
        max_orth_error=max_orth,
        time_ms=(time.perf_counter() - t0) * 1e3,
        info={
            "L1": L1,
            "L2": constants.L2,
            "lambda": lam,
            "initial_phi": initial_phi,
            "max_simplex_error": max_simplex,
            "evaluation": data.evaluation_form,
        },
    )
