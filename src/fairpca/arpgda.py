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
iteration cap is reached.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .exceptions import DegenerateProblemError, NumericalError
from .problem import (
    Evaluation,
    GroupedDataset,
    SmoothnessConstants,
    evaluate,
    smoothness_constants,
)
from .simplex import project_to_simplex, simplex_violation, uniform_weights
from .stiefel import orthonormality_error, polar_retract, project_to_tangent, random_stiefel

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
                    "dist_subgrad": _NULLABLE_NUMBER,
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
    check_inequalities: bool = True
    trace_stride: int = 1
    tol_orth: float = 1e-8

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")
        if not self.mu >= 0:
            raise ValueError(f"mu must be non-negative, got {self.mu!r}")
        if not self.rho > 1:
            raise ValueError(f"rho must exceed 1, got {self.rho!r}")
        if not 0 < self.theta < 2:
            raise ValueError(f"theta must lie in (0, 2), got {self.theta!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters!r}")
        if self.trace_stride < 1:
            raise ValueError(f"trace_stride must be at least 1, got {self.trace_stride!r}")


@dataclass(frozen=True)
class Schedules:
    """Per-iteration regularization and stepsize values (1-based k)."""

    lam: float
    mu: float
    rho: float
    theta: float
    L1: float
    L2: float

    def beta(self, k: int) -> float:
        return self.mu * float(k) ** -self.rho

    def zeta(self, k: int) -> float:
        return self.theta / (self.L1 + self.L2**2 / (self.lam + self.beta(k) + self.beta(k + 1)))


def make_schedules(params: ARPGDAParams, constants: SmoothnessConstants) -> Schedules:
    if constants.L1 <= 0.0:
        raise DegenerateProblemError(
            "all groups have zero variance; the objective is constant"
        )
    lam = params.epsilon / (8.0 * DUAL_RADIUS**2)
    return Schedules(
        lam=lam,
        mu=params.mu,
        rho=params.rho,
        theta=params.theta,
        L1=constants.L1,
        L2=constants.L2,
    )


@dataclass
class SolverState:
    """One iterate with the evaluations shared between consecutive steps.

    evaluation is the evaluation at U, whose class, picked once by evaluate
    in initial_state, evaluates every later iterate of the solve; grad caches
    the Riemannian gradient of f(., y) at U, which serves first as the
    stationarity certificate of (U, y) and then as the next descent
    direction.  beta and zeta are the schedule values beta_{k-1} and
    zeta_{k-1} of the step that produced this state (None for the start).
    """

    k: int
    U: np.ndarray
    y: np.ndarray
    y_prev: np.ndarray
    evaluation: Evaluation
    grad: np.ndarray
    grad_norm: float
    beta: float | None = None
    zeta: float | None = None

    @property
    def values(self) -> np.ndarray:
        """The group variances f_i(U)."""
        return self.evaluation.values


def _norm(G: np.ndarray) -> float:
    # the dot product numpy's Frobenius norm takes, without its dispatch
    return math.sqrt(np.vdot(G, G))


def initial_state(data: GroupedDataset, r: int, seed: int) -> SolverState:
    """Random Stiefel point with uniform weights, caches filled in."""
    U = random_stiefel(data.d, int(r), seed)
    y = uniform_weights(data.num_groups)
    ev = evaluate(data, U)
    grad = project_to_tangent(U, ev.gradient(y))
    return SolverState(k=1, U=U, y=y, y_prev=y, evaluation=ev, grad=grad, grad_norm=_norm(grad))


def arpgda_step(
    state: SolverState, schedules: Schedules, data: GroupedDataset
) -> SolverState:
    """Advance (U_k, y_k) to (U_{k+1}, y_{k+1}): a retracted descent step in
    U, then a projected ascent step in y onto the probability simplex."""
    k = state.k
    if not np.isfinite(state.grad).all():
        raise NumericalError(f"non-finite gradient entering iteration {k}")
    lam = schedules.lam
    beta_k = schedules.beta(k)
    zeta_k = schedules.zeta(k)

    U_next = polar_retract(state.U, -zeta_k * state.grad)
    ev = type(state.evaluation)(data, U_next)
    # grad_y f(U_{k+1}, y_k) = -values, independent of y
    y_next = project_to_simplex(state.y + (-ev.values - lam * state.y) / (lam + beta_k))
    grad = project_to_tangent(U_next, ev.gradient(y_next))
    return SolverState(
        k=k + 1,
        U=U_next,
        y=y_next,
        y_prev=state.y,
        evaluation=ev,
        grad=grad,
        grad_norm=_norm(grad),
        beta=beta_k,
        zeta=zeta_k,
    )


@dataclass(frozen=True)
class IterationRecord:
    """Measurements after one iteration; entries that do not apply to an
    algorithm are None."""

    k: int
    phi: float
    stationarity: float | None
    grad_norm: float | None
    gap: float | None
    lam: float | None
    beta: float | None
    zeta: float | None
    ms: float
    dist_subgrad: float | None = None

    def to_row(self) -> dict[str, Any]:
        row: dict[str, Any] = {
            "k": self.k,
            "phi": self.phi,
            "E": self.stationarity,
            "grad_norm": self.grad_norm,
            "gap": self.gap,
            "lambda": self.lam,
            "beta": self.beta,
            "zeta": self.zeta,
            "ms": self.ms,
        }
        if self.dist_subgrad is not None:
            row["dist_subgrad"] = self.dist_subgrad
        return row


@dataclass(frozen=True)
class InequalityViolation:
    k: int
    kind: str
    lhs: float
    rhs: float

    def to_row(self) -> dict[str, Any]:
        return {"k": self.k, "kind": self.kind, "lhs": self.lhs, "rhs": self.rhs}


@dataclass
class SolveResult:
    """Outcome of one solver run."""

    algorithm: str
    U: np.ndarray
    y: np.ndarray | None
    phi: float
    stationarity: float | None
    iterations: int
    converged: bool
    trace: list[IterationRecord]
    violations: list[InequalityViolation]
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
            "trace": [rec.to_row() for rec in self.trace],
            "y": None if self.y is None else [float(v) for v in self.y],
            "max_orth_error": float(self.max_orth_error),
            "violations": [v.to_row() for v in self.violations],
            "info": self.info,
        }


def recommended_params(
    data: GroupedDataset,
    r: int,
    *,
    seed: int = 0,
    max_iters: int = 100_000,
    check_inequalities: bool = True,
    trace_stride: int = 1,
) -> ARPGDAParams:
    """Default driving parameters, tuned separately for the two regimes.

    Singleton groups (n = N): epsilon = 1e-3 max_i ||x_i||^2, rho = 1.1,
    theta = 1.5, mu = 30 n^2 sqrt(r).  Block groups (n < N): epsilon = 1e-3,
    rho = 1.01, theta = 1.99, mu = 200 n^2 sqrt(r).
    """
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
        max_iters=max_iters,
        seed=seed,
        check_inequalities=check_inequalities,
        trace_stride=trace_stride,
    )


def _regularized_value(values: np.ndarray, y: np.ndarray, lam: float) -> float:
    # f_k(U, y) = f(U, y) - (lam / 2) ||y||^2 with f(U, y) = -y . values
    return float(-(y @ values) - 0.5 * lam * float(y @ y))


def solve_arpgda(data: GroupedDataset, r: int, params: ARPGDAParams) -> SolveResult:
    """Run ARPGDA from a seeded random start until E(U, y) <= epsilon or the
    iteration cap.

    Feasibility is tracked every iteration: orthonormality drift beyond
    tol_orth or a non-finite evaluation raises NumericalError.  With
    check_inequalities on, the per-iteration sufficient-decrease and
    ascent-gap inequalities are evaluated with INEQUALITY_SLACK; failures are
    collected on the result (and surfaced as warnings), never silenced.
    """
    t0 = time.perf_counter()
    sched = make_schedules(params, smoothness_constants(data, int(r)))
    state = initial_state(data, int(r), params.seed)
    lam = sched.lam
    decrease = (2.0 - params.theta) / (2.0 * params.theta)

    trace: list[IterationRecord] = []
    violations: list[InequalityViolation] = []
    max_orth = orthonormality_error(state.U)
    max_simplex = max(simplex_violation(state.y))
    initial_phi = float(state.values.min())
    value = _regularized_value(state.values, state.y, lam)
    converged = False
    phi = initial_phi
    E = None

    for k in range(1, params.max_iters + 1):
        it0 = time.perf_counter()
        prev = state
        state = arpgda_step(prev, sched, data)
        values, y = state.values, state.y

        if not np.isfinite(values).all():
            raise NumericalError(f"non-finite group objectives at iteration {k}")
        orth = orthonormality_error(state.U)
        max_orth = max(max_orth, orth)
        if orth > params.tol_orth:
            raise NumericalError(
                f"iterate left the manifold at iteration {k}: residual {orth:.3e}"
            )
        max_simplex = max(max_simplex, *simplex_violation(y))

        phi = float(values.min())
        gap = max(float(y @ values) - phi, 0.0)
        E = max(state.grad_norm, gap)
        beta_k, zeta_k = state.beta, state.zeta

        if params.check_inequalities:
            # sufficient decrease of the regularized value, lambda constant
            prev_value, value = value, _regularized_value(values, y, lam)
            lhs = value - prev_value
            step_prev = prev.y - prev.y_prev
            step = y - prev.y
            rhs = (
                -decrease * zeta_k * prev.grad_norm**2
                + 0.5 * (4.0 * beta_k) * DUAL_RADIUS
                - 0.5
                * (
                    beta_k * float(step_prev @ step_prev)
                    - sched.beta(k + 1) * float(step @ step)
                )
            )
            if lhs > rhs + INEQUALITY_SLACK:
                violations.append(InequalityViolation(k, "sufficient_decrease", lhs, rhs))
            # ascent gap at the new iterate, bounded by the parameters of the
            # step that produced its weights
            bound = 4.0 * DUAL_RADIUS**2 * (lam + beta_k)
            if gap > bound + INEQUALITY_SLACK:
                violations.append(InequalityViolation(k + 1, "ascent_gap", gap, bound))

        ms = (time.perf_counter() - it0) * 1e3
        stop = E <= params.epsilon
        if stop or k % params.trace_stride == 0 or k == params.max_iters:
            trace.append(
                IterationRecord(
                    k=k,
                    phi=phi,
                    stationarity=E,
                    grad_norm=state.grad_norm,
                    gap=gap,
                    lam=lam,
                    beta=beta_k,
                    zeta=zeta_k,
                    ms=ms,
                )
            )
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
        U=state.U,
        y=state.y,
        phi=phi,
        stationarity=E,
        iterations=state.k - 1,
        converged=converged,
        trace=trace,
        violations=violations,
        max_orth_error=max_orth,
        time_ms=(time.perf_counter() - t0) * 1e3,
        info={
            "L1": sched.L1,
            "L2": sched.L2,
            "lambda": sched.lam,
            "initial_phi": initial_phi,
            "max_simplex_error": max_simplex,
            "evaluation": data.evaluation_form,
        },
    )
