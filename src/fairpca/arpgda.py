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

Runs stop once the stationarity measure E(U, y), tested before each step,
is at most epsilon, or at the iteration cap.  solve_arpgda's loop is the
only implementation of the update: it computes lambda_k, beta_k, beta_{k+1}
and zeta_k once per iteration and records them in the trace, and a run with
max_iters = k ends at (U_k, y_k) unless it converged sooner.
stationarity_measure computes E with the loop's own code.  _Run holds what
both solvers share: the start, the iterate guard, the trace cadence and the result.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from .exceptions import DegenerateProblemError, NumericalError, check_count, check_rank
from .problem import Evaluation, GroupedDataset, _check_weights_size, evaluate, smoothness_constants
from .simplex import project_to_simplex, simplex_violation, uniform_weights, validate_weights
from .stiefel import (TOL_ORTH, orthonormality_error, polar_retract, project_to_tangent,
                      random_stiefel, validate_stiefel)

if TYPE_CHECKING:
    from .baselines import RSGParams

# Numerical slack granted when asserting the per-iteration inequalities.
INEQUALITY_SLACK = 1e-8

# R = max ||y|| over the probability simplex, attained at its vertices.
DUAL_RADIUS = 1.0

# JSON schema for run reports produced by SolveResult.to_report (both solvers).
_NULLABLE_NUMBER = {"type": ["number", "null"]}
# The keys of a trace row, in _Run.row's order, all required.
_TRACE_ROW = {
    "k": {"type": "integer", "minimum": 0},
    "phi": {"type": "number"},
    "E": _NULLABLE_NUMBER,
    "grad_norm": _NULLABLE_NUMBER,
    "gap": _NULLABLE_NUMBER,
    "lambda": _NULLABLE_NUMBER,
    "beta": _NULLABLE_NUMBER,
    "zeta": _NULLABLE_NUMBER,
    "ms": {"type": "number"},
}
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
                "required": list(_TRACE_ROW),
                "properties": _TRACE_ROW,
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
        check_count("max_iters", self.max_iters, 0)
        check_count("seed", self.seed, 0)
        check_count("trace_stride", self.trace_stride, 1)


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
    report loaded back from JSON reads the same.  The trace starts with the
    row k = 0 of the start and ends with the row k = iterations.  A row has
    the keys k, phi, E, grad_norm, gap, lambda, beta, zeta and ms, with None
    for a key that does not apply to the algorithm or to the start; ms is
    the wall time since the previous row or, for the first, since the solve
    started.  A violation has k, kind, lhs and rhs.  params is the params
    dataclass the run took; info holds what neither it nor the trace does.
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
    params: ARPGDAParams | RSGParams
    info: dict[str, Any] = field(default_factory=dict)

    def to_report(self, dataset_meta: dict[str, Any]) -> dict[str, Any]:
        """Assemble the JSON run report, which echoes asdict(params);
        validates against REPORT_SCHEMA."""
        return {
            "algorithm": self.algorithm,
            "params": asdict(self.params),
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


class _Run:
    """What both solvers share around their own step.  Made as a solve
    starts, it starts the clock, then evaluates and guards the seeded start
    random_stiefel(d, r, params.seed); step evaluates and guards each later
    iterate in the start's form, row records the trace rows that are due,
    and result builds the SolveResult.  ev is the current iterate only:
    keeping the start's evaluation alive made ARPGDA 5 % slower per
    iteration on perfbench's blocks-compare (10 pairs, 2-core machine)."""

    def __init__(self, data: GroupedDataset, r: int, params: ARPGDAParams | RSGParams) -> None:
        self._start = self._last = time.perf_counter()
        self.data, self.params = data, params
        self.trace: list[dict[str, Any]] = []
        self.ev = evaluate(data, random_stiefel(data.d, r, params.seed))
        self._Evaluation = type(self.ev)
        self.max_orth_error = check_iterate(self.ev, 0)

    def step(self, U: np.ndarray, k: int) -> Evaluation:
        """Evaluate U, the iterate after step k, guard it and make it ev."""
        ev = self._Evaluation(self.data, U)
        self.max_orth_error = check_iterate(ev, k, self.max_orth_error)
        self.ev = ev
        return ev

    def row(self, k: int, phi: float, E: float | None = None, grad_norm: float | None = None,
            gap: float | None = None, lam: float | None = None, beta: float | None = None,
            zeta: float | None = None, *, stop: bool = False) -> None:
        """Record the row of iterate k if it is due: the start, every
        trace_stride-th step, the cap, and the iterate where the run stops."""
        params = self.params
        if not (stop or k % params.trace_stride == 0 or k == params.max_iters):
            return
        now = time.perf_counter()
        self.trace.append({"k": k, "phi": phi, "E": E, "grad_norm": grad_norm, "gap": gap,
                           "lambda": lam, "beta": beta, "zeta": zeta,
                           "ms": (now - self._last) * 1e3})
        self._last = now

    def result(self, algorithm: str, y: np.ndarray | None, phi: float,
               stationarity: float | None, iterations: int, converged: bool,
               violations: list[dict[str, Any]], **info: Any) -> SolveResult:
        """The run's SolveResult at the final iterate ev; info gets the
        evaluation form last."""
        return SolveResult(
            algorithm=algorithm, U=self.ev.U, y=y, phi=phi, stationarity=stationarity,
            iterations=iterations, converged=converged, trace=self.trace,
            violations=violations, max_orth_error=self.max_orth_error,
            time_ms=(time.perf_counter() - self._start) * 1e3, params=self.params,
            info={**info, "evaluation": self.data.evaluation_form})


def recommended_params(data: GroupedDataset, r: int, *, seed: int = 0) -> ARPGDAParams:
    """Default driving parameters, tuned separately for the two regimes.

    Singleton groups (n = N): epsilon = 1e-3 max_i ||x_i||^2, rho = 1.1,
    theta = 1.5, mu = 30 n^2 sqrt(r).  Block groups (n < N): epsilon = 1e-3,
    rho = 1.01, theta = 1.99, mu = 200 n^2 sqrt(r).  max_iters and
    trace_stride keep their defaults; dataclasses.replace sets others.
    """
    check_rank("r", r, data.d)
    n = data.num_groups
    if data._singletons:
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
    return -weighted - 0.5 * lam * float(y.dot(y))


def _stationarity(ev: Evaluation, y: np.ndarray) -> tuple[np.ndarray, float, float, float,
                                                          float, float]:
    # E(U, y) at the evaluation ev of U, with what it is made of: (grad,
    # ||grad||, Phi, weighted = y . values, gap, E); grad is the Riemannian
    # gradient of f(., y) and ||grad|| is the dot product numpy's Frobenius
    # norm takes, without its dispatch
    grad = project_to_tangent(ev.U, ev.gradient(y))
    grad_norm = math.sqrt(np.vdot(grad, grad))
    phi = float(ev.values.min())
    weighted = float(y.dot(ev.values))
    gap = max(weighted - phi, 0.0)
    return grad, grad_norm, phi, weighted, gap, max(grad_norm, gap)


def stationarity_measure(data: GroupedDataset, U: np.ndarray, y: np.ndarray) -> float:
    """Stationarity of a feasible pair (U, y), the measure solve_arpgda stops
    on, computed by the same code:

        E(U, y) = max(||grad_U f(U, y)||_F,
                      max_{y' in simplex} <grad_y f(U, y), y' - y>).

    The inner maximum has the closed form sum_i y_i f_i(U) - min_i f_i(U).
    """
    ev = evaluate(data, validate_stiefel(U))
    return _stationarity(ev, validate_weights(_check_weights_size(data, y)))[-1]


def solve_arpgda(data: GroupedDataset, r: int, params: ARPGDAParams) -> SolveResult:
    """Run ARPGDA from a seeded random start until E(U, y) <= epsilon or the
    iteration cap.

    The stopping rule is checked at each iterate before stepping, so a start
    with E <= epsilon returns after zero iterations.  Every iterate passes
    check_iterate, the start before the smoothness constants are computed,
    and each descent direction must have a finite norm ||grad||, which the
    loop computes anyway: a NaN or infinite entry raises NumericalError, and
    so do finite entries whose squares sum past the largest double (entries
    near 1e154 or larger).  The per-iteration sufficient-decrease and
    ascent-gap inequalities are evaluated with INEQUALITY_SLACK; failures are
    collected on the result (and surfaced as warnings), never silenced.  The
    trace keeps the start, every trace_stride-th iteration and the last.
    """
    run = _Run(data, r, params)
    constants = smoothness_constants(data, r)
    L1, L2_sq = constants.L1, constants.L2**2
    if L1 <= 0.0:
        raise DegenerateProblemError("all groups have zero variance; the objective is constant")
    mu, rho, theta = params.mu, params.rho, params.theta
    lam = params.epsilon / (8.0 * DUAL_RADIUS**2)
    decrease = (2.0 - theta) / (2.0 * theta)
    ev, y = run.ev, uniform_weights(data.num_groups)
    # the Riemannian gradient of f(., y) at U certifies (U, y) in E, then
    # serves as the next descent direction
    grad, grad_norm, phi, weighted, gap, E = _stationarity(ev, y)

    violations: list[dict[str, Any]] = []
    max_simplex = max(simplex_violation(y))
    value = _regularized_value(weighted, y, lam)
    step_sq = 0.0  # ||y_k - y_{k-1}||^2, zero at the start
    run.row(0, phi, E, grad_norm, gap)

    # a NaN E fails the test, so a NaN gradient reaches the guard below
    k = 0
    while not E <= params.epsilon and k < params.max_iters:
        k += 1
        beta_k = mu * k**-rho
        beta_next = mu * (k + 1) ** -rho
        zeta_k = theta / (L1 + L2_sq / (lam + beta_k + beta_next))
        if not math.isfinite(grad_norm):
            raise NumericalError(f"non-finite gradient entering iteration {k}")
        # U_{k+1} passes check_iterate before the ascent step reads its values
        ev = run.step(polar_retract(ev.U, -zeta_k * grad), k)
        values = ev.values
        # grad_y f(U_{k+1}, y_k) = -values, independent of y; the ascent
        # y + (-values - lam y) / (lam + beta_k), with the negation moved
        # out, which IEEE rounding makes exact
        y_next = project_to_simplex(y - (values + lam * y) / (lam + beta_k))
        max_simplex = max(max_simplex, *simplex_violation(y_next))
        prev_grad_norm = grad_norm
        grad, grad_norm, phi, weighted, gap, E = _stationarity(ev, y_next)

        # sufficient decrease of the regularized value, lambda constant
        prev_value, value = value, _regularized_value(weighted, y_next, lam)
        lhs = value - prev_value
        step = y_next - y
        step_sq_prev, step_sq = step_sq, float(step.dot(step))
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
        run.row(k, phi, E, grad_norm, gap, lam, beta_k, zeta_k, stop=E <= params.epsilon)

    if violations:
        warnings.warn(
            f"{len(violations)} per-iteration inequality violation(s) recorded "
            f"(r = {r}, seed = {params.seed})",
            RuntimeWarning,
            stacklevel=2,
        )
    return run.result("arpgda", y, phi, E, k, E <= params.epsilon, violations,
                      L1=L1, L2=constants.L2, max_simplex_error=max_simplex)
