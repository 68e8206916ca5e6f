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

    zeta_k = theta / (L1(y_k) + L2^2 / (lambda_k + beta_k + beta_{k+1})),  theta in (0, 2),

where L1(y_k) = min(L1, 2 sum_i y_{k,i} ||C_i||_2, 2 ||A(y_k)||_F), with
A(y) = sum_i y_i C_i, bounds the smoothness of f(., y_k) at the step's own
weights (proof sketch in solve_arpgda) and is at most the global
L1 = 2 max_i ||C_i||_2.  The Frobenius term is 2 sqrt(y_k^T K y_k) with
the group Gram K_ij = <C_i, C_j>, taken for singleton groups only, where
K holds no more numbers than X.

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
from .problem import (Evaluation, GroupedDataset, _check_weights_size, _step_gram, evaluate,
                      smoothness_constants)
from .simplex import (_project_floats, project_to_simplex, simplex_violation, uniform_weights,
                      validate_weights)
from .stiefel import (TOL_ORTH, orthonormality_error, polar_retract, project_to_tangent,
                      random_stiefel, validate_stiefel)

if TYPE_CHECKING:
    from .baselines import RSGParams

# Numerical slack granted when asserting the per-iteration inequalities.
INEQUALITY_SLACK = 1e-8

# R = max ||y|| over the probability simplex, attained at its vertices.
DUAL_RADIUS = 1.0

# Below this many entries np.add.reduce sums in order, one by one from 0.0
# (see the simplex module); from it on numpy sums pairwise, and a BLAS
# matvec or dot never promises an order.
_IN_ORDER_SUMS = 8

# Below this many groups the dual step runs on Python floats: about 20 numpy
# calls of a few flops each cost more in dispatch than the arithmetic, and
# numpy sums in order there, so _project_floats reproduces
# project_to_simplex and simplex_violation byte for byte.  From 8 entries on
# the float path would round differently; it also loses at many groups.  A
# whole dual step took 4.5 us on floats against 22.4 us at n = 4, and 77.5
# against 25.5 us at n = 200 (timeit, best of 5, one CPU).
_FLOAT_DUAL_GROUPS = _IN_ORDER_SUMS

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
        # the solver's lambda; at 0 with mu = 0 the U-stepsize divides by 0
        if self.epsilon / (8.0 * DUAL_RADIUS**2) == 0.0:
            raise ValueError(
                f"epsilon must be large enough that lambda = epsilon / 8 is positive, "
                f"got {self.epsilon!r}")
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
    if not math.isfinite(np.add.reduce(ev.values)):
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

    Raises NumericalError, naming the largest sample norm, when the
    singleton epsilon overflows, which happens for norms past about 1.3e154;
    no warning comes first.
    """
    check_rank("r", r, data.d)
    n = data.num_groups
    if data._singletons:
        # Python floats overflow to inf without a warning
        top = float(data.sample_norms().max())
        epsilon = 1e-3 * (top * top)
        if epsilon == math.inf:
            raise NumericalError(
                f"cannot pick epsilon: the data's largest sample norm, {top:.3e}, "
                "overflows when squared")
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


def _dot_floats(a: list[float], b: list[float]) -> float:
    # sum_i a_i b_i over Python floats with a plain loop, in order from 0.0;
    # the built-in sum() compensates float sums since Python 3.12
    total = 0.0
    for u, v in zip(a, b):
        total += u * v
    return total


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
    phi = float(np.minimum.reduce(ev.values))
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


@np.errstate(over="ignore")
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

    numpy's overflow warnings are off for the whole solve, by one errstate
    entered per solve rather than per iteration.  A guard acts on each
    value that can overflow: check_iterate on the group values,
    smoothness_constants on its sums, the ||grad|| test on the gradient
    (so a run that stops at the cap just then reports E = inf), and the
    simplex projection on the ascent, whose entries overflow to -inf.  The
    projection maps such an entry to 0, as it does any entry far below its
    threshold; when the largest one is -inf it raises the 2^53
    NumericalError, as the float path does.

    The U-step's smoothness constant is taken at the step's weights y_k:

        L1(y_k) = min(L1, 2 sum_i y_{k,i} t_i, 2 sqrt(y_k^T K y_k)),

    with t_i = ||C_i||_2 from smoothness_constants and the group Gram
    K_ij = <C_i, C_j> from problem._step_gram, built once per solve.  Each
    iteration costs one more dot of length n (a plain loop on the float
    path) and, where K is built, one n x n matvec.  K is built only for
    more than one singleton group with n <= d, so that neither K nor its
    matvec outgrows one pass over X; elsewhere the Frobenius term is left
    out (below), and with one group y = (1) and L1(y) is L1 exactly.
    Proof sketch that L1(y_k) certifies the step's descent.
    f(., y) = -tr(U^T A U) depends on y only through A = A(y) = sum_i y_i C_i,
    which is positive semidefinite; let a = lambda_max(A).  For U on the
    Stiefel manifold and D tangent at U (U^T D + D^T U = 0), the polar
    retraction is R = (U + D) M^(1/2) with M = (I + D^T D)^(-1), since
    (U + D)^T (U + D) = I + D^T D.  With S = (U + D)^T A (U + D),

        f(R, y) - f(U, y) - <grad f(U, y), D>
            = tr(S) - tr(D^T A D) - tr(S M) = tr(S N) - tr(D^T A D),

    where N = I - M = D^T D (I + D^T D)^(-1) is positive semidefinite and
    commutes with D^T D; <grad, D> = -2 tr(U^T A D) because D is tangent.
    S <= a (I + D^T D) in the semidefinite order, so tr(S N) <=
    a tr((I + D^T D) N) = a ||D||^2, and tr(D^T A D) >= 0.  Hence

        f(R, y) <= f(U, y) + <grad f(U, y), D> + (2 a / 2) ||D||^2,

    the descent lemma with 2 lambda_max(A(y)).  lambda_max is subadditive
    on symmetric matrices (Weyl), so 2 a <= 2 sum_i y_i t_i <= 2 max_i t_i
    = L1; the min with L1 only absorbs rounding in sum_i y_i.  A is
    positive semidefinite, so a^2 is at most the sum of its squared
    eigenvalues, ||A||_F^2 = sum_ij y_i y_j <C_i, C_j> = y^T K y, and
    2 a <= 2 sqrt(y^T K y) too.  Which term is smaller depends on the
    groups.  For y >= 0 and K >= t t^T entrywise, y^T K y = sum_ij y_i y_j
    K_ij >= sum_ij y_i y_j t_i t_j = (y^T t)^2, so the Frobenius term is
    never below the sum term; that certificate held on check 9's block
    instance at seeds 0-9, whose smallest K_ij / (t_i t_j) is 9.5.  On the
    one measured instance with larger groups where the term did bind,
    gen_synthetic_blocks(30, (2,) * 40, 0) at r = 2, it slowed the run from
    1 896 to 25 624 iterations, so groups of more than one sample keep the
    sum rule.  Singletons have K_ij = <x_i, x_j>^2 <= t_i t_j (Cauchy-
    Schwarz), so there the Frobenius term is never above the sum term, and
    on check 2's instances it is 10 times below it.  Rounding: the terms
    of sum_i y_i t_i and of y^T K y are non-negative, so each computed
    bound is within a relative m 2^-53 or so of the exact one, with m the
    length of the longest sum behind it (n, and d for the t_i and K).
    Where the exact bound exceeds 2 a by more, rounding cannot take it
    below.  They meet 2 a only where A has rank one: at a vertex e_i, where
    ||A||_F = lambda_max(A) = t_i = 2 y_i t_i / 2, or with all samples on
    one line.
    There the computed constant may fall below 2 a by that relative
    amount, an ulp or so on check 2's singletons, which shortens the
    decrease check 4 asserts by as much of zeta_k ||grad||^2;
    INEQUALITY_SLACK = 1e-8 absorbs it while that term is below
    1e-8 / (m 2^-53), about 2e5 at m = 400.  Where the paper's
    O(epsilon^-3) argument uses L1:
    - the sufficient decrease of step k descends f_k(., y_k), so it needs
      the descent lemma at y_k only, which L1(y_k) gives;
    - the rate turns the summed decrease, sum_k zeta_k ||grad_k||^2, into a
      bound on min_k ||grad_k|| through a lower bound on zeta_k, and
      zeta_k >= theta / (L1 + L2^2 / (lambda + beta_k + beta_{k+1})) still
      holds because L1(y_k) <= L1.
    The per-iteration inequality recorded below already takes the zeta_k
    the run took.
    """
    run = _Run(data, r, params)
    constants = smoothness_constants(data, r)
    L1, L2_sq = constants.L1, constants.L2**2
    if L1 <= 0.0:
        raise DegenerateProblemError("all groups have zero variance; the objective is constant")
    mu, rho, theta = params.mu, params.rho, params.theta
    lam = params.epsilon / (8.0 * DUAL_RADIUS**2)
    decrease = (2.0 - theta) / (2.0 * theta)
    n = data.num_groups
    ev, y = run.ev, uniform_weights(n)
    tops = constants.tops
    # the group Gram of the Frobenius term, None where it is left out
    K = _step_gram(data)
    # y, the group tops t and K's rows as Python floats on the float path,
    # else None
    y_floats = y.tolist() if n < _FLOAT_DUAL_GROUPS else None
    tops_floats = None if y_floats is None else tops.tolist()
    K_rows = None if y_floats is None or K is None else K.tolist()
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
        # L1(y_k) = min(L1, 2 sum_i y_i t_i, 2 sqrt(y^T K y)), the
        # smoothness of f(., y_k); multiplies and reduces, not BLAS dots, so
        # that below 8 groups the sums are the float path's, in order.  The
        # Frobenius term comes last: a NaN there leaves the min as it was.
        if y_floats is None:
            L1_k = 2.0 * float(np.add.reduce(y * tops))
            if K is not None:
                # the reduce arm runs only when a test switches the float
                # path off below 8 groups, so that it sums in the float
                # path's order
                Ky = K.dot(y) if n >= _IN_ORDER_SUMS else np.add.reduce(K * y, axis=1)
                L1_k = min(L1_k, 2.0 * math.sqrt(np.add.reduce(y * Ky)))
        else:
            L1_k = 2.0 * _dot_floats(y_floats, tops_floats)
            if K_rows is not None:
                Ky_floats = [_dot_floats(row, y_floats) for row in K_rows]
                L1_k = min(L1_k, 2.0 * math.sqrt(_dot_floats(y_floats, Ky_floats)))
        zeta_k = theta / (min(L1, L1_k) + L2_sq / (lam + beta_k + beta_next))
        if not math.isfinite(grad_norm):
            raise NumericalError(f"non-finite gradient entering iteration {k}")
        # U_{k+1} passes check_iterate before the ascent step reads its values
        ev = run.step(polar_retract(ev.U, -zeta_k * grad), k)
        values = ev.values
        # grad_y f(U_{k+1}, y_k) = -values, independent of y; the ascent
        # y + (-values - lam y) / (lam + beta_k), with the negation moved
        # out, which IEEE rounding makes exact
        if y_floats is None:
            y_next = project_to_simplex(y - (values + lam * y) / (lam + beta_k))
            max_simplex = max(max_simplex, *simplex_violation(y_next))
        else:
            # the same operations entry by entry; the projection's negative
            # part is 0.0, which max_simplex >= 0.0 absorbs
            lam_beta = lam + beta_k
            y_floats, drift = _project_floats(
                [v - (f + lam * v) / lam_beta for v, f in zip(y_floats, values.tolist())])
            max_simplex = max(max_simplex, drift)
            y_next = np.array(y_floats)
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
