"""Riemannian subgradient ascent (RSG) baseline for fair PCA.

Maximizes Phi(U) = min_i f_i(U) directly: at each iterate the currently
worst group i* = argmin_i f_i(U_k) supplies a subgradient of Phi, and the
update retracts an ascent step along it with the classical diminishing
stepsize c / sqrt(k):

    U_{k+1} = R_{U_k}((c / sqrt(k)) grad f_{i*}(U_k)).

A run stops once Phi(U) >= (1 - 1e-4) * reference_phi (the reference is
typically another solver's final value) or after max_iters steps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from .arpgda import SolveResult, check_count, check_iterate
from .exceptions import NumericalError
from .problem import Evaluation, GroupedDataset, evaluate
from .stiefel import polar_retract, project_to_tangent, random_stiefel

# Relative slack of the reference stopping rule.
REFERENCE_SLACK = 1e-4


def rsg_step(U: np.ndarray, data: GroupedDataset, c: float, k: int) -> np.ndarray:
    """One ascent step along the worst group's Riemannian gradient.

    Ties in the worst group are broken toward the lowest index.
    """
    if not c > 0:
        raise ValueError(f"c must be positive, got {c!r}")
    check_count("k", k, 1)
    return _ascend(evaluate(data, U), c, k)


def _ascend(ev: Evaluation, c: float, k: int) -> np.ndarray:
    """rsg_step from the evaluation of its iterate."""
    i_star = int(ev.values.argmin())
    g = project_to_tangent(ev.U, ev.group_gradient(i_star))
    if not np.isfinite(g).all():
        raise NumericalError(f"non-finite subgradient at iteration {k}")
    return polar_retract(ev.U, (c / math.sqrt(k)) * g)


@dataclass(frozen=True)
class RSGParams:
    """Run parameters for solve_rsg: the stepsize scale c, the step cap, the
    seed of the random start, the reference value of the stopping rule (None
    runs to the cap) and the trace stride."""

    c: float
    max_iters: int = 100_000
    seed: int = 0
    reference_phi: float | None = None
    trace_stride: int = 100

    def __post_init__(self) -> None:
        if not self.c > 0:
            raise ValueError(f"c must be positive, got {self.c!r}")
        check_count("max_iters", self.max_iters, 0)
        check_count("seed", self.seed, 0)
        check_count("trace_stride", self.trace_stride, 1)


def solve_rsg(data: GroupedDataset, r: int, params: RSGParams) -> SolveResult:
    """Run RSG from a seeded random start.

    The stopping rule is checked at each iterate before stepping, so on exit
    either Phi >= (1 - 1e-4) * reference_phi held (converged, including at
    the very first iterate with zero steps taken) or exactly max_iters steps
    were applied.  iterations counts the steps actually taken, and every
    iterate passes check_iterate.  The trace records Phi at the start, every
    trace_stride steps and at the final iterate; a row's ms is the wall time
    since the previous row, or since the solve started for the first.
    """
    t0 = time.perf_counter()
    U = random_stiefel(data.d, int(r), params.seed)
    ev = evaluate(data, U)
    Evaluation = type(ev)
    phi = float(ev.values.min())
    target = (
        math.inf
        if params.reference_phi is None
        else (1.0 - REFERENCE_SLACK) * params.reference_phi
    )
    max_orth = check_iterate(ev, 0)
    trace: list[dict[str, Any]] = []
    last = t0

    def record(steps: int) -> None:
        nonlocal last
        now = time.perf_counter()
        trace.append({"k": steps, "phi": phi, "E": None, "grad_norm": None, "gap": None,
                      "lambda": None, "beta": None,
                      "zeta": params.c / math.sqrt(steps) if steps >= 1 else None,
                      "ms": (now - last) * 1e3})
        last = now

    record(0)
    steps = 0
    converged = False
    while True:
        if phi >= target:
            converged = True
            break
        if steps >= params.max_iters:
            break
        U = _ascend(ev, params.c, steps + 1)
        steps += 1
        ev = Evaluation(data, U)
        max_orth = check_iterate(ev, steps, max_orth)
        phi = float(ev.values.min())
        if steps % params.trace_stride == 0:
            record(steps)

    if trace[-1]["k"] != steps:
        record(steps)
    return SolveResult(
        algorithm="rsg",
        U=U,
        y=None,
        phi=phi,
        stationarity=None,
        iterations=steps,
        converged=converged,
        trace=trace,
        violations=[],
        max_orth_error=max_orth,
        time_ms=(time.perf_counter() - t0) * 1e3,
        info={
            "c": params.c,
            "reference_phi": params.reference_phi,
            "reference_slack": REFERENCE_SLACK,
            "evaluation": data.evaluation_form,
        },
    )


def rsg_sweep(
    data: GroupedDataset,
    r: int,
    c_grid: Sequence[float],
    *,
    seed: int,
    max_iters: int,
    reference_phi: float | None,
) -> list[SolveResult]:
    """One solve_rsg run per stepsize scale c, in grid order, all from the
    same seeded start; each trace keeps only the first and final iterates.
    The best run is max(runs, key=lambda run: run.phi), the first with the
    largest Phi; its scale is best.info["c"]."""
    return [
        solve_rsg(data, r, RSGParams(c=c, max_iters=max_iters, seed=seed,
                                     reference_phi=reference_phi, trace_stride=max_iters or 1))
        for c in c_grid
    ]


def iterations_to_reach(trace: Sequence[Mapping[str, Any]], phi: float) -> int | None:
    """The first recorded k with Phi >= (1 - REFERENCE_SLACK) * phi, or None.

    trace is a result's trace or the trace of a saved run report.  A run
    dominates a baseline run when it reaches the baseline's final Phi in
    fewer iterations than the baseline took."""
    target = (1.0 - REFERENCE_SLACK) * phi
    return next((rec["k"] for rec in trace if rec["phi"] >= target), None)
