"""Riemannian subgradient ascent (RSG) baseline for fair PCA.

Maximizes Phi(U) = min_i f_i(U) directly: at each iterate the currently
worst group i* = argmin_i f_i(U_k) supplies a subgradient of Phi, and the
update retracts an ascent step along it with the classical diminishing
stepsize c / sqrt(k):

    U_{k+1} = R_{U_k}((c / sqrt(k)) grad f_{i*}(U_k)).

A run stops once Phi(U) >= (1 - 1e-4) * reference_phi (the reference is
typically another solver's final value) or after max_iters steps.  Ties in
the worst group go to the lowest index.  solve_rsg's loop is the only
implementation of the step, so a run with max_iters = k and no reference
ends at U_k.  compare_cell runs one cell of the comparison with ARPGDA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Mapping, Sequence

import numpy as np

from .arpgda import ARPGDAParams, SolveResult, _Run, solve_arpgda
from .exceptions import NumericalError, check_count
from .problem import GroupedDataset
from .stiefel import polar_retract, project_to_tangent

# Relative slack of the reference stopping rule.
REFERENCE_SLACK = 1e-4

# The stepsize scales compare_cell sweeps RSG over by default.
DEFAULT_C_GRID = (1e-3, 1e-2, 1e-1, 1.0, 1e1)


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
        if not 0 < self.c < math.inf:
            raise ValueError(f"c must be positive and finite, got {self.c!r}")
        if self.reference_phi is not None and not math.isfinite(self.reference_phi):
            raise ValueError(f"reference_phi must be finite, got {self.reference_phi!r}")
        check_count("max_iters", self.max_iters, 0)
        check_count("seed", self.seed, 0)
        check_count("trace_stride", self.trace_stride, 1)


def solve_rsg(data: GroupedDataset, r: int, params: RSGParams) -> SolveResult:
    """Run RSG from a seeded random start.

    The stopping rule is checked at each iterate before stepping, so on exit
    either Phi >= (1 - 1e-4) * reference_phi held (converged, including at
    the very first iterate with zero steps taken) or exactly max_iters steps
    were applied.  iterations counts the steps actually taken, and every
    iterate passes check_iterate.  Each subgradient g must have a finite
    ||g||^2, one dot product: a NaN or infinite entry raises NumericalError,
    and so do finite entries whose squares sum past the largest double
    (entries near 1e154 or larger).  The trace keeps the start, every
    trace_stride-th step and the last.
    """
    run = _Run(data, r, params)
    ev = run.ev
    reference = params.reference_phi
    target = math.inf if reference is None else (1.0 - REFERENCE_SLACK) * reference
    # the worst group, lowest index on ties, and its value Phi(U)
    i = ev.values.argmin()
    phi = float(ev.values[i])
    run.row(0, phi)

    k = 0
    while phi < target and k < params.max_iters:
        k += 1
        g = project_to_tangent(ev.U, ev._group_gradient(i))
        if not math.isfinite(np.vdot(g, g)):
            raise NumericalError(f"non-finite subgradient at iteration {k}")
        zeta = params.c / math.sqrt(k)
        ev = run.step(polar_retract(ev.U, zeta * g), k)
        i = ev.values.argmin()
        phi = float(ev.values[i])
        run.row(k, phi, zeta=zeta, stop=phi >= target)

    return run.result("rsg", None, phi, None, k, phi >= target, [])


@dataclass(frozen=True)
class Comparison:
    """One cell of the comparison, as compare_cell runs it: ARPGDA's run
    (None if it did not run), the RSG runs in grid order and the best of
    them, the first with the largest Phi (None for an empty grid); the first
    recorded ARPGDA iteration that reaches the best run's Phi, 0 when the
    start already does, and whether that is strictly fewer iterations than
    the best run took."""

    arpgda: SolveResult | None
    rsg_runs: list[SolveResult]
    rsg: SolveResult | None
    arpgda_iters_to_rsg_phi: int | None
    arpgda_dominates: bool


def compare_cell(data: GroupedDataset, r: int, seed: int, *,
                 arpgda_params: ARPGDAParams | None,
                 c_grid: Sequence[float] = DEFAULT_C_GRID, rsg_max_iters: int) -> Comparison:
    """Run one (r, seed) cell of the comparison: ARPGDA at
    replace(arpgda_params, seed=seed), unless arpgda_params is None, then
    solve_rsg once per stepsize scale c, in grid order, from the same seeded
    start, capped at rsg_max_iters and referenced to ARPGDA's final Phi (to
    none without ARPGDA); each RSG trace keeps only its first and final rows."""
    arpgda = None if arpgda_params is None else solve_arpgda(
        data, r, replace(arpgda_params, seed=seed))
    reference = None if arpgda is None else arpgda.phi
    runs = [
        solve_rsg(data, r, RSGParams(c=c, max_iters=rsg_max_iters, seed=seed,
                                     reference_phi=reference, trace_stride=rsg_max_iters or 1))
        for c in c_grid
    ]
    best = max(runs, key=lambda run: run.phi, default=None)
    reached = (None if arpgda is None or best is None
               else iterations_to_reach(arpgda.trace, best.phi))
    return Comparison(arpgda, runs, best, reached,
                      reached is not None and reached < best.iterations)


def iterations_to_reach(trace: Sequence[Mapping[str, Any]], phi: float) -> int | None:
    """The first recorded k with Phi >= (1 - REFERENCE_SLACK) * phi, or None;
    0 when the start, a trace's first row, already reaches it.

    trace is a result's trace or the trace of a saved run report."""
    target = (1.0 - REFERENCE_SLACK) * phi
    return next((rec["k"] for rec in trace if rec["phi"] >= target), None)
