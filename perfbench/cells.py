"""Workload inputs and the benchmark's unit of work, the cell.

A cell is one (dataset, r, start) solved by solve_arpgda at
recommended_params defaults until E <= epsilon or the 1e5 cap.  A compare
cell then runs the RSG sweep over the CLI's default c-grid, referenced to
the ARPGDA value, as `fairpca compare` does.  A cell fails when it raises,
stops at the cap, or fails an output check.

Each workload has fixed cells, whose inputs never change, and seeded cells,
whose starting bases come from --seed.  The datasets are the acceptance
suite's instances, generated here with the same numpy calls as the
package's generators and check 1, so the named stalled cells reproduce.
"""

from __future__ import annotations

import inspect
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import fairpca
import fairpca.arpgda as arpgda_mod
import fairpca.baselines as baselines_mod

import checks
from speed import SpeedProbe
from tracer import Tracer, layer_name

# The CLI's default RSG step-size grid (fairpca.cli.DEFAULT_C_GRID).
C_GRID = (1e-3, 1e-2, 1e-1, 1.0, 1e1)
# The CLI drops samples below this share of the largest sample norm.
NORM_THRESHOLD_SHARE = 1e-6
# RSG iteration cap of the block comparison (check 9), used for every sweep.
RSG_CAP = 20_000


@dataclass(frozen=True)
class Dataset:
    name: str
    X: np.ndarray
    sizes: tuple[int, ...]


def gaussian(d: int, n: int, seed: int) -> Dataset:
    """n singleton groups of standard Gaussian samples (check 2)."""
    X = np.random.default_rng(seed).standard_normal((d, n))
    return Dataset(f"gaussian-d{d}-n{n}-seed{seed}", X, (1,) * n)


def blocks(d: int, sizes: tuple[int, ...], seed: int) -> Dataset:
    """Gaussian block groups with random per-group covariance (check 9)."""
    rng = np.random.default_rng(seed)
    parts = []
    for n_i in sizes:
        s_i = rng.uniform(0.6, 1.4)
        Q, _, Vt = np.linalg.svd(rng.standard_normal((d, d)))
        basis = Q @ Vt
        aniso = rng.uniform(0.7, 1.3, d)
        G = rng.standard_normal((d, n_i))
        parts.append((s_i / np.sqrt(n_i)) * (basis @ (np.sqrt(aniso)[:, None] * (basis.T @ G))))
    return Dataset(f"blocks-d{d}-{len(sizes)}x{sizes[0]}-seed{seed}", np.concatenate(parts, axis=1), sizes)


def spectrum(d: int, instance: int) -> Dataset:
    """One group whose covariance has a random lognormal spectrum (check 1,
    whose seed k uses instance 100 + k)."""
    rng = np.random.default_rng(100 + instance)
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    w = np.sort(rng.lognormal(0.0, 1.0, size=d))[::-1]
    return Dataset(f"spectrum-d{d}-seed{instance}", Q @ np.diag(np.sqrt(w)), (d,))


@dataclass(frozen=True)
class Cell:
    dataset: str
    r: int
    start: int
    compare: bool = False  # also run the RSG sweep

    @property
    def label(self) -> str:
        kind = "compare" if self.compare else "solve"
        return f"{kind} {self.dataset} r={self.r} start={self.start}"


@dataclass(frozen=True)
class Workload:
    datasets: tuple[Dataset, ...]
    fixed: tuple[Cell, ...]
    # (dataset, r) pairs solved once per seeded start
    seeded: tuple[tuple[str, int], ...]
    seeded_starts: int

    def cells(self, seed: int) -> list[Cell]:
        """One round.  The seeded cells are split into chunks that run
        between the fixed ones, so the short solves are timed across the
        whole round rather than in one burst: the machine's speed drifts
        over seconds."""
        starts = np.random.SeedSequence(seed).generate_state(self.seeded_starts)
        seeded = [Cell(ds, r, int(s)) for s in starts for ds, r in self.seeded]
        k, n = len(self.fixed), len(seeded)
        order: list[Cell] = []
        for i, cell in enumerate(self.fixed):
            order += seeded[i * n // k : (i + 1) * n // k] + [cell]
        return order


def workloads() -> dict[str, Workload]:
    g0 = gaussian(200, 200, 0)
    b0 = blocks(23, (750,) * 4, 0)
    s0, s3 = spectrum(50, 0), spectrum(50, 3)
    return {
        # r = 5 start 0 stalls at the cap (loose L2).  Seeded cells use r = 1:
        # at r = 2 a start can stall too (data and start seed 18 do), which
        # would make the failure count depend on --seed.
        "singletons": Workload(
            datasets=(g0,),
            fixed=(Cell(g0.name, 5, 0), Cell(g0.name, 2, 0, compare=True)),
            seeded=((g0.name, 1),),
            seeded_starts=1,
        ),
        # Seeded cells are plain solves: the per-cell dominance check has a
        # margin of about 1e-5 and fails for some starts (data and start
        # seed 15 at r = 2).
        "blocks-compare": Workload(
            datasets=(b0,),
            fixed=(Cell(b0.name, 2, 0, compare=True), Cell(b0.name, 5, 0, compare=True)),
            seeded=((b0.name, 2), (b0.name, 5)),
            seeded_starts=16,
        ),
        # r = 5 on check-1 seed 3 stalls at the cap (single group, L2 > 0).
        # Seeded cells keep instance 0's spectrum, whose gaps at r = 1 and
        # r = 5 are wide enough that no start comes near the cap; its r = 3
        # gap gives a heavy tail of iteration counts, so r = 3 is fixed.
        "spectrum": Workload(
            datasets=(s0, s3),
            fixed=(
                Cell(s3.name, 5, 3),
                Cell(s0.name, 3, 0, compare=True),
                Cell(s0.name, 5, 0, compare=True),
            ),
            seeded=((s0.name, 1), (s0.name, 5)),
            seeded_starts=4,
        ),
    }


def write_csv(ds: Dataset, path: Path) -> None:
    """The one-row-per-sample table load_csv_grouped reads; repr floats
    round-trip exactly, so ingestion reproduces ds.X bit for bit."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join([f"feature_{j}" for j in range(ds.X.shape[0])] + ["group"])]
    col = 0
    for g, size in enumerate(ds.sizes):
        for _ in range(size):
            lines.append(",".join([repr(float(v)) for v in ds.X[:, col]] + [f"g{g}"]))
            col += 1
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    tmp.write_text("\n".join(lines) + "\n")
    os.replace(tmp, path)


def ingest(path: Path, tracer: Tracer | None = None) -> fairpca.GroupedDataset:
    """The CLI's --data path: load_csv_grouped, then preprocess at the
    default norm threshold."""
    load, prep = fairpca.load_csv_grouped, fairpca.preprocess
    if tracer is not None:
        load, prep = tracer.wrap(layer_name(load), load), tracer.wrap(layer_name(prep), prep)
    data = load(path)
    threshold = NORM_THRESHOLD_SHARE * float(np.linalg.norm(data.X, axis=0).max())
    return prep(data, min_norm_threshold=threshold)


@dataclass
class Outcome:
    cell: Cell
    failure: str | None = None
    check_errors: list[str] = field(default_factory=list)
    arpgda_s: float = 0.0  # normalized, see speed.py
    arpgda_wall_s: float = 0.0
    iterations: int = 0
    converged: bool = False
    phi: float = float("nan")
    L2: float = float("nan")
    trace_records: int = 0
    rsg_s: float = 0.0
    rsg_wall_s: float = 0.0
    rsg_iterations: int = 0
    rsg_capped: int = 0
    rsg_best_iterations: int = 0


def _rsg_sweep(
    data: Any, cell: Cell, reference: float, solve: Callable[..., Any], probe: SpeedProbe, out: Outcome
) -> float:
    best = None
    for c in C_GRID:
        params = fairpca.RSGParams(
            c=c, max_iters=RSG_CAP, seed=cell.start,
            reference_phi=reference, trace_stride=RSG_CAP,
        )
        t0 = time.perf_counter()
        run = solve(data, cell.r, params)
        t1 = time.perf_counter()
        out.rsg_s += probe.normalized(t0, t1)
        out.rsg_wall_s += t1 - t0
        out.rsg_iterations += run.iterations
        out.rsg_capped += not run.converged
        if best is None or run.phi > best.phi:
            best = run
    out.rsg_best_iterations = best.iterations
    return best.phi


def run_cell(cell: Cell, data: Any, ds: Dataset, probe: SpeedProbe, tracer: Tracer | None = None) -> Outcome:
    """Solve one cell, time each solver call from outside, check outputs."""
    out = Outcome(cell)
    solve_arpgda, solve_rsg = fairpca.solve_arpgda, fairpca.solve_rsg
    kwargs: dict[str, Any] = {}
    if tracer is not None:
        solve_arpgda = tracer.wrap(layer_name(solve_arpgda), solve_arpgda)
        solve_rsg = tracer.wrap(layer_name(solve_rsg), solve_rsg)
        # The simplex projection reaches arpgda_step through this argument;
        # without it, the patched module attribute is the one called.
        if "project_y" in inspect.signature(fairpca.solve_arpgda).parameters:
            kwargs["project_y"] = arpgda_mod.project_to_simplex
    try:
        params = fairpca.recommended_params(data, cell.r, seed=cell.start)
        t0 = time.perf_counter()
        res = solve_arpgda(data, cell.r, params, **kwargs)
        t1 = time.perf_counter()
        out.arpgda_s = probe.normalized(t0, t1)
        out.arpgda_wall_s = t1 - t0
        out.iterations = res.iterations
        out.converged = res.converged
        out.phi = res.phi
        out.L2 = float(res.info.get("L2", float("nan")))
        out.trace_records = len(res.trace)
        out.check_errors = checks.check_solution(
            ds.X, ds.sizes, res.U, res.y, res.phi,
            converged=res.converged, epsilon=params.epsilon,
            single_group=len(ds.sizes) == 1,
        )
        if cell.compare:
            best_rsg = _rsg_sweep(data, cell, res.phi, solve_rsg, probe, out)
            if res.converged:
                error = checks.check_dominance(res.phi, best_rsg)
                if error is not None:
                    out.check_errors.append(error)
        if not res.converged:
            out.failure = (
                f"stopped at the {res.iterations}-iteration cap with "
                f"E = {res.stationarity:.4e} > epsilon = {params.epsilon:.4e}"
            )
        elif out.check_errors:
            out.failure = "; ".join(out.check_errors)
    except Exception:  # a raising cell is a failed operation; keep running
        out.failure = traceback.format_exc().strip().splitlines()[-1]
        traceback.print_exc()
    return out


def run_round(
    cells: list[Cell],
    data: dict[str, Any],
    datasets: dict[str, Dataset],
    probe: SpeedProbe,
    tracer: Tracer | None = None,
) -> list[Outcome]:
    outcomes = []
    if tracer is None:
        for cell in cells:
            outcomes.append(run_cell(cell, data[cell.dataset], datasets[cell.dataset], probe))
        return outcomes
    with tracer.patched(arpgda_mod, baselines_mod):
        for cell in cells:
            with tracer.span("bench.cell"):
                outcomes.append(run_cell(cell, data[cell.dataset], datasets[cell.dataset], probe, tracer))
    return outcomes
