"""Print one SHA-256 per solver run of the benchmark's cells, to check that a
change leaves every result bit for bit as it was.

    python3 tools/cell_hashes.py --seeds 0:3 > after.txt

Run it from both trees of a change (each copy reads the package under its
own src/), then `diff before.txt after.txt`: identical output means
identical results.  --seeds takes one seed or a range start:stop.

A change meant to move results at rounding level only (another summation
order, say) changes hashes but must not change a run's course.  Compare the
two outputs with the hash column cut,

    diff <(sed 's/ [0-9a-f]*$//' before.txt) <(sed 's/ [0-9a-f]*$//' after.txt)

and require no difference: every run then took the same number of
iterations and no cell raised on one side only.  Lines of the workloads the
change does not reach should stay identical hashes and all.

For each workload of perfbench/cells.py and each seed, the script builds
the datasets as the benchmark does, through cells.write_csv and
cells.ingest, and runs every fixed and seeded cell of cells.Workload.cells:
a solve cell is solve_arpgda at recommended_params, and a compare cell is
compare_cell over cells.C_GRID capped at cells.RSG_CAP.  Each run prints
one line: workload, seed, cell label, solver (with c for RSG), iterations
and the hash.  The hash covers U, y, phi, E, iterations, converged,
max_orth_error, max_simplex_error, the violations and the trace rows
without their wall time ms.  A cell that raises prints the exception
instead.  BLAS is pinned to one thread, as in the benchmark; seed 0 takes
about 20 s.  Identical hashes are promised only at a fixed BLAS thread
count: a product's summation order can depend on the thread count, and U
has been seen to differ between one and two OpenBLAS threads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_hash(res) -> str:
    h = hashlib.sha256()
    h.update(res.U.tobytes())
    if res.y is not None:
        h.update(res.y.tobytes())
    rows = [{key: value for key, value in row.items() if key != "ms"} for row in res.trace]
    h.update(json.dumps([
        res.phi, res.stationarity, res.iterations, res.converged, res.max_orth_error,
        res.info.get("max_simplex_error"), res.violations, rows,
    ]).encode())
    return h.hexdigest()


def seed_range(text: str) -> range:
    start, _, stop = text.partition(":")
    return range(int(start), int(stop)) if stop else range(int(start), int(start) + 1)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_range, default=range(1),
                   help="one seed, or a range start:stop (default 0)")
    args = p.parse_args(argv)
    # BLAS reads its thread count once, when numpy loads it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import cells
    import fairpca

    # the per-run inequality warnings do not change the hash
    warnings.simplefilter("ignore", RuntimeWarning)
    for name, workload in cells.workloads().items():
        with tempfile.TemporaryDirectory() as tmp:
            data = {}
            for ds in workload.datasets:
                path = Path(tmp) / f"{ds.name}.csv"
                cells.write_csv(ds, path)
                data[ds.name] = cells.ingest(path)
        for seed in args.seeds:
            for cell in workload.cells(seed):
                prefix = f"{name} {seed} {cell.label}"
                ds = data[cell.dataset]
                params = fairpca.recommended_params(ds, cell.r, seed=cell.start)
                try:
                    if cell.compare:
                        cmp = fairpca.compare_cell(ds, cell.r, cell.start, arpgda_params=params,
                                                   c_grid=cells.C_GRID, rsg_max_iters=cells.RSG_CAP)
                        runs = [("arpgda", cmp.arpgda)]
                        runs += [(f"rsg c={run.params.c:g}", run) for run in cmp.rsg_runs]
                    else:
                        runs = [("arpgda", fairpca.solve_arpgda(ds, cell.r, params))]
                except Exception as exc:  # a raising cell is a result too
                    print(f"{prefix} raised {type(exc).__name__}: {exc}", flush=True)
                    continue
                for solver, res in runs:
                    print(f"{prefix} {solver} {res.iterations} {run_hash(res)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
