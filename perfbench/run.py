"""Benchmark of the fairpca solvers on three acceptance-family workloads.

    python3 perfbench/run.py --workload singletons --seed 0 --seconds 10 --trace 0

A run writes the workload's datasets as CSV under perfbench_out/inputs,
times their ingestion through the CLI's --data path (setup_s), then solves
whole rounds of the workload's cells until --seconds have passed; a round
always finishes.  Every solver call is timed from outside the package, and
times are reported at nominal machine speed (speed.py).  BLAS is pinned to
one thread.

Output: one environment line, a line of raw wall-clock figures, one line per
failed cell, and as the last line a JSON object {"correct", "attempted",
"failed", "metrics"}.  With --trace 0 the metrics are the end-to-end ones
(medians over rounds).  With --trace 1 one traced round follows the
untraced ones; the run prints the per-layer table, writes every span to
perfbench_out/spans-<workload>-seed<seed>.npz, and reports the per-layer
metrics, including the tracing overhead: traced minus untraced arpgda_s.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench_out"
WORKLOADS = ("singletons", "blocks-compare", "spectrum")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# setup_s is the median of at least this many ingestion passes, and of as
# many more as fit in SETUP_MIN_SECONDS, so tiny CSVs are timed steadily.
SETUP_MIN_PASSES = 5
SETUP_MIN_SECONDS = 2.0

E2E_UNITS = {
    "setup_s": "s",
    "arpgda_s": "s",
    "arpgda_iterations": "count",
    "arpgda_iter_us": "us",
    "phi_mean": "variance",
    "rsg_s": "s",
    "rsg_iterations": "count",
    "peak_rss_mb": "MB",
}
# Wrapped functions reported as calls and self time per call.
LAYER_FUNCTIONS = (
    "data.load_csv_grouped",
    "data.preprocess",
    "problem.projections",
    "problem.group_objectives",
    "problem.euclidean_gradient_U",
    "problem.group_riemannian_gradient",
    "stiefel.polar_retract",
    "stiefel.project_to_tangent",
    "stiefel.orthonormality_error",
    "simplex.project_to_simplex",
    "simplex.simplex_violation",
    "arpgda.arpgda_step",
    "baselines.rsg_step",
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True, help="draws the seeded cells' starts")
    p.add_argument("--seconds", type=float, required=True, help="minimum measured time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def environment_line(np: Any) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_text = "unknown"
    return (
        f"env: python {platform.python_version()} numpy {np.__version__} "
        f"blas {blas_text} blas_threads {os.environ['OPENBLAS_NUM_THREADS']} "
        f"cpu_count {os.cpu_count()}"
    )


def round_figures(outcomes: list[Any]) -> dict[str, float]:
    arpgda_s = sum(o.arpgda_s for o in outcomes)
    iterations = sum(o.iterations for o in outcomes)
    phis = [o.phi for o in outcomes if o.iterations]
    return {
        "arpgda_s": arpgda_s,
        "arpgda_iterations": iterations,
        "arpgda_iter_us": arpgda_s / max(iterations, 1) * 1e6,
        "phi_mean": statistics.fmean(phis) if phis else 0.0,
        "rsg_s": sum(o.rsg_s for o in outcomes),
        "rsg_iterations": sum(o.rsg_iterations for o in outcomes),
        "arpgda_wall_s": sum(o.arpgda_wall_s for o in outcomes),
        "rsg_wall_s": sum(o.rsg_wall_s for o in outcomes),
    }


def per_call(calls: int, seconds: float, scale: float) -> float:
    return seconds / calls * scale if calls else 0.0


def layer_metrics(tracer: Any, traced: list[Any], csv_bytes: int, untraced_arpgda_s: float) -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}
    for name in LAYER_FUNCTIONS:
        calls, self_s = tracer.totals(name)
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.self_us"] = (per_call(calls, self_s, 1e6), "us")
    calls, self_s = tracer.totals("problem.smoothness_constants")
    m["problem.smoothness_constants.calls"] = (calls, "count")
    m["problem.smoothness_constants.self_ms"] = (per_call(calls, self_s, 1e3), "ms")
    iterations = {
        "arpgda.solve_arpgda": sum(o.iterations for o in traced),
        "baselines.solve_rsg": sum(o.rsg_iterations for o in traced),
    }
    for name, its in iterations.items():
        calls, self_s = tracer.totals(name)
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.self_us_per_iter"] = (per_call(its, self_s, 1e6), "us")
    L2 = [o.L2 for o in traced if o.iterations]
    rsg_iterations = iterations["baselines.solve_rsg"]
    m["data.csv_mb"] = (csv_bytes / 1e6, "MB")
    m["problem.L2"] = (statistics.fmean(L2) if L2 else 0.0, "1")
    m["arpgda.capped_iterations"] = (sum(o.iterations for o in traced if not o.converged), "count")
    m["arpgda.trace_records"] = (sum(o.trace_records for o in traced), "count")
    m["baselines.capped_runs"] = (sum(o.rsg_capped for o in traced), "count")
    m["baselines.useful_iterations_ratio"] = (
        sum(o.rsg_best_iterations for o in traced) / rsg_iterations if rsg_iterations else 0.0,
        "ratio",
    )
    traced_arpgda_s = sum(o.arpgda_s for o in traced)
    m["trace.arpgda_overhead_s"] = (traced_arpgda_s - untraced_arpgda_s, "s")
    return m


def print_layer_table(tracer: Any) -> None:
    total = sum(tracer.self_s) or 1.0
    print(f"{'span':42s} {'calls':>9s} {'self ms':>10s} {'self us/call':>13s} {'share':>7s}")
    for nid in sorted(range(len(tracer.names)), key=lambda i: -tracer.self_s[i]):
        calls, self_s = tracer.calls[nid], tracer.self_s[nid]
        print(
            f"{tracer.names[nid]:42s} {calls:9d} {self_s * 1e3:10.1f} "
            f"{per_call(calls, self_s, 1e6):13.2f} {self_s / total:7.1%}"
        )


def time_setup(cells: Any, paths: dict[str, Path], probe: Any) -> tuple[list[float], dict[str, Any]]:
    """Ingest every CSV, pass after pass; returns the passes' normalized
    times and the datasets of the last pass."""
    times: list[float] = []
    wall = 0.0
    while len(times) < SETUP_MIN_PASSES or wall < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        data = {name: cells.ingest(path) for name, path in paths.items()}
        t1 = time.perf_counter()
        times.append(probe.normalized(t0, t1))
        wall += t1 - t0
    return times, data


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "fairpca" / "__init__.py").is_file():
        print(f"error: no fairpca package under {src}; run from a checkout", file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy loads it.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import numpy as np

    import cells
    from speed import SpeedProbe
    from tracer import Tracer

    print(environment_line(np), f"workload {args.workload} seed {args.seed}", flush=True)
    workload = cells.workloads()[args.workload]
    datasets = {ds.name: ds for ds in workload.datasets}
    paths = {name: OUT / "inputs" / f"{name}.csv" for name in datasets}
    for name, path in paths.items():
        cells.write_csv(datasets[name], path)
    csv_bytes = sum(path.stat().st_size for path in paths.values())

    with SpeedProbe() as probe:
        setup_times, data = time_setup(cells, paths, probe)
        cell_list = workload.cells(args.seed)
        rounds = []
        t0 = time.perf_counter()
        while not rounds or time.perf_counter() - t0 < args.seconds:
            rounds.append(cells.run_round(cell_list, data, datasets, probe))
        if args.trace:
            tracer = Tracer()
            with tracer.span("bench.setup"):
                for path in paths.values():
                    cells.ingest(path, tracer)
            traced = cells.run_round(cell_list, data, datasets, probe, tracer)
        slowdown = probe.slowdown()

    correct = True
    for name, ds in datasets.items():
        if data[name].group_sizes != ds.sizes or not np.array_equal(data[name].X, ds.X):
            print(f"check failed: ingesting {paths[name].name} does not reproduce the data")
            correct = False
    outcomes = [o for rnd in rounds for o in rnd]
    figures = [round_figures(rnd) for rnd in rounds]
    e2e = {name: statistics.median(f[name] for f in figures) for name in figures[0]}
    print(
        f"wall: arpgda_s {e2e['arpgda_wall_s']:.3f} rsg_s {e2e['rsg_wall_s']:.3f}; "
        f"machine slowdown {slowdown:.3f} (times in metrics are at nominal speed)"
    )

    if args.trace:
        outcomes += traced
        print_layer_table(tracer)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(spans_path)
        print(f"{tracer.span_count} spans -> {spans_path.relative_to(ROOT)}")
        metrics = layer_metrics(tracer, traced, csv_bytes, e2e["arpgda_s"])
    else:
        e2e["setup_s"] = statistics.median(setup_times)
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {name: (e2e[name], unit) for name, unit in E2E_UNITS.items()}

    reported = set()
    for o in outcomes:
        if o.failure is not None and o.cell not in reported:
            reported.add(o.cell)
            print(f"failed: {o.cell.label}: {o.failure}")
    correct = correct and not any(o.check_errors for o in outcomes)
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(o.failure is not None for o in outcomes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
