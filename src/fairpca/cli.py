"""Command-line interface.

Commands:
  gen      write a synthetic dataset as CSV plus a sidecar meta JSON
  solve    run one solver on a dataset, one JSON report per seed
  compare  benchmark algorithms over a grid of (r, seed) cells
  metrics  evaluate diagnostics for a saved basis checkpoint

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numerical failure.  Effective parameter values (command line over config
file over built-in defaults) are echoed into every report.  All files are
written atomically (temp file in place, then rename).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import arpgda as arpgda_mod
from . import data as data_mod
from .baselines import RSGParams, iterations_to_reach, rsg_sweep, solve_rsg
from .exceptions import (
    DataError,
    DegenerateProblemError,
    DiagnosticUnavailableError,
    DimensionError,
    NumericalError,
)
from .problem import (
    GroupedDataset,
    dist_to_subgradient,
    group_objectives,
    min_objective,
)
from .stiefel import TOL_ORTH, load_point, orthonormality_error, save_point, validate_stiefel

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

DEFAULT_C_GRID = (1e-3, 1e-2, 1e-1, 1.0, 1e1)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here reserves 2 for data
    errors, so usage problems are rethrown and mapped to exit 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# small helpers


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def _atomic_write_json(path: Path, obj: Any) -> None:
    _atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _parse_int_list(text: str, what: str) -> list[int]:
    """Accept '1,2,5', '1:4' (inclusive), or '1:10:3' (with step)."""
    try:
        if ":" in text:
            parts = [int(p) for p in text.split(":")]
            if len(parts) == 2:
                lo, hi, step = parts[0], parts[1], 1
            elif len(parts) == 3:
                lo, hi, step = parts
            else:
                raise ValueError
            if step < 1 or hi < lo:
                raise ValueError
            return list(range(lo, hi + 1, step))
        return [int(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise _UsageError(f"cannot parse {what} list {text!r}") from None


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise _UsageError(f"cannot parse {what} list {text!r}") from None


def _list_text(value: Any) -> str:
    """A list option's value in its flag's comma form; a config file may
    give it as a JSON list instead."""
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


def _unique(values: list[Any]) -> list[Any]:
    """values without repeats, in first-seen order."""
    return list(dict.fromkeys(values))


def _parse_sizes(text: str) -> tuple[int, ...]:
    """'750x4' means four groups of 750; '10|20|30' lists sizes explicitly."""
    try:
        if "x" in text:
            size, count = text.split("x")
            return (int(size),) * int(count)
        return tuple(int(p) for p in text.split("|") if p != "")
    except ValueError:
        raise _UsageError(f"cannot parse group sizes {text!r}") from None


# The config keys each command reads; any other key is rejected.
_SHARED_KEYS = ("eps", "mu", "rho", "theta", "max_iters", "trace_stride")
_SOLVE_KEYS = frozenset((*_SHARED_KEYS, "c"))
_COMPARE_KEYS = frozenset((*_SHARED_KEYS, "r", "seeds", "algs", "c_grid", "jobs"))


def _load_config(path: str | None, known: frozenset[str]) -> dict[str, Any]:
    if path is None:
        return {}
    try:
        with open(path) as handle:
            cfg = json.load(handle)
    except FileNotFoundError:
        raise _UsageError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise _UsageError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise _UsageError(f"config file {path} has unknown key(s) {', '.join(unknown)}; "
                          f"known keys: {', '.join(sorted(known))}")
    return cfg


def _pick(cli_value: Any, cfg: dict[str, Any], key: str, fallback: Any) -> Any:
    if cli_value is not None:
        return cli_value
    if key in cfg:
        return cfg[key]
    return fallback


# ---------------------------------------------------------------------------
# dataset plumbing


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="dataset CSV path")
    p.add_argument("--group-col", default="group", help="group column name (default: group)")
    p.add_argument(
        "--gen",
        help="inline generator spec, e.g. gaussian:d=200,n=200,seed=7 "
        "or blocks:d=23,sizes=750x4,seed=1",
    )
    p.add_argument("--normalize", action="store_true", help="scale each sample to unit norm")
    p.add_argument("--center", action="store_true", help="center each sample to zero mean")
    p.add_argument(
        "--standardize",
        action="store_true",
        help="standardize each feature across the dataset before per-sample transforms",
    )
    p.add_argument(
        "--min-norm-threshold",
        type=float,
        default=None,
        help="drop samples with norm below this (default: 1e-6 of the largest norm)",
    )


def _dataset_from_gen_spec(spec: str) -> tuple[GroupedDataset, dict[str, Any]]:
    kind, _, body = spec.partition(":")
    kv: dict[str, str] = {}
    if body:
        for item in body.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise _UsageError(f"bad generator spec item {item!r} in {spec!r}")
            kv[key.strip()] = value.strip()
    try:
        if kind == "gaussian":
            d = int(kv.pop("d"))
            n = int(kv.pop("n"))
            seed = int(kv.pop("seed", "0"))
            extra = kv
            if extra:
                raise _UsageError(f"unknown gaussian keys {sorted(extra)} in {spec!r}")
            return data_mod.gen_synthetic_gaussian(d, n, seed), {
                "generator": "gaussian",
                "seed": seed,
            }
        if kind == "blocks":
            d = int(kv.pop("d"))
            sizes = _parse_sizes(kv.pop("sizes"))
            seed = int(kv.pop("seed", "0"))
            scales = None
            if "scales" in kv:
                scales = [float(s) for s in kv.pop("scales").split("|")]
            if kv:
                raise _UsageError(f"unknown blocks keys {sorted(kv)} in {spec!r}")
            return data_mod.gen_synthetic_blocks(d, sizes, seed, scales), {
                "generator": "blocks",
                "seed": seed,
            }
    except KeyError as exc:
        raise _UsageError(f"generator spec {spec!r} is missing key {exc}") from None
    except ValueError as exc:
        raise _UsageError(f"bad value in generator spec {spec!r}: {exc}") from None
    raise _UsageError(f"unknown generator kind {kind!r} (use gaussian or blocks)")


def _resolve_dataset(args: argparse.Namespace) -> tuple[GroupedDataset, data_mod.DatasetMeta]:
    if (args.data is None) == (args.gen is None):
        raise _UsageError("provide exactly one dataset source: --data or --gen")
    provenance: dict[str, Any] = {}
    if args.data is not None:
        if not os.path.exists(args.data):
            raise DataError(f"dataset file not found: {args.data}")
        dataset = data_mod.load_csv_grouped(args.data, args.group_col)
        provenance["source"] = str(args.data)
    else:
        dataset, provenance = _dataset_from_gen_spec(args.gen)
    threshold = args.min_norm_threshold
    if threshold is None:
        threshold = 1e-6 * float(dataset.sample_norms().max())
    dataset = data_mod.preprocess(
        dataset,
        normalize=args.normalize,
        center=args.center,
        min_norm_threshold=threshold,
        standardize_features=args.standardize,
    )
    meta = data_mod.describe(
        dataset,
        normalized=args.normalize,
        centered=args.center,
        min_norm_threshold=threshold,
        **provenance,
    )
    return dataset, meta


# ---------------------------------------------------------------------------
# solver plumbing


def _arpgda_params(
    data: GroupedDataset,
    r: int,
    seed: int,
    args: argparse.Namespace,
    cfg: dict[str, Any],
) -> arpgda_mod.ARPGDAParams:
    base = arpgda_mod.recommended_params(data, r)
    return arpgda_mod.ARPGDAParams(
        epsilon=float(_pick(args.eps, cfg, "eps", base.epsilon)),
        mu=float(_pick(args.mu, cfg, "mu", base.mu)),
        rho=float(_pick(args.rho, cfg, "rho", base.rho)),
        theta=float(_pick(args.theta, cfg, "theta", base.theta)),
        max_iters=int(_pick(args.max_iters, cfg, "max_iters", base.max_iters)),
        seed=seed,
        trace_stride=int(_pick(args.trace_stride, cfg, "trace_stride", base.trace_stride)),
    )


def _rsg_params(
    seed: int,
    args: argparse.Namespace,
    cfg: dict[str, Any],
    *,
    reference_phi: float | None,
) -> RSGParams:
    c = _pick(args.c, cfg, "c", None)
    if c is None:
        raise _UsageError("rsg needs --c (or 'c' in the config file)")
    return RSGParams(
        c=float(c),
        max_iters=int(_pick(args.max_iters, cfg, "max_iters", RSGParams.max_iters)),
        seed=seed,
        reference_phi=reference_phi,
        trace_stride=int(_pick(args.trace_stride, cfg, "trace_stride", RSGParams.trace_stride)),
    )


def _report_path(out: str, algorithm: str, r: int, seed: int, n_runs: int) -> Path:
    out_path = Path(out)
    if out_path.suffix == ".json":
        if n_runs > 1:
            raise _UsageError("--out must be a directory when running several seeds")
        out_path.parent.mkdir(parents=True, exist_ok=True)
        return out_path
    out_path.mkdir(parents=True, exist_ok=True)
    return out_path / f"report_{algorithm}_r{r}_seed{seed}.json"


# ---------------------------------------------------------------------------
# commands


def cmd_gen(args: argparse.Namespace) -> int:
    seed = args.seed
    if args.kind == "gaussian":
        if args.n is None or args.d is None:
            raise _UsageError("gen gaussian needs --d and --n")
        dataset = data_mod.gen_synthetic_gaussian(args.d, args.n, seed)
        generator = "gaussian"
    else:
        if args.sizes is None or args.d is None:
            raise _UsageError("gen blocks needs --d and --sizes")
        scales = None
        if args.scales is not None:
            scales = _parse_float_list(args.scales, "scales")
        dataset = data_mod.gen_synthetic_blocks(args.d, _parse_sizes(args.sizes), seed, scales)
        generator = "blocks"
    out = Path(args.out if args.out is not None else f"{args.kind}.csv")
    if not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write_text(out, data_mod.dataset_csv_text(dataset))
    meta = data_mod.describe(dataset, generator=generator, seed=seed)
    meta_path = out.with_suffix(".meta.json")
    _atomic_write_json(meta_path, meta.to_dict())
    print(f"wrote {dataset.num_samples} samples in {dataset.num_groups} groups to {out} (+ {meta_path.name})")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config, _SOLVE_KEYS)
    dataset, meta = _resolve_dataset(args)
    if args.r is None:
        raise _UsageError("solve needs --r")
    r = int(args.r)
    if not 1 <= r <= dataset.d:
        raise _UsageError(f"--r must lie in [1, {dataset.d}], got {r}")
    seeds = _parse_int_list(args.seed, "--seed")
    if not seeds:
        raise _UsageError("--seed must name at least one seed")
    for seed in seeds:
        if args.algorithm == "arpgda":
            params = _arpgda_params(dataset, r, seed, args, cfg)
            result = arpgda_mod.solve_arpgda(dataset, r, params)
        else:
            params = _rsg_params(seed, args, cfg, reference_phi=args.ref_phi)
            result = solve_rsg(dataset, r, params)
        report = result.to_report(asdict(params), meta.to_dict())
        path = _report_path(args.out, args.algorithm, r, seed, len(seeds))
        _atomic_write_json(path, report)
        if args.save_u is not None:
            u_dir = Path(args.save_u)
            u_dir.mkdir(parents=True, exist_ok=True)
            save_point(result.U, u_dir / f"u_{args.algorithm}_r{r}_seed{seed}.csv")
        if result.violations:
            print(
                f"warning: {len(result.violations)} inequality violation(s) recorded",
                file=sys.stderr,
            )
        stat = "-" if result.stationarity is None else f"{result.stationarity:.6g}"
        print(
            f"{args.algorithm} r={r} seed={seed} converged={result.converged} "
            f"iterations={result.iterations} phi={result.phi:.6g} E={stat} "
            f"time_ms={result.time_ms:.1f} -> {path}"
        )
    return EXIT_OK


def _run_compare_cell(dataset: GroupedDataset, spec: dict[str, Any]) -> dict[str, Any]:
    """One (r, seed) cell: ARPGDA first (unless its params are None), then
    the RSG sweep (unless its c_grid is None) referenced to ARPGDA's final
    value, reported by its best run."""
    r = spec["r"]
    seed = spec["seed"]
    cell: dict[str, Any] = {"r": r, "seed": seed}

    arpgda_result = None
    if spec["arpgda_params"] is not None:
        params = replace(spec["arpgda_params"], seed=seed)
        arpgda_result = arpgda_mod.solve_arpgda(dataset, r, params)
        cell["arpgda"] = {
            "phi": arpgda_result.phi,
            "iterations": arpgda_result.iterations,
            "converged": arpgda_result.converged,
            "time_ms": arpgda_result.time_ms,
            "stationarity": arpgda_result.stationarity,
            "violations": len(arpgda_result.violations),
        }
    if spec["c_grid"] is not None:
        runs = rsg_sweep(
            dataset,
            r,
            spec["c_grid"],
            seed=seed,
            max_iters=spec["rsg_max_iters"],
            reference_phi=arpgda_result.phi if arpgda_result is not None else None,
        )
        best = max(runs, key=lambda run: run.phi)
        cell["rsg"] = {
            "phi": best.phi,
            "iterations": best.iterations,
            "converged": best.converged,
            "time_ms": best.time_ms,
            "c": best.info["c"],
        }
        if arpgda_result is not None:
            reached = iterations_to_reach(arpgda_result.trace, best.phi)
            cell["arpgda_iters_to_rsg_phi"] = reached
            cell["arpgda_dominates"] = reached is not None and reached < best.iterations
    return cell


# The dataset of a compare worker process, set once by _init_compare_worker
# so that X is sent to each worker once rather than with every cell.
_worker_dataset: GroupedDataset


def _init_compare_worker(dataset: GroupedDataset) -> None:
    global _worker_dataset
    _worker_dataset = dataset


def _run_worker_cell(spec: dict[str, Any]) -> dict[str, Any]:
    return _run_compare_cell(_worker_dataset, spec)


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config, _COMPARE_KEYS)
    dataset, meta = _resolve_dataset(args)
    r_list = _unique(_parse_int_list(_list_text(_pick(args.r, cfg, "r", "1,2,5,10")), "--r"))
    if not r_list:
        raise _UsageError("--r must name at least one value")
    for r in r_list:
        if not 1 <= r <= dataset.d:
            raise _UsageError(f"--r values must lie in [1, {dataset.d}], got {r}")
    n_seeds = int(_pick(args.seeds, cfg, "seeds", 10))
    if n_seeds < 1:
        raise _UsageError("--seeds must be at least 1")
    algs_text = _list_text(_pick(args.algs, cfg, "algs", "arpgda,rsg"))
    algs = _unique([a.strip() for a in algs_text.split(",") if a.strip()])
    for alg in algs:
        if alg not in ("arpgda", "rsg"):
            raise _UsageError(f"unknown algorithm {alg!r} (use arpgda and/or rsg)")
    if not algs:
        raise _UsageError("--algs must name at least one algorithm")
    c_grid_text = _pick(args.c_grid, cfg, "c_grid", None)
    c_grid = (list(DEFAULT_C_GRID) if c_grid_text is None
              else _unique(_parse_float_list(_list_text(c_grid_text), "--c-grid")))
    if "rsg" in algs and not c_grid:
        raise _UsageError("--c-grid must name at least one stepsize scale")
    jobs = int(_pick(args.jobs, cfg, "jobs", 1))
    if jobs < 1:
        raise _UsageError(f"--jobs must be at least 1, got {jobs}")
    max_iters = int(_pick(args.max_iters, cfg, "max_iters", RSGParams.max_iters))

    specs = []
    for r in r_list:
        params = _arpgda_params(dataset, r, 0, args, cfg)
        for seed in range(n_seeds):
            specs.append(
                {
                    "r": r,
                    "seed": seed,
                    "arpgda_params": params if "arpgda" in algs else None,
                    "c_grid": c_grid if "rsg" in algs else None,
                    "rsg_max_iters": max_iters,
                }
            )

    if jobs > 1:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_compare_worker, initargs=(dataset,)
        ) as pool:
            cells = list(pool.map(_run_worker_cell, specs))
    else:
        cells = [_run_compare_cell(dataset, spec) for spec in specs]

    out_dir = Path(args.out if args.out is not None else ".")
    cells_dir = out_dir / "cells"
    cells_dir.mkdir(parents=True, exist_ok=True)
    for cell in cells:
        _atomic_write_json(cells_dir / f"cell_r{cell['r']}_seed{cell['seed']}.json", cell)

    rows = []
    for cell in cells:
        best_phi = max(cell[a]["phi"] for a in algs)
        for alg in algs:
            entry = cell[alg]
            ratio = entry["phi"] / best_phi if best_phi > 0 else math.nan
            floats = [repr(float(v)) for v in (entry["phi"], ratio, entry["time_ms"])]
            rows.append([alg, cell["r"], cell["seed"], *floats, entry["iterations"]])
    rows.sort(key=lambda row: row[:3])

    table_path = out_dir / "compare.csv"
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["algorithm", "r", "seed", "phi", "phi_ratio", "time_ms", "iterations"])
    writer.writerows(rows)
    _atomic_write_text(table_path, buffer.getvalue())

    aggregates: dict[str, dict[str, Any]] = {}
    for alg in algs:
        for r in r_list:
            entries = [c[alg] for c in cells if c["r"] == r]
            aggregates[f"{alg}_r{r}"] = {
                "algorithm": alg,
                "r": r,
                "mean_phi": float(np.mean([e["phi"] for e in entries])),
                "mean_time_ms": float(np.mean([e["time_ms"] for e in entries])),
                "mean_iterations": float(np.mean([e["iterations"] for e in entries])),
                "n_converged": sum(bool(e["converged"]) for e in entries),
                "n_cells": len(entries),
            }
    summary = {
        "dataset_meta": meta.to_dict(),
        "r_values": r_list,
        "n_seeds": n_seeds,
        "algorithms": algs,
        "c_grid": c_grid,
        "max_iters": max_iters,
        "cells": cells,
        "aggregates": aggregates,
    }
    _atomic_write_json(out_dir / "compare_summary.json", summary)

    for key in sorted(aggregates):
        agg = aggregates[key]
        print(
            f"{agg['algorithm']} r={agg['r']}: mean phi {agg['mean_phi']:.6g}, "
            f"mean iterations {agg['mean_iterations']:.0f}, "
            f"converged {agg['n_converged']}/{agg['n_cells']}"
        )
    print(f"table -> {table_path}")
    return EXIT_OK


def cmd_metrics(args: argparse.Namespace) -> int:
    dataset, meta = _resolve_dataset(args)
    if not os.path.exists(args.checkpoint):
        raise DataError(f"checkpoint file not found: {args.checkpoint}")
    U = load_point(args.checkpoint)
    if U.shape[0] != dataset.d:
        raise DataError(
            f"checkpoint has {U.shape[0]} rows but the dataset has d={dataset.d}"
        )
    tol = args.tol_orth if args.tol_orth is not None else TOL_ORTH
    validate_stiefel(U, tol)
    values = group_objectives(dataset, U)
    out: dict[str, Any] = {
        "dataset_meta": meta.to_dict(),
        "r": int(U.shape[1]),
        "phi": min_objective(dataset, U),
        "group_objectives": [float(v) for v in values],
        "orth_error": orthonormality_error(U),
        "dist_to_subgradient": dist_to_subgradient(dataset, U, rel_threshold=args.rel_threshold),
    }
    text = json.dumps(out, indent=2, sort_keys=True)
    if args.out is not None:
        _atomic_write_text(Path(args.out), text + "\n")
        print(f"metrics -> {args.out}")
    else:
        print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fairpca", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_gen = sub.add_parser("gen", help="write a synthetic dataset")
    p_gen.add_argument("kind", choices=["gaussian", "blocks"])
    p_gen.add_argument("--d", type=int, help="ambient dimension")
    p_gen.add_argument("--n", type=int, help="number of singleton groups (gaussian)")
    p_gen.add_argument("--sizes", help="block sizes, e.g. 750x4 or 10|20|30 (blocks)")
    p_gen.add_argument("--scales", help="per-group scales, e.g. 1,1,0 (blocks)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--out", help="output CSV path (default: <kind>.csv)")
    p_gen.set_defaults(func=cmd_gen)

    common_solver = argparse.ArgumentParser(add_help=False)
    common_solver.add_argument("--eps", type=float, default=None, help="target stationarity")
    common_solver.add_argument("--rho", type=float, default=None)
    common_solver.add_argument("--theta", type=float, default=None)
    common_solver.add_argument("--mu", type=float, default=None)
    common_solver.add_argument("--max-iters", type=int, default=None)
    common_solver.add_argument("--trace-stride", type=int, default=None)
    common_solver.add_argument("--config", help="JSON config file (flags win; unknown keys fail)")

    p_solve = sub.add_parser(
        "solve", parents=[common_solver], help="run one solver, one report per seed"
    )
    p_solve.add_argument("algorithm", choices=["arpgda", "rsg"])
    _add_dataset_args(p_solve)
    p_solve.add_argument("--r", type=int, help="number of basis columns")
    p_solve.add_argument("--seed", default="0", help="seed or comma list, e.g. 0,1,2")
    p_solve.add_argument("--c", type=float, default=None, help="rsg stepsize scale")
    p_solve.add_argument("--ref-phi", type=float, default=None, help="rsg stopping reference")
    p_solve.add_argument("--out", default=".", help="report directory (or single .json path)")
    p_solve.add_argument("--save-u", default=None, help="directory for final basis CSVs")
    p_solve.set_defaults(func=cmd_solve)

    p_cmp = sub.add_parser(
        "compare", parents=[common_solver], help="benchmark algorithms over (r, seed) cells"
    )
    _add_dataset_args(p_cmp)
    p_cmp.add_argument("--r", default=None, help="r list, e.g. 1,2,5,10 or 1:10")
    p_cmp.add_argument("--seeds", type=int, default=None, help="number of seeds (0..k-1)")
    p_cmp.add_argument("--algs", default=None, help="comma list from {arpgda, rsg}")
    p_cmp.add_argument("--c-grid", default=None, help="rsg stepsize sweep, comma list")
    p_cmp.add_argument("--jobs", type=int, default=None, help="parallel cell workers")
    p_cmp.add_argument("--out", default=".", help="output directory")
    p_cmp.set_defaults(func=cmd_compare)

    p_met = sub.add_parser("metrics", help="diagnostics for a saved basis checkpoint")
    _add_dataset_args(p_met)
    p_met.add_argument("--checkpoint", required=True, help="basis CSV written by solve --save-u")
    p_met.add_argument("--rel-threshold", type=float, default=0.1)
    p_met.add_argument("--tol-orth", type=float, default=None)
    p_met.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_met.set_defaults(func=cmd_metrics)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, DegenerateProblemError, DiagnosticUnavailableError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DimensionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
