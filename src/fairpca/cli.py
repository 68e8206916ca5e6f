"""Command-line interface.

Commands:
  gen      write a synthetic dataset as CSV plus a sidecar meta JSON
  solve    run one solver on a dataset, one JSON report per seed
  compare  benchmark algorithms over a grid of (r, seed) cells
  metrics  evaluate diagnostics for a saved basis checkpoint

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numerical failure, read from the exception's class (see main).  An input
file that cannot be read is a data error, except an @FILE of arguments,
which is a usage error.  @FILE anywhere on the command line stands for
FILE's lines, one argument a line, read in place, so a later value wins; a
file may name other files, but not itself, directly or through another.
Effective parameter values (flags over built-in defaults) are echoed into
every report.  All files are written atomically (temp file in place, then
rename) by _atomic_write_text; solve and compare make their output
directories before the first solve.  An output that cannot be written
exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import arpgda as arpgda_mod
from . import data as data_mod
from .baselines import DEFAULT_C_GRID, RSGParams, compare_cell, solve_rsg
from .exceptions import DataError, NumericalError, check_count, check_rank
from .problem import GroupedDataset, dist_to_subgradient, evaluate
from .stiefel import load_point, orthonormality_error, point_csv_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    """A usage or configuration error (exit 1).  Not a ValueError, so that
    the except ValueError clauses that reword library errors pass it on."""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here reserves 2 for data
    errors, so usage problems are rethrown and mapped to exit 1."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._reading: list[str] = []  # the @FILEs being expanded, outermost first

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)

    def convert_arg_line_to_args(self, arg_line: str) -> list[str]:
        """One @FILE line is one argument, stripped; a blank line is none."""
        arg = arg_line.strip()
        return [arg] if arg else []

    def _read_args_from_files(self, arg_strings: list[str]) -> list[str]:
        """argparse's @FILE expansion, which also calls this on each file's
        lines, handed one file at a time: a file that is already being read,
        directly or through another, and one that does not decode as text
        are usage errors that name the file, not a RecursionError or a bare
        codec message."""
        expanded: list[str] = []
        for arg in arg_strings:
            if not arg.startswith("@"):
                expanded.append(arg)
                continue
            name, path = arg[1:], os.path.realpath(arg[1:])
            if path in self._reading:
                self.error(f"{name}: the @FILE reads itself, directly or through another file")
            self._reading.append(path)
            try:
                expanded += super()._read_args_from_files([arg])
            except UnicodeDecodeError as exc:
                self.error(f"{name}: cannot decode as text: {exc}")
            finally:
                self._reading.pop()
        return expanded


# ---------------------------------------------------------------------------
# small helpers


def _make_dir(path: Path) -> None:
    """Make directory path and any missing parent; exit 1 if it cannot be made."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _atomic_write_text(path: Path, text: str) -> None:
    """Write text to path through a temp file beside it and a rename, making
    any missing parent directory first; the only code that writes a file."""
    _make_dir(path.parent)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        # unlink raises too when the parent is not a directory
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise _UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _atomic_write_json(path: Path, obj: Any) -> None:
    _atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _parse_list(text: str, flag: str, noun: str, item: Callable[[str], Any] = str) -> list[Any]:
    """The distinct items of the comma list text, in first-seen order, each
    stripped and read by item; blank items are skipped.  An int list may
    also be 'lo:hi' or 'lo:hi:step', inclusive.  Exit 1 if an item does not
    parse or if no item is left."""
    try:
        if item is int and ":" in text:
            parts = [int(p) for p in text.split(":")]
            lo, hi, step = parts if len(parts) == 3 else (*parts, 1)
            if step < 1 or hi < lo:
                raise ValueError
            values = list(range(lo, hi + 1, step))
        else:
            values = [item(p.strip()) for p in text.split(",") if p.strip()]
    except ValueError:
        raise _UsageError(f"cannot parse {flag} list {text!r}") from None
    if not values:
        raise _UsageError(f"{flag} must name at least one {noun}")
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
    """Generate the dataset that spec names, 'gaussian:d=..,n=..[,seed=..]'
    or 'blocks:d=..,sizes=..[,scales=..][,seed=..]' (seed defaults to 0);
    returns it with its provenance (generator and seed)."""
    kind, _, body = spec.partition(":")
    kv: dict[str, str] = {}
    if body:
        for item in body.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq:
                raise _UsageError(f"bad generator spec item {item!r} in {spec!r}")
            if key in kv:
                raise _UsageError(f"generator spec {spec!r} repeats key {key!r}")
            kv[key] = value.strip()

    def number(what: str, text: str, kind: type = int) -> Any:
        try:
            return kind(text)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise _UsageError(f"generator spec {spec!r}: {what} must be {noun}, got {text!r}") from None

    try:
        seed = number("seed", kv.pop("seed", "0"))
        if kind == "gaussian":
            d = number("d", kv.pop("d"))
            n = number("n", kv.pop("n"))
            if kv:
                raise _UsageError(f"unknown gaussian keys {sorted(kv)} in {spec!r}")
            return data_mod.gen_synthetic_gaussian(d, n, seed), {
                "generator": "gaussian",
                "seed": seed,
            }
        if kind == "blocks":
            d = number("d", kv.pop("d"))
            sizes = _parse_sizes(kv.pop("sizes"))
            scales = None
            if "scales" in kv:
                scales = [number("each scale", s, float) for s in kv.pop("scales").split("|")]
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


def _resolve_dataset(args: argparse.Namespace) -> tuple[GroupedDataset, dict[str, Any]]:
    if (args.data is None) == (args.gen is None):
        raise _UsageError("provide exactly one dataset source: --data or --gen")
    provenance: dict[str, Any] = {}
    if args.data is not None:
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
        standardized=args.standardize,
        min_norm_threshold=threshold,
        **provenance,
    )
    return dataset, meta


# ---------------------------------------------------------------------------
# solver plumbing


# The solver flags by the args field each sets.  Every one defaults to None,
# so a field that is not None was set by its flag.
_SOLVER_FLAGS = {"epsilon": "--eps", "mu": "--mu", "rho": "--rho", "theta": "--theta",
                 "max_iters": "--max-iters", "trace_stride": "--trace-stride",
                 "c": "--c", "reference_phi": "--ref-phi", "c_grid": "--c-grid"}

# The fields each solver of each command reads, stated once: a run rejects
# every other solver flag.  compare's ARPGDA keeps ARPGDAParams' own cap and
# stride: its --max-iters caps only the RSG sweep, and
# arpgda_iters_to_rsg_phi counts every iteration.
_READS = {
    "solve": {"arpgda": ("epsilon", "mu", "rho", "theta", "max_iters", "trace_stride"),
              "rsg": ("c", "reference_phi", "max_iters", "trace_stride")},
    "compare": {"arpgda": ("epsilon", "mu", "rho", "theta"),
                "rsg": ("max_iters", "c_grid")},
}


def _given(args: argparse.Namespace, *fields: str) -> dict[str, Any]:
    """The params fields among fields whose flag was set."""
    return {field: getattr(args, field) for field in fields if getattr(args, field) is not None}


def _reject_unread(args: argparse.Namespace, solvers: Sequence[str]) -> None:
    """Exit 1 naming every solver flag that was set but that no solver of
    solvers reads in this command."""
    read = {field for solver in solvers for field in _READS[args.command][solver]}
    unread = [flag for field, flag in _SOLVER_FLAGS.items()
              if field not in read and getattr(args, field, None) is not None]
    if unread:
        raise _UsageError(f"no solver of this run reads {', '.join(unread)}")


def _arpgda_params(data: GroupedDataset, r: int, seed: int,
                   args: argparse.Namespace) -> arpgda_mod.ARPGDAParams:
    given = _given(args, *_READS[args.command]["arpgda"])
    return replace(arpgda_mod.recommended_params(data, r, seed=seed), **given)


def _rsg_params(seed: int, args: argparse.Namespace) -> RSGParams:
    if args.c is None:
        raise _UsageError("rsg needs --c")
    return RSGParams(seed=seed, **_given(args, *_READS["solve"]["rsg"]))


def _report_path(out: Path, algorithm: str, r: int, seed: int) -> Path:
    if out.suffix == ".json":
        return out
    return out / f"report_{algorithm}_r{r}_seed{seed}.json"


# ---------------------------------------------------------------------------
# commands


def cmd_gen(args: argparse.Namespace) -> int:
    dataset, provenance = _dataset_from_gen_spec(args.spec)
    out = Path(args.out if args.out is not None else f"{provenance['generator']}.csv")
    _atomic_write_text(out, data_mod.dataset_csv_text(dataset))
    meta_path = out.with_suffix(".meta.json")
    _atomic_write_json(meta_path, data_mod.describe(dataset, **provenance))
    print(f"wrote {dataset.num_samples} samples in {dataset.num_groups} groups to {out} (+ {meta_path.name})")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    dataset, meta = _resolve_dataset(args)
    r = check_rank("--r", args.r, dataset.d)
    _reject_unread(args, [args.algorithm])
    seeds = _parse_list(args.seed, "--seed", "seed", int)
    for seed in seeds:
        check_count("seed", seed, 0)
    out = Path(args.out)
    if out.suffix == ".json":
        if len(seeds) > 1:
            raise _UsageError("--out must be a directory when running several seeds")
        if out.is_dir():
            raise _UsageError(f"cannot write {out}: Is a directory")
        _make_dir(out.parent)
    else:
        _make_dir(out)
    if args.save_u is not None:
        _make_dir(Path(args.save_u))
    for seed in seeds:
        if args.algorithm == "arpgda":
            result = arpgda_mod.solve_arpgda(dataset, r, _arpgda_params(dataset, r, seed, args))
        else:
            result = solve_rsg(dataset, r, _rsg_params(seed, args))
        report = result.to_report(meta)
        path = _report_path(out, args.algorithm, r, seed)
        _atomic_write_json(path, report)
        if args.save_u is not None:
            u_path = Path(args.save_u) / f"u_{args.algorithm}_r{r}_seed{seed}.csv"
            _atomic_write_text(u_path, point_csv_text(result.U))
        stat = "-" if result.stationarity is None else f"{result.stationarity:.6g}"
        print(
            f"{args.algorithm} r={r} seed={seed} converged={result.converged} "
            f"iterations={result.iterations} phi={result.phi:.6g} E={stat} "
            f"time_ms={result.time_ms:.1f} -> {path}"
        )
    return EXIT_OK


def _run_compare_cell(dataset: GroupedDataset, spec: dict[str, Any]) -> dict[str, Any]:
    """One (r, seed) cell, run by compare_cell with spec as its arguments,
    as the dict compare writes: each solver that ran (RSG by its best run)
    and, when both ran, the dominance fields."""
    result = compare_cell(dataset, **spec)
    cell: dict[str, Any] = {"r": spec["r"], "seed": spec["seed"]}
    arpgda, rsg = result.arpgda, result.rsg
    if arpgda is not None:
        cell["arpgda"] = {"phi": arpgda.phi, "iterations": arpgda.iterations,
                          "converged": arpgda.converged, "time_ms": arpgda.time_ms,
                          "stationarity": arpgda.stationarity,
                          "violations": len(arpgda.violations)}
    if rsg is not None:
        cell["rsg"] = {"phi": rsg.phi, "iterations": rsg.iterations, "converged": rsg.converged,
                       "time_ms": rsg.time_ms, "c": rsg.params.c}
    if arpgda is not None and rsg is not None:
        cell["arpgda_iters_to_rsg_phi"] = result.arpgda_iters_to_rsg_phi
        cell["arpgda_dominates"] = result.arpgda_dominates
    return cell


# The dataset of a compare worker process, set once by _init_compare_worker
# so that X is sent to each worker once rather than with every cell.
_worker_dataset: GroupedDataset


def _init_compare_worker(dataset: GroupedDataset) -> None:
    global _worker_dataset
    _worker_dataset = dataset
    warnings.showwarning = _show_warning  # for a start method other than fork


def _run_worker_cell(spec: dict[str, Any]) -> dict[str, Any]:
    return _run_compare_cell(_worker_dataset, spec)


def cmd_compare(args: argparse.Namespace) -> int:
    dataset, meta = _resolve_dataset(args)
    r_list = _parse_list(args.r, "--r", "value", int)
    for r in r_list:
        check_rank("--r", r, dataset.d)
    n_seeds = check_count("--seeds", args.seeds, 1)
    algs = _parse_list(args.algs, "--algs", "algorithm")
    for alg in algs:
        if alg not in ("arpgda", "rsg"):
            raise _UsageError(f"unknown algorithm {alg!r} (use arpgda and/or rsg)")
    _reject_unread(args, algs)
    check_count("--jobs", args.jobs, 1)
    arpgda_params = ({r: _arpgda_params(dataset, r, 0, args) for r in r_list}
                     if "arpgda" in algs else {})
    rsg_max_iters = c_grid = None
    if "rsg" in algs:
        rsg_max_iters = RSGParams.max_iters if args.max_iters is None else args.max_iters
        c_grid = (list(DEFAULT_C_GRID) if args.c_grid is None
                  else _parse_list(args.c_grid, "--c-grid", "stepsize scale", float))
        for c in c_grid:  # a bad scale exits here, before any solve
            RSGParams(c=c, max_iters=rsg_max_iters)

    specs = [{"r": r, "seed": seed, "arpgda_params": arpgda_params.get(r),
              "c_grid": c_grid or (), "rsg_max_iters": rsg_max_iters}
             for r in r_list for seed in range(n_seeds)]

    out_dir = Path(args.out)
    _make_dir(out_dir)
    # the pool starts all its workers at once under fork, so no more than
    # there are cells
    jobs = min(args.jobs, len(specs))
    if jobs > 1:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_compare_worker, initargs=(dataset,)
        ) as pool:
            cells = list(pool.map(_run_worker_cell, specs))
    else:
        cells = [_run_compare_cell(dataset, spec) for spec in specs]

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
        "dataset_meta": meta,
        "r_values": r_list,
        "n_seeds": n_seeds,
        "algorithms": algs,
        "c_grid": c_grid,
        "rsg_max_iters": rsg_max_iters,
        "arpgda_params": {r: {k: v for k, v in asdict(params).items() if k != "seed"}
                          for r, params in arpgda_params.items()} or None,
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
    U = load_point(args.checkpoint)
    if U.shape[0] != dataset.d:
        raise DataError(
            f"checkpoint has {U.shape[0]} rows but the dataset has d={dataset.d}"
        )
    values = evaluate(dataset, U).values
    # dist_to_subgradient rejects a U off the manifold by more than TOL_ORTH
    out: dict[str, Any] = {
        "dataset_meta": meta,
        "r": int(U.shape[1]),
        "phi": float(values.min()),
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
    parser = _Parser(prog="fairpca", description=__doc__.split("\n\n")[0],
                     fromfile_prefix_chars="@",
                     epilog="@FILE anywhere stands for FILE's lines, one argument a line.")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_gen = sub.add_parser("gen", help="write a synthetic dataset")
    p_gen.add_argument("spec", help="generator spec, as --gen takes it")
    p_gen.add_argument("-o", "--out", help="output CSV path (default: <kind>.csv)")
    p_gen.set_defaults(func=cmd_gen)

    common_solver = argparse.ArgumentParser(add_help=False)
    common_solver.add_argument(
        "--eps", dest="epsilon", type=float, default=None, help="target stationarity"
    )
    common_solver.add_argument("--rho", type=float, default=None,
                               help="arpgda weight decay exponent rho > 1 of beta_k = mu k^-rho")
    common_solver.add_argument("--theta", type=float, default=None,
                               help="arpgda stepsize factor in (0, 2)")
    common_solver.add_argument("--mu", type=float, default=None,
                               help="arpgda weight scale mu >= 0 of beta_k = mu k^-rho")
    common_solver.add_argument("--max-iters", type=int, default=None,
                               help="iteration cap (compare: of each RSG run only)")

    p_solve = sub.add_parser(
        "solve", parents=[common_solver], help="run one solver, one report per seed"
    )
    p_solve.add_argument("algorithm", choices=["arpgda", "rsg"], help="solver to run")
    _add_dataset_args(p_solve)
    p_solve.add_argument("--r", type=int, required=True, help="number of basis columns")
    p_solve.add_argument("--seed", default="0",
                         help="seed, comma list or lo:hi[:step] range, e.g. 0,1,2 or 0:9")
    p_solve.add_argument("--c", type=float, default=None, help="rsg stepsize scale")
    p_solve.add_argument("--ref-phi", dest="reference_phi", type=float, default=None,
                         help="rsg stopping reference")
    p_solve.add_argument("--trace-stride", type=int, default=None,
                         help="record every N-th step in the trace (default: 1)")
    p_solve.add_argument("--out", default=".", help="report directory (or single .json path)")
    p_solve.add_argument("--save-u", default=None, help="directory for final basis CSVs")
    p_solve.set_defaults(func=cmd_solve)

    p_cmp = sub.add_parser(
        "compare", parents=[common_solver], help="benchmark algorithms over (r, seed) cells"
    )
    _add_dataset_args(p_cmp)
    p_cmp.add_argument("--r", default="1,2,5,10", help="r list, e.g. 1,2,5,10 or 1:10")
    p_cmp.add_argument("--seeds", type=int, default=10, help="number of seeds (0..k-1)")
    p_cmp.add_argument("--algs", default="arpgda,rsg", help="comma list from {arpgda, rsg}")
    p_cmp.add_argument(
        "--c-grid", default=None,
        help=f"rsg stepsize sweep, comma list (default: {','.join(map(str, DEFAULT_C_GRID))})",
    )
    p_cmp.add_argument("--jobs", type=int, default=1, help="parallel cell workers")
    p_cmp.add_argument("--out", default=".", help="output directory")
    p_cmp.set_defaults(func=cmd_compare)

    p_met = sub.add_parser("metrics", help="diagnostics for a saved basis checkpoint")
    _add_dataset_args(p_met)
    p_met.add_argument("--checkpoint", required=True, help="basis CSV written by solve --save-u")
    p_met.add_argument("--rel-threshold", type=float, default=0.1,
                       help="near-active group slack, relative to the smallest variance "
                       "(default: 0.1)")
    p_met.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_met.set_defaults(func=cmd_metrics)

    return parser


def _show_warning(message: Warning | str, *_: Any) -> None:
    """Show a warning as the one stderr line 'warning: <message>', in one
    write and flushed: compare's workers share stderr, and print's separate
    write of the line end lets another worker's line fall in between."""
    sys.stderr.write(f"warning: {message}\n")
    sys.stderr.flush()


def main(argv: Sequence[str] | None = None) -> int:
    """Run the command that argv names.  The clauses below read the exit
    code from the class of the exception that ends the run; each warning is
    shown as one line, under the caller's warning filters, and one that
    they turn into an error exits 1."""
    parser = build_parser()
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            args = parser.parse_args(argv)
            if getattr(args, "func", None) is None:
                parser.print_usage(sys.stderr)
                return EXIT_USAGE
            return args.func(args)
        except NumericalError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        except (DataError, OSError) as exc:
            print(f"data error: {exc}", file=sys.stderr)
            return EXIT_DATA
        except (_UsageError, ValueError, Warning) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
