"""End-to-end command line behavior: exit codes, files, reproducibility."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import asdict, replace

import jsonschema
import numpy as np
import pytest

from fairpca import (
    REPORT_SCHEMA,
    DataError,
    DegenerateProblemError,
    DiagnosticUnavailableError,
    GroupedDataset,
    compare_cell,
    dataset_csv_text,
    gen_synthetic_gaussian,
    iterations_to_reach,
    recommended_params,
    solve_arpgda,
)
from fairpca.cli import DEFAULT_C_GRID, _show_warning, main


def run(argv):
    return main([str(a) for a in argv])


def args_file(path, *lines):
    """Write path as an @FILE of arguments, one a line; return '@path'."""
    path.write_text("".join(f"{line}\n" for line in lines))
    return f"@{path}"


def read_csv_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestGen:
    def test_gaussian_writes_csv_and_meta(self, tmp_path, capsys):
        out = tmp_path / "toy.csv"
        assert run(["gen", "gaussian:d=4,n=6,seed=2", "--out", out]) == 0
        assert out.exists()
        meta = json.loads((tmp_path / "toy.meta.json").read_text())
        assert meta["d"] == 4
        assert meta["num_samples"] == 6
        assert meta["generator"] == "gaussian"
        assert meta["seed"] == 2
        assert "wrote 6 samples" in capsys.readouterr().out

    def test_blocks_with_scales(self, tmp_path):
        out = tmp_path / "blk.csv"
        assert run(["gen", "blocks:d=5,sizes=4x3,scales=1|1|0,seed=1",
                    "--out", out]) == 0
        meta = json.loads((tmp_path / "blk.meta.json").read_text())
        assert meta["group_sizes"] == [4, 4, 4]

    def test_missing_required_flags(self, tmp_path, capsys):
        assert run(["gen", "gaussian:d=4", "--out", tmp_path / "g.csv"]) == 1
        assert "missing key 'n'" in capsys.readouterr().err
        assert run(["gen", "blocks:d=4", "--out", tmp_path / "b.csv"]) == 1
        assert "missing key 'sizes'" in capsys.readouterr().err
        # the old flag form of gen is gone
        assert run(["gen", "gaussian", "--d", 4, "--n", 6]) == 1
        assert not list(tmp_path.iterdir())

    def test_bad_sizes_spec(self, tmp_path):
        assert run(["gen", "blocks:d=4,sizes=4xx3", "--out", tmp_path / "x.csv"]) == 1

    def test_gen_is_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(["gen", "gaussian:d=3,n=5,seed=7", "--out", a]) == 0
        assert run(["gen", "gaussian:d=3,n=5,seed=7", "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_default_out_is_named_after_the_kind(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["gen", "blocks:d=3,sizes=2x2"]) == 0
        assert json.loads((tmp_path / "blocks.meta.json").read_text())["seed"] == 0
        assert (tmp_path / "blocks.csv").exists()

    @pytest.mark.parametrize("spec, message", [
        ("gaussian:d=3,n=3,seed=1,d=5", "repeats key 'd'"),
        ("blocks:d=3,sizes=2x2,sizes=3x2", "repeats key 'sizes'"),
        ("gaussian:d=3,n=3,seed=-1", "seed must be at least 0, got -1"),
        ("gaussian:d=x,n=3", "'gaussian:d=x,n=3': d must be an integer, got 'x'"),
        ("gaussian:d=3,n=y", "n must be an integer, got 'y'"),
        ("gaussian:d=3,n=3,seed=1.5", "seed must be an integer, got '1.5'"),
        ("blocks:d=3,sizes=2x2,scales=1|a", "each scale must be a number, got 'a'"),
        ("gaussian:d3", "bad generator spec item 'd3' in 'gaussian:d3'"),
        ("gaussian:d=3,n=3,foo=1", "unknown gaussian keys ['foo'] in 'gaussian:d=3,n=3,foo=1'"),
        ("blocks:d=3,sizes=2x2,foo=1", "unknown blocks keys ['foo'] in 'blocks:d=3,sizes=2x2,foo=1'"),
    ], ids=["repeated_d", "repeated_sizes", "negative_seed", "d_not_int", "n_not_int",
            "seed_not_int", "scale_not_number", "item_without_equals", "unknown_gaussian_key",
            "unknown_blocks_key"])
    def test_spec_names_the_bad_key(self, tmp_path, capsys, spec, message):
        assert run(["gen", spec, "--out", tmp_path / "x.csv"]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()
        assert run(["solve", "arpgda", "--gen", spec, "--r", 1, "--out", tmp_path]) == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("report_*.json"))


class TestSolve:
    def test_arpgda_report(self, tmp_path):
        out = tmp_path / "runs"
        assert run(["solve", "arpgda", "--gen", "gaussian:d=8,n=8,seed=1",
                    "--r", 2, "--seed", 3, "--max-iters", 500,
                    "--trace-stride", 100, "--out", out]) == 0
        report_path = out / "report_arpgda_r2_seed3.json"
        report = json.loads(report_path.read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["algorithm"] == "arpgda"
        assert report["r"] == 2
        assert report["params"]["seed"] == 3
        assert report["dataset_meta"]["generator"] == "gaussian"
        assert report["violations"] == []

    def test_saved_trace_reads_as_result_trace(self, tmp_path):
        assert run(["solve", "arpgda", "--gen", "gaussian:d=8,n=8,seed=1",
                    "--r", 2, "--seed", 3, "--max-iters", 500,
                    "--trace-stride", 10, "--out", tmp_path / "a.json"]) == 0
        saved = json.loads((tmp_path / "a.json").read_text())["trace"]
        data = gen_synthetic_gaussian(8, 8, 1)
        params = replace(recommended_params(data, 2, seed=3), max_iters=500, trace_stride=10)
        result = solve_arpgda(data, 2, params)
        strip = lambda trace: [{**row, "ms": None} for row in trace]
        assert strip(saved) == strip(result.trace)
        for row in saved:
            assert iterations_to_reach(saved, row["phi"]) == iterations_to_reach(
                result.trace, row["phi"])
        assert iterations_to_reach(saved, 2.0 * saved[-1]["phi"]) is None

    def test_negative_seed_names_the_flag(self, tmp_path, capsys):
        out = tmp_path / "newdir"
        assert run(["solve", "arpgda", "--gen", "gaussian:d=6,n=6,seed=0",
                    "--r", 1, "--seed", "0,-1", "--out", out]) == 1
        assert "error: seed must be at least 0, got -1" in capsys.readouterr().err
        # checked with the other flags, before any directory is made
        assert not out.exists()

    def test_single_json_out_path(self, tmp_path):
        target = tmp_path / "one.json"
        assert run(["solve", "arpgda", "--gen", "gaussian:d=6,n=6,seed=0",
                    "--r", 1, "--max-iters", 200, "--trace-stride", 50,
                    "--out", target]) == 0
        assert target.exists()

    def test_multi_seed_needs_directory(self, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before rejecting --out")

        monkeypatch.setattr("fairpca.arpgda.solve_arpgda", no_solve)
        assert run(["solve", "arpgda", "--gen", "gaussian:d=6,n=6,seed=0",
                    "--r", 1, "--seed", "0,1", "--max-iters", 50,
                    "--out", tmp_path / "one.json"]) == 1
        assert "--out must be a directory" in capsys.readouterr().err
        assert not (tmp_path / "one.json").exists()

    @pytest.mark.parametrize("algorithm, flag, field", [
        ("arpgda", "--eps", "epsilon"), ("arpgda", "--mu", "mu"), ("arpgda", "--rho", "rho"),
        ("rsg", "--c", "c"), ("rsg", "--ref-phi", "reference_phi"),
    ])
    def test_non_finite_parameter_exits_1_before_any_solve(self, tmp_path, capsys,
                                                           monkeypatch, algorithm, flag, field):
        def solve_must_not_run(*args, **kwargs):
            raise AssertionError("solved with a non-finite parameter")

        monkeypatch.setattr("fairpca.cli.arpgda_mod.solve_arpgda", solve_must_not_run)
        monkeypatch.setattr("fairpca.cli.solve_rsg", solve_must_not_run)
        extra = ["--c", 0.1] if flag == "--ref-phi" else []
        assert run(["solve", algorithm, "--gen", "gaussian:d=6,n=6,seed=0", "--r", 1,
                    *extra, flag, "inf", "--out", tmp_path]) == 1
        err = capsys.readouterr().err
        assert f"error: {field} must " in err and "finite, got inf" in err
        assert not list(tmp_path.glob("report_*.json"))

    def test_epsilon_whose_lambda_underflows_exits_1(self, tmp_path, capsys):
        # lambda = epsilon / 8 rounds to 0, and with mu = 0 the U-stepsize
        # would divide by it
        assert run(["solve", "arpgda", "--gen", "blocks:d=4,sizes=30|30|30,seed=0", "--r", 2,
                    "--eps", "5e-324", "--mu", 0, "--max-iters", 5, "--out", tmp_path]) == 1
        assert capsys.readouterr().err == (
            "error: epsilon must be large enough that lambda = epsilon / 8 is positive, "
            "got 5e-324\n")
        assert not list(tmp_path.glob("report_*.json"))

    def test_repeated_seeds_run_once(self, tmp_path, capsys):
        assert run(["solve", "arpgda", "--gen", "gaussian:d=6,n=6,seed=0", "--r", 1,
                    "--seed", "1,0,1", "--max-iters", 50, "--out", tmp_path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[2] for line in lines] == ["seed=1", "seed=0"]
        assert len(list(tmp_path.glob("report_*.json"))) == 2

    def test_rsg_needs_c(self, tmp_path):
        assert run(["solve", "rsg", "--gen", "gaussian:d=6,n=6,seed=0",
                    "--r", 1, "--out", tmp_path]) == 1

    def test_rsg_report(self, tmp_path):
        assert run(["solve", "rsg", "--gen", "gaussian:d=6,n=6,seed=0",
                    "--r", 1, "--c", 0.1, "--max-iters", 300,
                    "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "report_rsg_r1_seed0.json").read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["algorithm"] == "rsg"
        assert report["stationarity"] is None

    def test_solver_flags_reach_params(self, tmp_path):
        assert run(["solve", "arpgda", "--gen", "gaussian:d=6,n=6,seed=0",
                    "--r", 1, "--eps", 0.25, "--mu", 11.0, "--rho", 1.5,
                    "--theta", 0.7, "--max-iters", 50, "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "report_arpgda_r1_seed0.json").read_text())
        assert report["params"]["epsilon"] == 0.25
        assert report["params"]["mu"] == 11.0
        assert report["params"]["rho"] == 1.5
        assert report["params"]["theta"] == 0.7

    def test_missing_dataset_file(self, tmp_path):
        assert run(["solve", "arpgda", "--data", tmp_path / "nope.csv",
                    "--r", 1, "--out", tmp_path]) == 2

    def test_dataset_source_is_exclusive(self, tmp_path):
        assert run(["solve", "arpgda", "--r", 1, "--out", tmp_path]) == 1
        csv_path = tmp_path / "d.csv"
        assert run(["gen", "gaussian:d=3,n=3", "--out", csv_path]) == 0
        assert run(["solve", "arpgda", "--data", csv_path,
                    "--gen", "gaussian:d=3,n=3,seed=0",
                    "--r", 1, "--out", tmp_path]) == 1

    def test_bad_gen_spec(self, tmp_path):
        assert run(["solve", "arpgda", "--gen", "swirl:d=3", "--r", 1,
                    "--out", tmp_path]) == 1
        assert run(["solve", "arpgda", "--gen", "gaussian:d=3", "--r", 1,
                    "--out", tmp_path]) == 1

    def test_r_out_of_range(self, tmp_path, capsys, monkeypatch):
        def solve_must_not_run(*args, **kwargs):
            raise AssertionError("solved with r > d")

        monkeypatch.setattr("fairpca.cli.arpgda_mod.solve_arpgda", solve_must_not_run)
        out = tmp_path / "out"
        for argv in (["solve", "arpgda", "--r", 5], ["compare", "--r", "1,5", "--seeds", 1]):
            assert run([*argv, "--gen", "gaussian:d=4,n=4,seed=0", "--out", out]) == 1
            assert "error: --r must lie in [1, 4], got 5" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("head, flags, lines, message", [
        (["solve", "rsg", "--c", 0.1], ["--mu", 5, "--rho", 9], None, "reads --mu, --rho"),
        (["solve", "rsg"], [], ["--c=0.1", "--mu=5", "--rho", "9"], "reads --mu, --rho"),
        (["solve", "arpgda"], ["--c", 0.1, "--ref-phi", 3], None, "reads --c, --ref-phi"),
        (["solve", "arpgda"], ["--ref-phi", 3], ["--c=0.1"], "reads --c, --ref-phi"),
        (["compare", "--algs", "rsg", "--seeds", 1], ["--eps", 0.5, "--mu", 3], None,
         "reads --eps, --mu"),
        (["compare", "--seeds", 1], [], ["--algs=rsg", "--eps=0.5", "--mu=3"], "reads --eps, --mu"),
        (["compare", "--algs", "arpgda", "--seeds", 1], ["--c-grid", 0.5], None, "reads --c-grid"),
        (["compare", "--seeds", 1], [], ["--algs=arpgda", "--c-grid=0.5"], "reads --c-grid"),
        (["compare", "--algs", "arpgda", "--seeds", 1], ["--max-iters", 5], None,
         "reads --max-iters"),
        (["compare", "--seeds", 1], [], ["--algs=arpgda", "--max-iters=5"], "reads --max-iters"),
        # no solver of compare reads a trace, so compare has no such flag
        (["compare", "--seeds", 1], ["--trace-stride", 5], None,
         "unrecognized arguments: --trace-stride 5"),
    ], ids=["solve_rsg-flag", "solve_rsg-config", "solve_arpgda-flag", "solve_arpgda-config",
            "compare_rsg-flag", "compare_rsg-config", "compare_arpgda-flag",
            "compare_arpgda-config", "compare_arpgda-max_iters-flag",
            "compare_arpgda-max_iters-config", "compare-trace_stride-flag"])
    def test_unread_solver_flags_exit_1_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                         head, flags, lines, message):
        def solve_must_not_run(*args, **kwargs):
            raise AssertionError("solved with a flag that no solver reads")

        for name in ("arpgda_mod.solve_arpgda", "solve_rsg", "compare_cell"):
            monkeypatch.setattr(f"fairpca.cli.{name}", solve_must_not_run)
        if lines is not None:
            flags = [*flags, args_file(tmp_path / "run.args", *lines)]
        out = tmp_path / "out"
        assert run([*head, "--gen", "gaussian:d=4,n=4,seed=0", "--r", 1, *flags,
                    "--out", out]) == 1
        line = message if message.startswith("unrecognized") else f"no solver of this run {message}"
        assert capsys.readouterr().err.splitlines() == [f"error: {line}"]
        assert not out.exists()

    @pytest.mark.parametrize("threshold", ["nan", -1])
    def test_bad_min_norm_threshold_exits_1(self, tmp_path, capsys, threshold):
        assert run(["solve", "arpgda", "--gen", "gaussian:d=4,n=4,seed=0", "--r", 1,
                    "--min-norm-threshold", threshold, "--out", tmp_path / "out"]) == 1
        assert ("error: min_norm_threshold must be non-negative, got"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_overflowing_dual_step_exits_3(self, tmp_path, capsys):
        csv_path = tmp_path / "big.csv"
        assert run(["gen", "blocks:d=6,sizes=20x2,scales=1e8|1e8,seed=0",
                    "--out", csv_path]) == 0
        assert run(["solve", "arpgda", "--data", csv_path, "--r", 2,
                    "--out", tmp_path / "runs"]) == 3
        assert ("numerical failure: simplex projection lost precision"
                in capsys.readouterr().err)

    def test_overflowing_smoothness_constants_exit_3(self, tmp_path, capsys):
        csv_path = tmp_path / "huge.csv"
        assert run(["gen", "blocks:d=6,sizes=20x2,scales=1e80|1e80,seed=0",
                    "--out", csv_path]) == 0
        assert run(["solve", "arpgda", "--data", csv_path, "--r", 2,
                    "--out", tmp_path / "runs"]) == 3
        assert ("numerical failure: the smoothness constants overflow: the data's "
                "largest sample norm is" in capsys.readouterr().err)

    def test_input_csv_is_not_mutated(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        assert run(["gen", "gaussian:d=5,n=6,seed=3", "--out", csv_path]) == 0
        before = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        assert run(["solve", "arpgda", "--data", csv_path, "--r", 2,
                    "--max-iters", 100, "--out", tmp_path / "runs"]) == 0
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == before

    @pytest.mark.parametrize("flags, field, expected", [
        (["--normalize"], "normalized", True),
        (["--center"], "centered", True),
        (["--standardize"], "standardized", True),
        (["--min-norm-threshold", 2.5], "min_norm_threshold", 2.5),
        (["--group-col", "team"], "group_sizes", [2, 1]),
    ], ids=["normalize", "center", "standardize", "min_norm_threshold", "group_col"])
    def test_dataset_flags_reach_report(self, tmp_path, flags, field, expected):
        column = flags[1] if flags[0] == "--group-col" else "group"
        csv_path = tmp_path / "d.csv"
        csv_path.write_text(f"x,y,{column}\n3,4,a\n1,2,a\n0,5,b\n")
        assert run(["solve", "arpgda", "--data", csv_path, "--r", 1,
                    "--max-iters", 5, *flags, "--out", tmp_path / "a.json"]) == 0
        meta = json.loads((tmp_path / "a.json").read_text())["dataset_meta"]
        assert meta[field] == expected

    def test_config_file_and_flag_precedence(self, tmp_path):
        # arguments are read left to right, so the later value of a flag wins
        cfg = args_file(tmp_path / "base.args", "--eps=0.5", "--max-iters", "40")
        head = ["solve", "arpgda", "--gen", "gaussian:d=6,n=6,seed=0", "--r", 1,
                "--out", tmp_path]
        for flags, epsilon in (([cfg], 0.5), ([cfg, "--eps", 0.9], 0.9),
                               (["--eps", 0.9, cfg], 0.5)):
            assert run([*head, *flags]) == 0
            report = json.loads((tmp_path / "report_arpgda_r1_seed0.json").read_text())
            assert (report["params"]["epsilon"], report["params"]["max_iters"]) == (epsilon, 40)

    @pytest.mark.parametrize("lines, unknown", [
        (["--epsilon=0.5", "--maxiters=40"], "--epsilon=0.5 --maxiters=40"),
        (["--eps=0.5", "--check-inequalities"], "--check-inequalities"),
        (["--tol-orth", "1e-6"], "--tol-orth 1e-6"),
        (["--seeds=2"], "--seeds=2"),
    ], ids=["misspelt", "check_inequalities", "tol_orth", "compare_key"])
    def test_config_rejects_unknown_keys(self, tmp_path, capsys, monkeypatch, lines, unknown):
        def solve_must_not_run(*args, **kwargs):
            raise AssertionError("solved with an unknown flag")

        monkeypatch.setattr("fairpca.cli.arpgda_mod.solve_arpgda", solve_must_not_run)
        out = tmp_path / "out"
        assert run(["solve", "arpgda", "--gen", "gaussian:d=6,n=6,seed=0", "--r", 1,
                    args_file(tmp_path / "run.args", *lines), "--out", out]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: unrecognized arguments: {unknown}"]
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value, kind", [
        ("solve", "--max-iters", "10.7", "int"),
        ("solve", "--max-iters", "1e5", "int"),
        ("solve", "--trace-stride", "2.5", "int"),
        ("compare", "--seeds", "1.9", "int"),
        ("compare", "--jobs", "1.5", "int"),
    ], ids=["max_iters_float", "max_iters_1e5", "trace_stride_float", "seeds_float",
            "jobs_float"])
    def test_config_values_go_through_flag_parsers(self, tmp_path, capsys,
                                                   command, flag, value, kind):
        argv = (["solve", "arpgda", "--r", 1] if command == "solve" else
                ["compare", "--r", 1, "--c-grid", 0.1, "--max-iters", 20])
        cfg = args_file(tmp_path / "run.args", f"{flag}={value}")
        assert run([*argv, "--gen", "gaussian:d=6,n=6,seed=0", cfg,
                    "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: argument {flag}: invalid {kind} value: '{value}'"]
        assert not (tmp_path / "out").exists()

    def test_rsg_config_takes_c(self, tmp_path):
        cfg = args_file(tmp_path / "rsg.args", "--c=0.1", "--ref-phi=1e9", "--max-iters=30",
                        "--trace-stride=10")
        assert run(["solve", "rsg", "--gen", "gaussian:d=6,n=6,seed=0",
                    "--r", 1, cfg, "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "report_rsg_r1_seed0.json").read_text())
        params = report["params"]
        assert (params["c"], params["reference_phi"], report["iterations"]) == (0.1, 1e9, 30)
        assert [row["k"] for row in report["trace"]] == [0, 10, 20, 30]

    @pytest.mark.parametrize("flag", [
        ["--check-inequalities"], ["--no-check-inequalities"], ["--tol-orth", "1e-6"],
        ["--record-dist"],
    ])
    def test_removed_solver_flags_are_usage_errors(self, tmp_path, flag):
        assert run(["solve", "arpgda", "--gen", "gaussian:d=6,n=6,seed=0",
                    "--r", 1, "--max-iters", 20, *flag, "--out", tmp_path]) == 1

    def test_save_u_checkpoint(self, tmp_path):
        assert run(["solve", "arpgda", "--gen", "gaussian:d=6,n=6,seed=0",
                    "--r", 2, "--max-iters", 200, "--out", tmp_path,
                    "--save-u", tmp_path / "bases"]) == 0
        U = np.loadtxt(tmp_path / "bases" / "u_arpgda_r2_seed0.csv",
                       delimiter=",", ndmin=2)
        assert U.shape == (6, 2)
        np.testing.assert_allclose(U.T @ U, np.eye(2), atol=1e-8)


class TestMetrics:
    def setup_checkpoint(self, tmp_path):
        run(["solve", "arpgda", "--gen", "gaussian:d=6,n=6,seed=2",
             "--r", 2, "--max-iters", 300, "--out", tmp_path,
             "--save-u", tmp_path])
        return tmp_path / "u_arpgda_r2_seed0.csv"

    def test_metrics_to_stdout(self, tmp_path, capsys):
        ckpt = self.setup_checkpoint(tmp_path)
        capsys.readouterr()
        assert run(["metrics", "--gen", "gaussian:d=6,n=6,seed=2",
                    "--checkpoint", ckpt]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) >= {"phi", "group_objectives", "orth_error",
                                "dist_to_subgradient"}
        assert payload["phi"] == pytest.approx(min(payload["group_objectives"]))

    def test_metrics_to_file(self, tmp_path):
        ckpt = self.setup_checkpoint(tmp_path)
        out = tmp_path / "metrics.json"
        assert run(["metrics", "--gen", "gaussian:d=6,n=6,seed=2",
                    "--checkpoint", ckpt, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["orth_error"] <= 1e-8

    def test_metrics_rejects_infeasible_checkpoint(self, tmp_path):
        bad = tmp_path / "bad.csv"
        np.savetxt(bad, 2.0 * np.eye(6)[:, :2], delimiter=",")
        assert run(["metrics", "--gen", "gaussian:d=6,n=6,seed=2",
                    "--checkpoint", bad]) == 1

    @pytest.mark.parametrize("scale, code", [(1.0 + 2e-9, 0), (1.0 + 1.1e-8, 1)],
                             ids=["residual_5.7e-9", "residual_3.1e-8"])
    def test_checkpoint_is_held_to_tol_orth(self, tmp_path, capsys, scale, code):
        # U^T U - I = (scale^2 - 1) I_2, so the residual is about 2 sqrt(2) (scale - 1)
        ckpt = tmp_path / "u.csv"
        np.savetxt(ckpt, scale * np.eye(6)[:, :2], delimiter=",", fmt="%.17e")
        argv = ["metrics", "--gen", "gaussian:d=6,n=6,seed=2", "--checkpoint", ckpt]
        assert run(argv) == code
        if code:
            assert "not orthonormal within 1e-08" in capsys.readouterr().err
        # the tolerance is not an option
        assert run([*argv, "--tol-orth", 1e-6]) == 1
        assert "unrecognized arguments: --tol-orth" in capsys.readouterr().err

    def test_metrics_rejects_negative_rel_threshold(self, tmp_path, capsys):
        ckpt = self.setup_checkpoint(tmp_path)
        capsys.readouterr()
        assert run(["metrics", "--gen", "gaussian:d=6,n=6,seed=2",
                    "--checkpoint", ckpt, "--rel-threshold", -0.5]) == 1
        assert "rel_threshold must be non-negative" in capsys.readouterr().err

    def test_checkpoint_rows_must_match_d(self, tmp_path, capsys):
        ckpt = tmp_path / "u.csv"
        np.savetxt(ckpt, np.eye(4, 2), delimiter=",")
        assert run(["metrics", "--gen", "gaussian:d=3,n=3,seed=0", "--checkpoint", ckpt]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "data error: checkpoint has 4 rows but the dataset has d=3"]

    def test_metrics_missing_checkpoint(self, tmp_path):
        assert run(["metrics", "--gen", "gaussian:d=6,n=6,seed=2",
                    "--checkpoint", tmp_path / "nope.csv"]) == 2


class TestCompare:
    def run_compare(self, tmp_path, name, jobs=1):
        out = tmp_path / name
        code = run(["compare", "--gen", "gaussian:d=8,n=8,seed=5",
                    "--r", "1,2", "--seeds", 2, "--c-grid", "0.1,1.0",
                    "--max-iters", 400, "--jobs", jobs,
                    "--out", out])
        assert code == 0
        return out

    def test_outputs_and_reproducibility(self, tmp_path, capsys):
        out1 = self.run_compare(tmp_path, "cmp1")
        out2 = self.run_compare(tmp_path, "cmp2", jobs=2)
        capsys.readouterr()

        rows1 = read_csv_rows(out1 / "compare.csv")
        rows2 = read_csv_rows(out2 / "compare.csv")
        assert rows1[0] == ["algorithm", "r", "seed", "phi", "phi_ratio",
                            "time_ms", "iterations"]
        # identical up to the wall-clock column
        strip = lambda rows: [r[:5] + r[6:] for r in rows]
        assert strip(rows1) == strip(rows2)
        assert len(rows1) == 1 + 2 * 4  # header + two algorithms x four cells

        summary = json.loads((out1 / "compare_summary.json").read_text())
        assert summary["r_values"] == [1, 2]
        assert summary["n_seeds"] == 2
        assert summary["algorithms"] == ["arpgda", "rsg"]
        assert set(summary["aggregates"]) == {
            "arpgda_r1", "arpgda_r2", "rsg_r1", "rsg_r2"}
        assert all("arpgda_dominates" in cell for cell in summary["cells"])
        assert {path.name for path in out1.iterdir()} == {"compare.csv", "compare_summary.json"}

    @pytest.mark.parametrize("alg", ["arpgda", "rsg"])
    def test_single_algorithm(self, tmp_path, alg):
        out = tmp_path / "solo"
        # --max-iters caps only the RSG sweep, so an ARPGDA-only run rejects it
        cap = ["--max-iters", 200] if alg == "rsg" else []
        assert run(["compare", "--gen", "gaussian:d=6,n=6,seed=1",
                    "--r", "1", "--seeds", 1, "--algs", alg, *cap, "--out", out]) == 0
        rows = read_csv_rows(out / "compare.csv")
        assert {row[0] for row in rows[1:]} == {alg}
        summary = json.loads((out / "compare_summary.json").read_text())
        (cell,) = summary["cells"]
        assert set(cell) == {"r", "seed", alg}
        if alg == "rsg":
            # no reference: every run of the sweep takes the full cap
            assert cell["rsg"]["iterations"] == 200
            assert cell["rsg"]["c"] in DEFAULT_C_GRID
            assert summary["c_grid"] == list(DEFAULT_C_GRID)
            assert summary["rsg_max_iters"] == 200
            assert summary["arpgda_params"] is None
        else:
            assert summary["c_grid"] is None
            assert summary["rsg_max_iters"] is None
            params = asdict(recommended_params(gen_synthetic_gaussian(6, 6, 1), 1))
            expected = {k: v for k, v in params.items() if k != "seed"}
            assert summary["arpgda_params"] == {"1": expected}
            assert expected["max_iters"] == 100_000

    def test_max_iters_caps_only_the_rsg_sweep(self, tmp_path):
        out = tmp_path / "cell"
        assert run(["compare", "--gen", "gaussian:d=8,n=8,seed=5", "--r", 2, "--seeds", 1,
                    "--c-grid", 0.1, "--max-iters", 50, "--out", out]) == 0
        summary = json.loads((out / "compare_summary.json").read_text())
        (cell,) = summary["cells"]
        data = gen_synthetic_gaussian(8, 8, 5)
        expected = compare_cell(data, 2, 0, arpgda_params=recommended_params(data, 2),
                                c_grid=(0.1,), rsg_max_iters=50)
        for alg in ("arpgda", "rsg"):
            result = getattr(expected, alg)
            assert (cell[alg]["phi"], cell[alg]["iterations"], cell[alg]["converged"]) == (
                result.phi, result.iterations, result.converged)
        # ARPGDA runs to E <= epsilon under its own cap; the sweep stops at 50
        assert cell["arpgda"]["converged"] and cell["arpgda"]["iterations"] > 50
        assert cell["rsg"]["iterations"] == 50
        assert cell["arpgda_dominates"] == expected.arpgda_dominates
        assert summary["rsg_max_iters"] == 50
        assert summary["arpgda_params"]["2"]["max_iters"] == 100_000

    @pytest.mark.parametrize("seeds, workers", [(1, []), (2, [2]), (3, [3])])
    def test_jobs_never_exceed_the_cells(self, tmp_path, monkeypatch, seeds, workers):
        # under fork the pool starts all its workers at once; a fake pool
        # records its size and runs the cells in-process, and one cell
        # runs with no pool at all
        sizes = []

        class Pool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("fairpca.cli.ProcessPoolExecutor", Pool)
        out = tmp_path / "out"
        assert run(["compare", "--gen", "gaussian:d=6,n=6,seed=1", "--r", "1",
                    "--seeds", seeds, "--algs", "arpgda", "--jobs", 64, "--out", out]) == 0
        assert sizes == workers
        summary = json.loads((out / "compare_summary.json").read_text())
        assert [cell["seed"] for cell in summary["cells"]] == list(range(seeds))

    @pytest.mark.parametrize("jobs, source", [(0, "flag"), (-2, "flag"), (0, "config")])
    def test_rejects_jobs_below_one(self, tmp_path, capsys, jobs, source):
        if source == "flag":
            extra = ["--jobs", jobs]
        else:
            extra = [args_file(tmp_path / "run.args", f"--jobs={jobs}")]
        assert run(["compare", "--gen", "gaussian:d=6,n=6,seed=1", "--r", "1",
                    "--seeds", 1, "--max-iters", 20, "--out", tmp_path / "out", *extra]) == 1
        assert f"error: --jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seeds", [0, -1])
    def test_rejects_seeds_below_one(self, tmp_path, capsys, seeds):
        assert run(["compare", "--gen", "gaussian:d=6,n=6,seed=1", "--r", "1",
                    "--seeds", seeds, "--out", tmp_path / "out"]) == 1
        assert f"error: --seeds must be at least 1, got {seeds}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_c_grid_exits_1_before_any_solve(self, tmp_path, capsys, monkeypatch):
        def solve_must_not_run(*args, **kwargs):
            raise AssertionError("solved before --c-grid was checked")

        monkeypatch.setattr("fairpca.cli.compare_cell", solve_must_not_run)
        assert run(["compare", "--gen", "gaussian:d=6,n=6,seed=1", "--r", "1",
                    "--seeds", 1, "--c-grid", "0.1,-1", "--out", tmp_path / "out"]) == 1
        assert "error: c must be positive and finite, got -1.0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rejects_unknown_algorithm(self, tmp_path):
        assert run(["compare", "--gen", "gaussian:d=6,n=6,seed=1",
                    "--r", "1", "--algs", "sgd", "--out", tmp_path]) == 1

    @pytest.mark.parametrize("flag, value", [
        ("--c-grid", ","), ("--algs", ","), ("--r", ""),
    ])
    def test_rejects_empty_list(self, tmp_path, capsys, flag, value):
        argv = {"--r": "1", "--algs": "arpgda,rsg", "--c-grid": "0.1"}
        argv[flag] = value
        assert run(["compare", "--gen", "gaussian:d=6,n=6,seed=1",
                    "--seeds", 1, "--max-iters", 20, "--out", tmp_path,
                    *[item for pair in argv.items() for item in pair]]) == 1
        assert f"error: {flag} must name at least one" in capsys.readouterr().err
        assert not (tmp_path / "compare.csv").exists()

    @pytest.mark.parametrize("flag, value, field, expected", [
        ("--r", "2, 1", "r_values", [2, 1]),
        ("--algs", "rsg,arpgda", "algorithms", ["rsg", "arpgda"]),
        ("--c-grid", "1.0,0.1", "c_grid", [1.0, 0.1]),
    ], ids=["r", "algs", "c_grid"])
    def test_config_takes_json_lists(self, tmp_path, flag, value, field, expected):
        # a list in an @FILE is its flag's comma list, one line for flag and value
        lines = {"--r": "1", "--algs": "arpgda,rsg", "--c-grid": "0.1", flag: value}
        cfg = args_file(tmp_path / "lists.args", *(f"{k}={v}" for k, v in lines.items()))
        assert run(["compare", "--gen", "gaussian:d=6,n=6,seed=1",
                    "--seeds", 1, "--max-iters", 20, "--out", tmp_path, cfg]) == 0
        summary = json.loads((tmp_path / "compare_summary.json").read_text())
        assert summary[field] == expected

    def test_config_rejects_unknown_keys(self, tmp_path, capsys, monkeypatch):
        def solve_must_not_run(*args, **kwargs):
            raise AssertionError("solved with an unknown flag")

        monkeypatch.setattr("fairpca.cli.compare_cell", solve_must_not_run)
        cfg = args_file(tmp_path / "run.args", "--r=1", "--algs=arpgda", "--ref-phi=3",
                        "--tol-orth=1e-6", "--trace-stride=5")
        assert run(["compare", "--gen", "gaussian:d=6,n=6,seed=1",
                    "--seeds", 1, "--out", tmp_path / "out", cfg]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: unrecognized arguments: --ref-phi=3 --tol-orth=1e-6 --trace-stride=5"]
        assert not (tmp_path / "out").exists()

    def test_repeated_values_run_once(self, tmp_path):
        assert run(["compare", "--gen", "gaussian:d=6,n=6,seed=1",
                    "--r", "2,1,2", "--algs", "arpgda,rsg,arpgda",
                    "--c-grid", "1.0,0.1,1", "--seeds", 1, "--max-iters", 20,
                    "--out", tmp_path]) == 0
        summary = json.loads((tmp_path / "compare_summary.json").read_text())
        assert summary["r_values"] == [2, 1]
        assert summary["algorithms"] == ["arpgda", "rsg"]
        assert summary["c_grid"] == [1.0, 0.1]
        assert len(summary["cells"]) == 2
        assert len(read_csv_rows(tmp_path / "compare.csv")) == 1 + 2 * 2
        assert all(agg["n_cells"] == 1 for agg in summary["aggregates"].values())


class TestTopLevel:
    def test_no_command_prints_usage(self, capsys):
        assert run([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert run(["gen", "gaussian:d=3,n=3", "--frobnicate"]) == 1

    @pytest.mark.parametrize("argv, code", [
        (["metrics", "--gen", "gaussian:d=6,n=6,seed=2", "--checkpoint", "u.csv",
          "--out", "new/m.json"], 0),
        (["gen", "gaussian:d=3,n=3", "--out", "adir"], 1),
        (["solve", "arpgda", "--gen", "gaussian:d=3,n=3", "--r", 1, "--max-iters", 5,
          "--out", "taken"], 1),
    ], ids=["metrics_into_new_dir", "gen_onto_dir", "solve_under_file"])
    def test_out_dirs_are_made_and_unwritable_out_exits_1(self, tmp_path, monkeypatch,
                                                          capsys, argv, code):
        monkeypatch.chdir(tmp_path)
        np.savetxt("u.csv", np.eye(6)[:, :2], delimiter=",")
        (tmp_path / "adir").mkdir()
        (tmp_path / "taken").write_text("")
        assert run(argv) == code
        err = capsys.readouterr().err
        if code == 0:
            assert (tmp_path / argv[-1]).is_file()
        else:
            assert f"error: cannot write {argv[-1]}" in err
        assert "Traceback" not in err
        assert not list(tmp_path.rglob("*.tmp*"))

    @pytest.mark.parametrize("argv", [
        ["solve", "arpgda", "--r", 1, "--out", "taken"],
        ["solve", "arpgda", "--r", 1, "--out", "taken/run.json"],
        ["solve", "arpgda", "--r", 1, "--out", "adir.json"],
        ["solve", "arpgda", "--r", 1, "--save-u", "taken"],
        ["compare", "--r", 1, "--seeds", 1, "--algs", "arpgda", "--out", "taken"],
    ], ids=["solve_dir", "solve_json_parent", "solve_json_is_dir", "save_u", "compare"])
    def test_unwritable_out_fails_before_any_solve(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").write_text("")
        (tmp_path / "adir.json").mkdir()

        def solve_must_not_run(*args, **kwargs):
            raise AssertionError("a solve ran before --out was checked")

        monkeypatch.setattr("fairpca.cli.arpgda_mod.solve_arpgda", solve_must_not_run)
        monkeypatch.setattr("fairpca.cli.compare_cell", solve_must_not_run)
        assert run([*argv, "--gen", "gaussian:d=4,n=4,seed=1"]) == 1
        err = capsys.readouterr().err
        assert "error: cannot write" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, text, expected", [
        ("--r", "1:3", [1, 2, 3]),
        ("--seed", "0:4:2", [0, 2, 4]),
        ("--r", "3:1", None),
        ("--seed", "1:5:0", None),
        ("--r", "1:2:3:4", None),
        ("--r", "1, ,2", [1, 2]),
    ], ids=["compare_r_range", "solve_seed_step", "descending", "zero_step", "four_parts",
            "blank_item"])
    def test_int_list_ranges(self, tmp_path, capsys, flag, text, expected):
        # --r of compare and --seed of solve both take lo:hi and lo:hi:step, inclusive
        head = (["compare", "--algs", "rsg", "--seeds", 1, "--c-grid", 0.1] if flag == "--r"
                else ["solve", "rsg", "--r", 1, "--c", 0.1])
        out = tmp_path / "out"
        code = run([*head, flag, text, "--max-iters", 5, "--gen", "gaussian:d=4,n=4,seed=0",
                    "--out", out])
        if expected is None:
            assert code == 1
            assert f"error: cannot parse {flag} list {text!r}" in capsys.readouterr().err
            assert not out.exists()
        elif flag == "--r":
            assert code == 0
            summary = json.loads((out / "compare_summary.json").read_text())
            assert summary["r_values"] == [cell["r"] for cell in summary["cells"]] == expected
        else:
            assert code == 0
            assert sorted(path.name for path in out.glob("report_*.json")) == [
                f"report_rsg_r1_seed{seed}.json" for seed in expected]

    SOLVE = ["solve", "arpgda", "--r", 1, "--max-iters", 5]
    METRICS = ["metrics", "--gen", "gaussian:d=4,n=4,seed=1", "--checkpoint"]

    @pytest.mark.parametrize("argv, path, code", [
        ([*SOLVE, "--data", "adir"], "adir", 2),
        ([*SOLVE, "--data", "bytes.csv"], "bytes.csv", 2),
        ([*SOLVE, "--gen", "gaussian:d=4,n=4", "@adir"], "adir", 1),
        ([*SOLVE, "--gen", "gaussian:d=4,n=4", "@nope.args"],
         "No such file or directory: 'nope.args'", 1),
        ([*SOLVE, "--gen", "gaussian:d=4,n=4", "@loop.args"],
         "loop.args: the @FILE reads itself", 1),
        ([*SOLVE, "--gen", "gaussian:d=4,n=4", "@a.args"], "a.args: the @FILE reads itself", 1),
        ([*SOLVE, "--gen", "gaussian:d=4,n=4", "@bytes.args"],
         "bytes.args: cannot decode as text", 1),
        ([*METRICS, "adir"], "adir", 2),
        ([*METRICS, "letters.csv"], "letters.csv", 2),
        ([*METRICS, "wide.csv"], "wide.csv", 2),
        ([*METRICS, "empty.csv"], "empty.csv", 2),
        ([*METRICS, "nan.csv"], "nan.csv: non-finite values", 2),
        ([*SOLVE, "--data", "dup.csv"], "dup.csv", 2),
    ], ids=["data_is_dir", "data_not_text", "config_is_dir", "args_file_missing",
            "args_file_reads_itself", "args_files_read_each_other", "args_file_not_text",
            "checkpoint_is_dir", "checkpoint_not_numeric", "checkpoint_too_wide",
            "checkpoint_empty", "checkpoint_nan", "dup_header"])
    def test_unreadable_inputs_exit_with_their_code(self, tmp_path, monkeypatch, capsys,
                                                    argv, path, code):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        (tmp_path / "letters.csv").write_text("1,0\na,1\n0,0\n0,0\n")
        np.savetxt("wide.csv", np.eye(4, 5), delimiter=",")
        (tmp_path / "empty.csv").write_text("")
        (tmp_path / "nan.csv").write_text("1\nnan\n0\n0\n")
        (tmp_path / "bytes.csv").write_bytes(b"a,group\n\xff\xfe,g\n")
        (tmp_path / "dup.csv").write_text("a,a,group\n1,2,g\n")
        args_file(tmp_path / "loop.args", "@loop.args")
        args_file(tmp_path / "a.args", "--eps=0.5", "@b.args")
        args_file(tmp_path / "b.args", "@a.args")
        (tmp_path / "bytes.args").write_bytes(b"a\xff")
        assert run(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("data error:" if code == 2 else "error:")
        assert path in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("report_*.json"))

    @pytest.mark.parametrize("text, data, code", [
        ("L" * 140_000 + ",group\n1,a\n", "long.csv", 0),
        ("x,group\n1," + "L" * 140_000 + "\noops,b\n", "long.csv", 2),
        ("x,group\n1," + "L" * 140_000 + "\n", "/dev/stdin", 0),
    ], ids=["long_header", "long_label_then_bad_row", "long_label_through_stdin"])
    def test_fields_past_the_default_csv_limit(self, tmp_path, text, data, code):
        # 140 000 characters is past the csv module's default field limit; a
        # subprocess, so that /dev/stdin is a pipe
        (tmp_path / "long.csv").write_text(text)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run(
            [sys.executable, "-m", "fairpca.cli", *map(str, self.SOLVE), "--data", data,
             "--out", "run.json"],
            cwd=tmp_path, env=env, input=text, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code
        assert proc.stderr == ("" if code == 0 else
                               "data error: long.csv: non-numeric, missing or extra values "
                               "in rows 2\n")

    def test_args_file_strips_lines_and_skips_blank_ones(self, tmp_path):
        (tmp_path / "run.args").write_text("\n  --eps=0.5  \n\n   \n--max-iters\n 40\n")
        assert run(["solve", "arpgda", "--gen", "gaussian:d=4,n=4,seed=0", "--r", 1,
                    f"@{tmp_path / 'run.args'}", "--out", tmp_path / "run.json"]) == 0
        params = json.loads((tmp_path / "run.json").read_text())["params"]
        assert (params["epsilon"], params["max_iters"]) == (0.5, 40)

    def test_args_files_nest_and_may_hold_the_whole_command(self, tmp_path):
        inner = args_file(tmp_path / "inner.args", "--max-iters=7", "--trace-stride=3")
        outer = args_file(tmp_path / "outer.args", "solve", "arpgda",
                          "--gen", "gaussian:d=4,n=4,seed=0", "--r", 1, inner,
                          "--out", tmp_path / "run.json")
        assert run([outer]) == 0
        report = json.loads((tmp_path / "run.json").read_text())
        assert (report["iterations"], [row["k"] for row in report["trace"]]) == (7, [0, 3, 6, 7])

    def test_module_entry_point_reads_sys_argv(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}

        def cli(*argv):
            return subprocess.run([sys.executable, "-m", "fairpca.cli", *argv], cwd=tmp_path,
                                  env=env, capture_output=True, text=True, timeout=120)

        gen = cli("gen", "gaussian:d=4,n=5,seed=1")
        assert gen.returncode == 0, gen.stderr
        cfg = args_file(tmp_path / "run.args", "--eps=0.5", "--max-iters=7", "--trace-stride=3")
        solve = cli("solve", "arpgda", "--data", "gaussian.csv", "--r", "1", cfg,
                    "--out", "run.json")
        assert solve.returncode == 0, solve.stderr
        report = json.loads((tmp_path / "run.json").read_text())
        assert report["dataset_meta"]["num_samples"] == 5
        params = report["params"]
        assert (params["epsilon"], params["max_iters"], params["trace_stride"]) == (0.5, 7, 3)


    @pytest.mark.parametrize("content, line", [
        (b"@loop.args\n", "error: loop.args: the @FILE reads itself, directly or through "
                          "another file"),
        (b"a\xff", "error: loop.args: cannot decode as text: 'utf-8' codec can't decode "
                   "byte 0xff in position 1: invalid start byte"),
    ], ids=["reads_itself", "not_text"])
    def test_bad_args_file_exits_1_in_one_line(self, tmp_path, content, line):
        # an @FILE that names itself once ended in argparse's RecursionError
        (tmp_path / "loop.args").write_bytes(content)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-m", "fairpca.cli", "solve", "arpgda",
                               "@loop.args"], cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)
        assert (proc.returncode, proc.stderr.splitlines()) == (1, [line])


def violation_line(count, r, seed):
    return (f"warning: {count} per-iteration inequality violation(s) recorded "
            f"(r = {r}, seed = {seed})")


class TestStderr:
    """Each error and each warning reaches stderr as one whole line."""

    # on this instance seeds 0 and 1 each record one violation in 200 iterations
    VIOLATING = ["--gen", "blocks:d=4,sizes=30|30|30,seed=0", "--r", 2, "--mu", 0,
                 "--eps", 1e-9, "--max-iters", 200]

    @pytest.mark.filterwarnings("default:.*inequality violation:RuntimeWarning")
    def test_solve_warns_once_per_seed(self, tmp_path, capsys):
        assert run(["solve", "arpgda", *self.VIOLATING, "--seed", "0,1",
                    "--out", tmp_path]) == 0
        assert capsys.readouterr().err.splitlines() == [
            violation_line(1, 2, 0), violation_line(1, 2, 1)]

    @pytest.mark.filterwarnings("default:.*inequality violation:RuntimeWarning")
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_compare_warns_once_per_cell(self, tmp_path, capfd, monkeypatch, jobs):
        # with no slack every step fails both inequalities, so every cell warns
        monkeypatch.setattr("fairpca.arpgda.INEQUALITY_SLACK", -math.inf)
        assert run(["compare", "--gen", "gaussian:d=6,n=6,seed=1", "--r", "1,2", "--seeds", 2,
                    "--algs", "arpgda", "--jobs", jobs, "--out", tmp_path]) == 0
        cells = json.loads((tmp_path / "compare_summary.json").read_text())["cells"]
        expected = [violation_line(cell["arpgda"]["violations"], cell["r"], cell["seed"])
                    for cell in cells]
        assert len(expected) == 4 and all(cell["arpgda"]["violations"] for cell in cells)
        # workers finish in any order
        assert sorted(capfd.readouterr().err.splitlines()) == sorted(expected)

    def test_warning_line_is_one_write(self, monkeypatch):
        # compare's workers share stderr, so a line written in two parts can
        # take another worker's line between them
        calls = []

        class Stderr:
            def write(self, text):
                calls.append(text)

            def flush(self):
                calls.append("flush")

        monkeypatch.setattr(sys, "stderr", Stderr())
        _show_warning(RuntimeWarning("x"), RuntimeWarning, "file.py", 1)
        assert calls == ["warning: x\n", "flush"]

    @pytest.mark.filterwarnings("default:groups emptied:UserWarning")
    def test_emptied_group_warning_is_one_line(self, tmp_path, capsys):
        assert run(["solve", "arpgda", "--gen", "blocks:d=3,sizes=5|5,scales=1|0", "--r", 1,
                    "--max-iters", 5, "--out", tmp_path]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: groups emptied by the norm threshold and removed: ['g1']"]

    def test_warning_filters_stay_the_callers(self, tmp_path, capsys, monkeypatch):
        def overflow(*args, **kwargs):
            return np.float64(1e308) * 10.0

        monkeypatch.setattr("fairpca.cli.arpgda_mod.solve_arpgda", overflow)
        before = (list(warnings.filters), warnings.showwarning)
        # the suite's filterwarnings = error still turns numpy's warning into
        # an error, which exits 1 with one line
        assert run(["solve", "arpgda", "--gen", "gaussian:d=4,n=4,seed=0", "--r", 1,
                    "--out", tmp_path]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: overflow encountered")
        assert (list(warnings.filters), warnings.showwarning) == before

    def test_warning_made_an_error_exits_1(self, tmp_path, capsys):
        # the suite's filterwarnings = error makes the violation warning an error
        assert run(["solve", "arpgda", *self.VIOLATING, "--out", tmp_path]) == 1
        assert capsys.readouterr().err.splitlines() == [
            violation_line(1, 2, 0).replace("warning:", "error:")]
        assert not list(tmp_path.glob("report_*.json"))

    def test_python_w_error_exits_1_without_a_traceback(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        argv = [sys.executable, "-W", "error", "-m", "fairpca.cli", "solve", "arpgda",
                *map(str, self.VIOLATING), "--out", "runs"]
        proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            violation_line(1, 2, 0).replace("warning:", "error:")]

    @pytest.mark.parametrize("solver", [["arpgda"], ["rsg", "--c", "0.1"]], ids=["arpgda", "rsg"])
    def test_python_w_error_overflowing_covariance_stack_exits_3(self, tmp_path, solver):
        # the norms, the stack and its finite test run without a warning, so
        # -W error leaves the NumericalError to exit 3
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        argv = [sys.executable, "-W", "error", "-m", "fairpca.cli", "solve", *solver,
                "--gen", "blocks:d=6,sizes=20x2,scales=1e160|1e160,seed=0", "--r", "2",
                "--out", "runs"]
        proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            "numerical failure: the covariance stack overflows: the data's largest sample "
            "norm is 9.569e+159"]

    @pytest.mark.parametrize("solver, X, sizes, line", [
        (["arpgda"], gen_synthetic_gaussian(4, 4, 0).X * 1e160, (1,) * 4,
         "cannot pick epsilon: the data's largest sample norm, 2.491e+160, overflows when squared"),
        (["rsg", "--c", "0.1"], gen_synthetic_gaussian(4, 4, 0).X * 1e160, (1,) * 4,
         "non-finite group objectives at iteration 0"),
        (["arpgda"], np.full((6, 12), math.sqrt(1.5e308 / 12)), (12,),
         "the covariance stack overflows: the data's largest sample norm is 8.660e+153"),
        (["rsg", "--c", "0.1"], np.full((6, 12), math.sqrt(1.5e308 / 12)), (12,),
         "the covariance stack overflows: the data's largest sample norm is 8.660e+153"),
    ], ids=["arpgda-singletons", "rsg-singletons", "arpgda-covariance", "rsg-covariance"])
    def test_python_w_error_huge_finite_data_exits_3(self, tmp_path, solver, X, sizes, line):
        # singleton norms past 1.3e154, and a finite covariance stack past
        # the bound of its per-iterate products, raise before any warning
        (tmp_path / "big.csv").write_text(dataset_csv_text(GroupedDataset(X, sizes)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        argv = [sys.executable, "-W", "error", "-m", "fairpca.cli", "solve", *solver,
                "--data", "big.csv", "--r", "1", "--out", "runs"]
        proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [f"numerical failure: {line}"]

    GEN =["--gen", "gaussian:d=4,n=4,seed=0", "--max-iters", 5]

    @pytest.mark.parametrize("argv, line", [
        (["gen", "gaussian:d=x,n=3"],
         "error: generator spec 'gaussian:d=x,n=3': d must be an integer, got 'x'"),
        (["compare", "--algs", "rsg", "--r", "3:1", *GEN],
         "error: cannot parse --r list '3:1'"),
        (["compare", "--algs", "rsg", "--r", 1, "--c-grid", ",", *GEN],
         "error: --c-grid must name at least one stepsize scale"),
        (["solve", "rsg", "--c", 0.1, "--r", 1, "--seed", ", ,", *GEN],
         "error: --seed must name at least one seed"),
    ], ids=["gen_spec", "unparsable_list", "empty_list", "blank_seeds"])
    def test_error_is_one_whole_line(self, tmp_path, capsys, argv, line):
        out = tmp_path / ("x.csv" if argv[0] == "gen" else "out")
        assert run([*argv, "--out", out]) == 1
        assert capsys.readouterr().err.splitlines() == [line]
        assert not out.exists()

    @pytest.mark.parametrize("argv, line", [
        (["solve", "arpgda", "--gen", "blocks:d=3,sizes=5|5,scales=0|0", "--r", 1],
         "data error: all groups have zero variance; the objective is constant"),
        (["metrics", "--gen", "blocks:d=3,sizes=5|5,scales=1|0", "--min-norm-threshold", 0,
          "--checkpoint", "e1.csv"],
         "data error: active set needs min_i f_i > 0, got 0.000e+00"),
    ], ids=["degenerate_problem", "diagnostic_unavailable"])
    def test_data_error_subclasses_exit_2(self, tmp_path, monkeypatch, capsys, argv, line):
        assert issubclass(DegenerateProblemError, DataError)
        assert issubclass(DiagnosticUnavailableError, DataError)
        monkeypatch.chdir(tmp_path)
        np.savetxt("e1.csv", np.eye(3)[:, :1], delimiter=",")
        assert run(argv) == 2
        assert capsys.readouterr().err.splitlines() == [line]
        assert not list(tmp_path.glob("report_*.json"))
