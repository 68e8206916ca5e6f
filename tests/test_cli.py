"""End-to-end command line behavior: exit codes, files, reproducibility."""

import csv
import hashlib
import json

import jsonschema
import numpy as np
import pytest

from fairpca import REPORT_SCHEMA
from fairpca.cli import main


def run(argv):
    return main([str(a) for a in argv])


def read_csv_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestGen:
    def test_gaussian_writes_csv_and_meta(self, tmp_path, capsys):
        out = tmp_path / "toy.csv"
        assert run(["gen", "gaussian", "--d", 4, "--n", 6, "--seed", 2,
                    "--out", out]) == 0
        assert out.exists()
        meta = json.loads((tmp_path / "toy.meta.json").read_text())
        assert meta["d"] == 4
        assert meta["num_samples"] == 6
        assert meta["generator"] == "gaussian"
        assert meta["seed"] == 2
        assert "wrote 6 samples" in capsys.readouterr().out

    def test_blocks_with_scales(self, tmp_path):
        out = tmp_path / "blk.csv"
        assert run(["gen", "blocks", "--d", 5, "--sizes", "4x3",
                    "--scales", "1,1,0", "--seed", 1, "--out", out]) == 0
        meta = json.loads((tmp_path / "blk.meta.json").read_text())
        assert meta["group_sizes"] == [4, 4, 4]

    def test_missing_required_flags(self, tmp_path):
        assert run(["gen", "gaussian", "--d", 4]) == 1
        assert run(["gen", "blocks", "--d", 4]) == 1

    def test_bad_sizes_spec(self, tmp_path):
        assert run(["gen", "blocks", "--d", 4, "--sizes", "4xx3",
                    "--out", tmp_path / "x.csv"]) == 1

    def test_gen_is_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["gen", "gaussian", "--d", 3, "--n", 5, "--seed", 7, "--out", a])
        run(["gen", "gaussian", "--d", 3, "--n", 5, "--seed", 7, "--out", b])
        assert a.read_bytes() == b.read_bytes()


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

    def test_single_json_out_path(self, tmp_path):
        target = tmp_path / "one.json"
        assert run(["solve", "arpgda", "--gen", "gaussian:d=6,n=6,seed=0",
                    "--r", 1, "--max-iters", 200, "--trace-stride", 50,
                    "--out", target]) == 0
        assert target.exists()

    def test_multi_seed_needs_directory(self, tmp_path):
        assert run(["solve", "arpgda", "--gen", "gaussian:d=6,n=6,seed=0",
                    "--r", 1, "--seed", "0,1", "--max-iters", 50,
                    "--out", tmp_path / "one.json"]) == 1

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
        run(["gen", "gaussian", "--d", 3, "--n", 3, "--out", csv_path])
        assert run(["solve", "arpgda", "--data", csv_path,
                    "--gen", "gaussian:d=3,n=3,seed=0",
                    "--r", 1, "--out", tmp_path]) == 1

    def test_bad_gen_spec(self, tmp_path):
        assert run(["solve", "arpgda", "--gen", "swirl:d=3", "--r", 1,
                    "--out", tmp_path]) == 1
        assert run(["solve", "arpgda", "--gen", "gaussian:d=3", "--r", 1,
                    "--out", tmp_path]) == 1

    def test_r_out_of_range(self, tmp_path):
        assert run(["solve", "arpgda", "--gen", "gaussian:d=4,n=4,seed=0",
                    "--r", 9, "--out", tmp_path]) == 1

    def test_input_csv_is_not_mutated(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        run(["gen", "gaussian", "--d", 5, "--n", 6, "--seed", 3,
             "--out", csv_path])
        before = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        assert run(["solve", "arpgda", "--data", csv_path, "--r", 2,
                    "--max-iters", 100, "--out", tmp_path / "runs"]) == 0
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == before

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps": 0.5, "max_iters": 40}))
        assert run(["solve", "arpgda", "--gen", "gaussian:d=6,n=6,seed=0",
                    "--r", 1, "--config", cfg, "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "report_arpgda_r1_seed0.json").read_text())
        assert report["params"]["epsilon"] == 0.5
        assert report["params"]["max_iters"] == 40
        assert run(["solve", "arpgda", "--gen", "gaussian:d=6,n=6,seed=0",
                    "--r", 1, "--config", cfg, "--eps", 0.9,
                    "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "report_arpgda_r1_seed0.json").read_text())
        assert report["params"]["epsilon"] == 0.9

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
        assert set(payload) >= {"phi", "group_objectives", "orth_error"}
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

    def test_metrics_missing_checkpoint(self, tmp_path):
        assert run(["metrics", "--gen", "gaussian:d=6,n=6,seed=2",
                    "--checkpoint", tmp_path / "nope.csv"]) == 2


class TestCompare:
    def run_compare(self, tmp_path, name, jobs=1):
        out = tmp_path / name
        code = run(["compare", "--gen", "gaussian:d=8,n=8,seed=5",
                    "--r", "1,2", "--seeds", 2, "--c-grid", "0.1,1.0",
                    "--max-iters", 400, "--trace-stride", 20, "--jobs", jobs,
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
        for cell in summary["cells"]:
            assert (out1 / "cells" /
                    f"cell_r{cell['r']}_seed{cell['seed']}.json").exists()
            assert "arpgda_dominates" in cell

    @pytest.mark.parametrize("alg", ["arpgda", "rsg"])
    def test_single_algorithm(self, tmp_path, alg):
        out = tmp_path / "solo"
        assert run(["compare", "--gen", "gaussian:d=6,n=6,seed=1",
                    "--r", "1", "--seeds", 1, "--algs", alg,
                    "--c-grid", "0.1,1.0", "--max-iters", 200,
                    "--out", out]) == 0
        rows = read_csv_rows(out / "compare.csv")
        assert {row[0] for row in rows[1:]} == {alg}
        cell = json.loads((out / "cells" / "cell_r1_seed0.json").read_text())
        assert set(cell) == {"r", "seed", alg}
        if alg == "rsg":
            # no reference: every run of the sweep takes the full cap
            assert cell["rsg"]["iterations"] == 200
            assert cell["rsg"]["c"] in (0.1, 1.0)

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

    @pytest.mark.parametrize("key, value, field, expected", [
        ("r", [2, 1], "r_values", [2, 1]),
        ("algs", ["rsg", "arpgda"], "algorithms", ["rsg", "arpgda"]),
        ("c_grid", [1.0, 0.1], "c_grid", [1.0, 0.1]),
    ], ids=["r", "algs", "c_grid"])
    def test_config_takes_json_lists(self, tmp_path, key, value, field, expected):
        config = {"r": "1", "algs": "arpgda,rsg", "c_grid": "0.1", key: value}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert run(["compare", "--gen", "gaussian:d=6,n=6,seed=1",
                    "--seeds", 1, "--max-iters", 20, "--out", tmp_path,
                    "--config", tmp_path / "cfg.json"]) == 0
        summary = json.loads((tmp_path / "compare_summary.json").read_text())
        assert summary[field] == expected

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
        assert run(["gen", "gaussian", "--d", 3, "--n", 3,
                    "--frobnicate"]) == 1
