"""The package's public names and the checks of the counts and ranks they
take, the README's examples and the independence of the test oracles."""

import argparse
import ast
import importlib
import re
import shlex
import types
from pathlib import Path

import numpy as np
import pytest

import fairpca
from fairpca import (
    ARPGDAParams,
    DimensionError,
    GroupedDataset,
    RSGParams,
    evaluate,
    gen_synthetic_blocks,
    gen_synthetic_gaussian,
    random_stiefel,
    recommended_params,
    smoothness_constants,
    solve_arpgda,
    solve_rsg,
    uniform_weights,
)
from fairpca import cli
from fairpca.baselines import DEFAULT_C_GRID
from fairpca.cli import build_parser

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"


def test_all_lists_every_public_name():
    public = {name for name, value in vars(fairpca).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(fairpca.__all__) == public
    assert len(fairpca.__all__) == len(public)


def test_readme_names_every_public_name():
    text = README.read_text()
    assert [name for name in fairpca.__all__ if not re.search(rf"\b{name}\b", text)] == []


def test_readme_cites_only_names_its_modules_have():
    # data. is left out: README names a dataset data, as in data.labels
    cited = set(re.findall(
        r"`(stiefel|simplex|problem|arpgda|baselines|exceptions|cli)\.([A-Za-z_]\w*)",
        README.read_text()))
    assert cited
    missing = [f"{module}.{name}" for module, name in sorted(cited)
               if not hasattr(importlib.import_module(f"fairpca.{module}"), name)]
    assert missing == []


def test_benchmark_copies_match_the_cli():
    # perfbench/cells.py keeps its own copies of the CLI's RSG step-size grid
    # and norm-threshold share; they are read without importing it
    tree = ast.parse((TESTS.parent / "perfbench" / "cells.py").read_text())
    copies = {target.id: ast.literal_eval(node.value)
              for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets
              if isinstance(target, ast.Name) and target.id in ("C_GRID", "NORM_THRESHOLD_SHARE")}
    assert copies == {"C_GRID": DEFAULT_C_GRID,
                      "NORM_THRESHOLD_SHARE": cli._NORM_THRESHOLD_SHARE}


def test_every_flag_has_help():
    def actions(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from actions(sub)
            else:
                yield parser.prog, action

    missing = [(prog, action.dest) for prog, action in actions(build_parser()) if not action.help]
    assert missing == []


def test_parser_overrides_no_private_argparse_method():
    # a private method can change between Python versions, as argparse's
    # @FILE reader did in 3.12
    overridden = [name for name in vars(cli._Parser)
                  if re.fullmatch(r"_[^_]\w*", name) and hasattr(argparse.ArgumentParser, name)]
    assert overridden == []


# Every public function or constructor that takes a count, as (label, call
# with the count, the argument's name in the error, the smallest valid
# value).  The solvers' r and the params classes' counts are tested in
# test_arpgda.py and test_baselines.py.
_BLOCKS = gen_synthetic_blocks(3, (4, 4), 0)  # covariance form
_SINGLETONS = gen_synthetic_gaussian(3, 2, 0)  # sample form
_COUNTS = [
    ("GroupedDataset-group_sizes", lambda v: GroupedDataset(np.ones((2, 3)), (v, 1)),
     "group_sizes", 1),
    ("gen_synthetic_gaussian-d", lambda v: gen_synthetic_gaussian(v, 2, 0), "d", 1),
    ("gen_synthetic_gaussian-n", lambda v: gen_synthetic_gaussian(3, v, 0), "n", 1),
    ("gen_synthetic_gaussian-seed", lambda v: gen_synthetic_gaussian(3, 2, v), "seed", 0),
    ("gen_synthetic_blocks-d", lambda v: gen_synthetic_blocks(v, (2, 2), 0), "d", 1),
    ("gen_synthetic_blocks-group_sizes", lambda v: gen_synthetic_blocks(3, (v, 2), 0),
     "group_sizes", 1),
    ("gen_synthetic_blocks-seed", lambda v: gen_synthetic_blocks(3, (2, 2), v), "seed", 0),
    ("random_stiefel-d", lambda v: random_stiefel(v, 1, 0), "d", 1),
    ("random_stiefel-r", lambda v: random_stiefel(4, v, 0), "r", 1),
    ("random_stiefel-seed", lambda v: random_stiefel(4, 2, v), "seed", 0),
    ("uniform_weights-n", uniform_weights, "n", 1),
    ("smoothness_constants-r", lambda v: smoothness_constants(_BLOCKS, v), "r", 1),
    ("group_gradient-covariance", lambda v: evaluate(_BLOCKS, np.eye(3, 2)).group_gradient(v),
     "group index", 0),
    ("group_gradient-sample", lambda v: evaluate(_SINGLETONS, np.eye(3, 2)).group_gradient(v),
     "group index", 0),
]


@pytest.mark.parametrize("bad", [True, 2.5, "2", "below"], ids=repr)
@pytest.mark.parametrize("call, name, minimum",
                         [case[1:] for case in _COUNTS], ids=[case[0] for case in _COUNTS])
def test_bad_counts_are_rejected_by_name(call, name, minimum, bad):
    value = minimum - 1 if bad == "below" else bad
    with pytest.raises(DimensionError, match=rf"^{name}\b"):
        call(value)


# Every public function that takes a rank r, as (label, call with r, d).  The
# solvers reach the check through smoothness_constants and random_stiefel;
# the CLI's --r is tested in test_cli.py.
_RANKS = [
    ("random_stiefel", lambda r: random_stiefel(3, r, 0), 3),
    ("smoothness_constants-covariance", lambda r: smoothness_constants(_BLOCKS, r), 3),
    ("smoothness_constants-sample", lambda r: smoothness_constants(_SINGLETONS, r), 3),
    ("recommended_params", lambda r: recommended_params(_SINGLETONS, r), 3),
    ("solve_arpgda", lambda r: solve_arpgda(_BLOCKS, r, ARPGDAParams(epsilon=0.1, mu=1.0)), 3),
    ("solve_rsg", lambda r: solve_rsg(_BLOCKS, r, RSGParams(c=1.0)), 3),
]


@pytest.mark.parametrize("call, d", [case[1:] for case in _RANKS],
                         ids=[case[0] for case in _RANKS])
def test_rank_above_d_is_rejected_by_name(call, d):
    with pytest.raises(DimensionError, match=rf"^r must lie in \[1, {d}\], got {d + 1}$"):
        call(d + 1)


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_command_lines_parse(tmp_path, monkeypatch):
    # parse only: an @FILE a line names is made empty, so the line's own
    # flags are what is checked
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"^```\n(.*?)^```", README.read_text(), re.S | re.M)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("fairpca ")]
    assert lines
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        for arg in argv:
            if arg.startswith("@"):
                Path(arg[1:]).touch()
        build_parser().parse_args(argv)


def test_oracles_do_not_import_the_package():
    tree = ast.parse((TESTS / "oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert imported
    assert not [name for name in imported if name.split(".")[0] == "fairpca"]
