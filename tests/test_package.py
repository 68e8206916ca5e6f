"""The package's public names, the README's examples and the independence
of the test oracles."""

import ast
import re
import types
from pathlib import Path

import fairpca

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"


def test_all_lists_every_public_name():
    public = {name for name, value in vars(fairpca).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(fairpca.__all__) == public
    assert len(fairpca.__all__) == len(public)


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


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
