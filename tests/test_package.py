"""The package's public names and the README's examples."""

import re
import types
from pathlib import Path

import fairpca

README = Path(__file__).resolve().parent.parent / "README.md"


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
