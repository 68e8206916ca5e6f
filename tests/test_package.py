"""The package's public names."""

import types

import fairpca


def test_all_lists_every_public_name():
    public = {name for name, value in vars(fairpca).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(fairpca.__all__) == public
    assert len(fairpca.__all__) == len(public)
