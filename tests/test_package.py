import importlib

import pytest

import swarmlab


@pytest.mark.parametrize("module", ["potentials", "rings", "spectra", "regions", "sim"])
def test_every_public_name_is_exported(module):
    # a name in a module's __all__ that swarmlab lacks is either a missing
    # export or a stale entry left behind by a deletion
    names = importlib.import_module(f"swarmlab.{module}").__all__
    assert [name for name in names if not hasattr(swarmlab, name)] == []
