"""The package's public names: every entry of ``__all__`` resolves, and
removed names stay removed."""

import pytest

import si_subnyq
from si_subnyq import si_core


@pytest.mark.parametrize("name", si_subnyq.__all__)
def test_every_public_name_resolves(name):
    assert getattr(si_subnyq, name) is not None


@pytest.mark.parametrize("name", ["riesz_check", "RieszReport"])
def test_removed_names_are_gone(name):
    assert name not in si_subnyq.__all__
    assert not hasattr(si_subnyq, name)
    assert not hasattr(si_core, name)
