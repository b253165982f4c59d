"""Every exported name resolves, so no deletion leaves a stale export."""

import importlib

import pytest

MODULES = ("fracbound", "fracbound.bounds", "fracbound.cli", "fracbound.corpus",
           "fracbound.engine", "fracbound.quadrature")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
