import importlib

import pytest

import edgetype

MODULES = ["graphs", "typealg", "enumeration", "maxent", "probability", "ratedistortion"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"edgetype.{name}")
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []


def test_package_all_resolves():
    missing = [attr for attr in edgetype.__all__ if not hasattr(edgetype, attr)]
    assert missing == []
