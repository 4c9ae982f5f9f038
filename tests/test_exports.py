import importlib
import importlib.util
from pathlib import Path

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


def test_traced_names_resolve():
    """Every function the benchmark's tracer wraps by name still exists."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    traced = [*spans.FUNCTIONS, ("enumeration", "enumerate_class")]
    missing = [
        (mod, attr)
        for mod, attr in traced
        if not callable(getattr(importlib.import_module(f"edgetype.{mod}"), attr, None))
    ]
    assert missing == []
    for attr in ("to_bits", "from_bits"):
        assert callable(getattr(edgetype.graphs.DiGraph, attr, None)), attr
