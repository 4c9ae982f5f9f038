import ast
import importlib
import importlib.util
import inspect
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



# Size caps that differ from the enumeration default on purpose.
OWN_LIMITS = {
    ("enumeration", "partition_by_type"): 4,
}


@pytest.mark.parametrize("name", MODULES)
def test_limit_defaults_read_the_enumeration_default(name):
    """Every `limit` default is spelled DEFAULT_LIMIT, except the caps in
    OWN_LIMITS.  Read from the source: while DEFAULT_LIMIT is 6, a literal 6
    has the same value."""
    mod = importlib.import_module(f"edgetype.{name}")
    for fn in ast.walk(ast.parse(inspect.getsource(mod))):
        if not isinstance(fn, ast.FunctionDef):
            continue
        params = fn.args.args[len(fn.args.args) - len(fn.args.defaults) :] + fn.args.kwonlyargs
        defaults = dict(zip((p.arg for p in params), fn.args.defaults + fn.args.kw_defaults))
        node = defaults.get("limit")
        if node is None:
            continue
        if (name, fn.name) in OWN_LIMITS:
            assert ast.literal_eval(node) == OWN_LIMITS[name, fn.name]
        else:
            assert isinstance(node, ast.Name) and node.id == "DEFAULT_LIMIT", f"{name}.{fn.name}"
