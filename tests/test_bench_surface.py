"""Every name the benchmark in bench/ reaches in mlqkit exists.

The benchmark looks functions up by name: the tracer patches its targets by
module and attribute, and the workloads import from the package or fetch
the timed function with getattr.  A deletion in the package that one of
them still names would break the benchmark without failing any other test.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_layertrace", BENCH / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    for _, module, attr in layertrace.FUNCTION_TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    for _, module, cls, methods in layertrace.METHOD_TARGETS:
        owner = getattr(importlib.import_module(module), cls)
        for method in methods:
            assert method in vars(owner), (module, cls, method)


def _names_used(path):
    """(module, name) for each ``from mlqkit... import name``, each
    ``mlqkit.name`` and each function name passed to ``_single``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mlqkit":
            for alias in node.names:
                yield node.module, alias.name
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "mlqkit"):
            yield "mlqkit", node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "_single" and isinstance(node.args[0], ast.Constant)):
            yield "mlqkit", node.args[0].value


@pytest.mark.parametrize("script", ["make_references.py", "workloads.py", "selftest.py"])
def test_bench_imports_resolve(script):
    used = list(_names_used(BENCH / script))
    assert used
    for module, name in used:
        assert hasattr(importlib.import_module(module), name), (script, module, name)
