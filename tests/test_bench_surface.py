"""Every name the benchmark in bench/ reaches in mlqkit exists.

The benchmark looks functions up by name: the tracer patches its targets by
module and attribute, and the workloads import from the package or fetch
the timed function with getattr; the tracer and its self-test read
attributes off a collapse result.  A deletion in the package that one of
them still names would break the benchmark without failing any other test.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from mlqkit.collapse import collapse
from mlqkit.mlq import MultilineQueue

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _layertrace():
    spec = importlib.util.spec_from_file_location("bench_layertrace", BENCH / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    return layertrace


def test_tracer_targets_resolve():
    layertrace = _layertrace()
    for _, module, attr in layertrace.FUNCTION_TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    for _, module, cls, methods in layertrace.METHOD_TARGETS:
        owner = getattr(importlib.import_module(module), cls)
        for method in methods:
            assert method in vars(owner), (module, cls, method)


def _attributes_read(path, function, name):
    """The attributes that function in the script at path reads off name."""
    (node,) = [
        node for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == function
    ]
    return {
        child.attr for child in ast.walk(node)
        if isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)
        and child.value.id == name
    }


def test_collapse_result_attributes_resolve():
    # the tracer's drop count reads the queue off a collapse result, and the
    # self-test reads its drop counts: what they read must stay on it
    m = MultilineQueue(4, [[2, 3], [1, 4], [1, 2, 3], [4]])
    result = collapse(m)
    for attr in ["queue", "recorder", "drop_counts"]:
        assert hasattr(result, attr), attr
    for script, function in [
        ("layertrace.py", "_count_drops"), ("selftest.py", "test_row_mass_fall_counts_drops"),
    ]:
        read = _attributes_read(BENCH / script, function, "result")
        assert read, (script, function)
        for attr in read:
            assert hasattr(result, attr), (script, attr)
    layertrace = _layertrace()
    tracer = layertrace.Tracer()
    layertrace._count_drops(tracer, (m,), result)
    assert tracer.counts["collapse.drops"] == sum(result.drop_counts.values()) > 0


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
