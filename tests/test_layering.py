"""The package's modules import each other at module level and without cycles.

An import inside a function body hides a dependency from the module header
and usually works around a cycle, so both are refused: every module of
``src/mlqkit`` is parsed with ``ast``, each function body is searched for
imports, and the graph of relative imports between modules is searched for
a cycle.  Every name a module or test file imports must also be used in it,
and no module has an ``assert`` statement, which ``python -O`` strips, or
state that outlives a call.  The
trusted constructors ``_of`` and ``QXPolynomial._of_m``, which skip
validation, are called only from an allow-list of engine routes.  Only
``core`` spells out what valid input is.
"""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import mlqkit

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "mlqkit"
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _local_imports(tree):
    """(function name, line) of each import inside a function body."""
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield func.name, node.lineno


def _relative_imports(tree):
    """Names of the package modules that a module imports relatively."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names if alias.name in MODULES)


def _unused_imports(tree):
    """Names bound by an import that never appear as a ``Name`` node; the
    base of an attribute (``oracles`` in ``oracles.schur``) is one."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    yield name


def _find_cycle(graph):
    """A list of modules that closes a cycle, or None."""
    state = {}  # module -> "open" while on the DFS path, "done" after it

    def visit(module, path):
        state[module] = "open"
        for target in graph.get(module, ()):
            if state.get(target) == "open":
                return path[path.index(target):] + [target]
            if target not in state:
                cycle = visit(target, path + [target])
                if cycle:
                    return cycle
        state[module] = "done"
        return None

    for module in graph:
        if module not in state:
            cycle = visit(module, [module])
            if cycle:
                return cycle
    return None


def test_no_imports_inside_functions():
    found = [
        f"{name}.py:{line} in {func}"
        for name, tree in MODULES.items()
        for func, line in _local_imports(tree)
    ]
    assert not found


def test_no_import_cycles():
    graph = {name: sorted(set(_relative_imports(tree))) for name, tree in MODULES.items()}
    assert _find_cycle(graph) is None


def test_no_unused_imports():
    # __init__.py imports names only to re-export them
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    found = [
        f"{path.parent.name}/{path.name}: {name}"
        for path in sorted(paths + list(TESTS.glob("*.py")))
        for name in _unused_imports(ast.parse(path.read_text()))
    ]
    assert not found


def test_tableaux_is_a_leaf():
    assert set(_relative_imports(MODULES["tableaux"])) <= {"core", "charge", "matching", "errors"}


def _imported_names(tree):
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_collapse_does_not_label():
    # collapsed queues are recognised by parking (mlq._is_collapsed), so
    # collapsing never runs the labelling engine
    labelling = {
        "label_mlq", "label_gmlq", "maj", "maj_g", "is_nonwrapping", "projection",
        "_label_layer", "_label_rows", "_wrap_lists", "_rotations",
    }
    assert not _imported_names(MODULES["collapse"]) & labelling


def _calls_in_module(tree, start):
    """The names called by start and, transitively, by every function of
    the same module that it calls."""
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    seen, todo, called = set(), [start], set()
    while todo:
        name = todo.pop()
        if name in seen or name not in functions:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                called.add(node.func.id)
                todo.append(node.func.id)
    return called


def test_lr_by_mlq_runs_no_collapse():
    # the straight part is laid out left-justified and the skew balls go
    # only to rows with room; every candidate is still built publicly,
    # checked collapsed and its skew word checked lattice
    called = _calls_in_module(MODULES["collapse"], "lr_coefficient_by_mlq")
    assert not called & {"collapse", "mlq_of_tableau", "superstandard", "product"}
    assert {"MultilineQueue", "_is_collapsed", "is_lattice"} <= called


def test_unchecked_conjugate_only_in_core():
    defining = {
        name
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_conjugate"
    }
    assert defining == {"core"}


def test_q_whittaker_is_one_route():
    # the charge expansion is the m-basis form that the t = 0 branching rule
    # gives: one sweep of strip chains inside lam, each strip weighted by
    # psi, with no tableau charged, no Schur expansion read off first and
    # no Kostka-Foulkes walk or Schur polynomial per shape
    assert mlqkit.q_whittaker_charge_expansion is mlqkit.q_whittaker_mlq
    called = _calls_in_module(MODULES["poly"], "q_whittaker_mlq")
    assert "_kostka_sweep" in called
    assert _sweep_weights(MODULES["poly"], "q_whittaker_mlq") == [True]
    assert not called & {"q_whittaker_schur", "charge", "schur", "kostka_foulkes"}
    # psi is the q-binomial product that the strip kernel multiplies in
    # under the room rule as it places each row, from the packed table that
    # the one builder gives the sweep; the sweep unpacks each finished sum,
    # and no second pass weighs a strip after it is grown
    tableaux = MODULES["tableaux"]
    assert {"_q_binomials", "_strips", "_unpacked"} <= _calls_in_module(
        tableaux, "_kostka_sweep"
    )
    assert "_rooms" in _calls_in_module(tableaux, "_strips")
    # every row order of lam' sums to the same polynomial (sigma-invariance),
    # so the generalized form is the straight route and poly labels nothing
    assert "q_whittaker_mlq" in _calls_in_module(MODULES["poly"], "q_whittaker_gmlq")
    from_mlq = {
        alias.name
        for node in ast.walk(MODULES["poly"])
        if isinstance(node, ast.ImportFrom) and node.module == "mlq"
        for alias in node.names
    }
    assert from_mlq and not {
        name for name in from_mlq if name.startswith("_label_") or name == "_wrap_weight"
    }


def test_one_q_polynomial_representation():
    # every q-weighted sum packs its q-polynomials into ints, evaluated at
    # q = 2^width, so no module multiplies coefficient lists, and the
    # Gaussian binomials of psi and of the fermionic formula come from the
    # one builder charge._q_binomials, the packed q-Pascal triangle; no
    # second builder or packer is defined, and the builder's only callers
    # are the two sums
    defined = {
        (name, node.name)
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    }
    assert "_times" not in {function for _, function in defined}
    assert {(name, f) for name, f in defined if "binom" in f or "pascal" in f.lower()} == {
        ("charge", "_q_binomials"),
    }
    assert {(name, f) for name, f in defined if "pack" in f} == {("charge", "_unpacked")}
    assert {"_q_binomials", "_unpacked"} <= _calls_in_module(MODULES["charge"], "_fermionic_sum")
    building = {
        (name, node.name)
        for name, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name != "_q_binomials"
        and "_q_binomials" in _names_in_function(tree, node.name)
    }
    assert building == {("charge", "_fermionic_sum"), ("tableaux", "_kostka_sweep")}
    # the strips of a shape have one enumerator, the kernel that weighs
    # them too, which the chains and both sweeps share
    assert {(name, f) for name, f in defined if "strips" in f} == {("tableaux", "_strips")}
    assert not {f for _, f in defined} & {"_psi"}
    for start in ["_kostka_sweep", "_strip_chains", "lr_coefficient"]:
        assert "_strips" in _calls_in_module(MODULES["tableaux"], start), start


def _sweep_weights(tree, start):
    """The weighted flag of each ``_kostka_sweep`` call in the module-level
    function start, False where the call leaves it out."""
    (function,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == start
    ]
    return [
        ast.literal_eval(given[0]) if given else False
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and _called(node.func) == "_kostka_sweep"
        for given in [node.args[3:] + [k.value for k in node.keywords if k.arg == "weighted"]]
    ]


def test_one_schur_to_monomial_expansion():
    # every (skew) Schur polynomial is the m-basis form that one unweighted
    # sweep of tableaux._kostka_sweep from inner to outer returns, so Kostka
    # numbers have one engine; test_q_whittaker_is_one_route pins that
    # q_whittaker_mlq runs the same sweep with the kernel's psi weights
    poly = MODULES["poly"]
    for start in ["schur", "skew_schur", "q_whittaker_mlq"]:
        called = _calls_in_module(poly, start)
        assert "_kostka_sweep" in called, start
        assert "schur" not in called, start
    for start in ["schur", "skew_schur"]:
        assert _sweep_weights(poly, start) == [False], start
    # the sweep lives in tableaux, with no helper around it
    for name, tree in MODULES.items():
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert ("_kostka_sweep" in defined) == (name == "tableaux"), name
        assert ("_rooms" in defined) == (name == "tableaux"), name
        assert not defined & {"_dominant_kostka", "_monomial_form"}, name
    # the sweeps and the chains grow shapes under one room rule, through the
    # one strip kernel
    for start in ["_kostka_sweep", "_strip_chains", "lr_coefficient"]:
        assert {"_rooms", "_strips"} <= _calls_in_module(MODULES["tableaux"], start), start
    direct = {
        (name, node.name)
        for name, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and "_kostka_sweep" in _names_in_function(tree, node.name)
    }
    assert direct == {("poly", "schur"), ("poly", "skew_schur"), ("poly", "q_whittaker_mlq")}


def test_lazy_enumerators_and_eager_strip_helpers():
    # the benchmark's layer tracer counts *.objects only on generator
    # functions, and these are its generator targets; they are also the
    # lazy public API, as is the chain engine under them
    for module, name in [
        ("mlq", "enumerate_gmlq"),
        ("tableaux", "enumerate_ssyt"),
        ("tableaux", "enumerate_skew_ssyt"),
        ("tableaux", "_strip_chains"),
    ]:
        function = getattr(importlib.import_module(f"mlqkit.{module}"), name)
        assert inspect.isgeneratorfunction(function), name
    # the strips and the Kostka sweep build small lists by plain recursion,
    # with no generator frame per object
    tableaux = importlib.import_module("mlqkit.tableaux")
    for name in ["_strips", "_kostka_sweep"]:
        assert not inspect.isgeneratorfunction(getattr(tableaux, name)), name


def test_one_pairing_kernel():
    # every labelling runs the pairing rule through mlq._label_layer, which
    # returns labels only
    for module, start in [
        ("mlq", "stationary_counts"), ("mlq", "projection"), ("mlq", "_label_rows"),
        ("fillings", "filling_of_mlq"),
    ]:
        assert "_label_layer" in _calls_in_module(MODULES[module], start), (module, start)
    # the wrap lists are matched out of the labels by the one two-row
    # matching kernel, and only label_gmlq and maj_g, through _label_rows,
    # ask for them: the projection, the fillings and the stationary sweep
    # take the kernel's labels as they are
    mlq = MODULES["mlq"]
    assert {"_wrap_lists", "_match_rows"} <= _calls_in_module(mlq, "_label_rows")
    direct = {
        (name, node.name)
        for name, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and _names_in_function(tree, node.name) & {"_wrap_lists", "_label_rows"}
    }
    assert direct == {("mlq", "_label_rows"), ("mlq", "label_gmlq"), ("mlq", "maj_g")}
    for start in ["stationary_counts", "projection"]:
        assert "_wrap_lists" not in _calls_in_module(mlq, start), start


MUTABLE_BUILDERS = {
    "list", "dict", "set", "bytearray", "defaultdict", "Counter", "OrderedDict", "deque",
}
CACHES = {"cache", "lru_cache", "cached_property"}


def _called(func):
    """The last name of a called or decorating expression."""
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _is_mutable(node):
    """True for a list, dict or set display or comprehension, or a call that
    builds a mutable container."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) and _called(node.func) in MUTABLE_BUILDERS


def _assigned(body):
    """The values that the assignments among the statements body bind."""
    for node in body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            yield node.lineno, node.value


def _cross_call_state(tree):
    """(line, what) for each place where state could outlive a call."""
    for line, value in _assigned(tree.body):
        if _is_mutable(value):
            yield line, "module-level mutable container"
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for line, value in _assigned(node.body):
                if _is_mutable(value):
                    yield line, "class-level mutable attribute"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults = node.args.defaults + [d for d in node.args.kw_defaults if d]
            if any(map(_is_mutable, defaults)):
                yield node.lineno, "mutable default argument"
            for decorator in getattr(node, "decorator_list", ()):
                if isinstance(decorator, ast.Call):
                    decorator = decorator.func
                if _called(decorator) in CACHES:
                    yield node.lineno, "cache decorator"
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name in CACHES for alias in node.names):
                yield node.lineno, "cache import"


def test_no_cross_call_state():
    # a gain on repeated calls must come from the work of one call: no
    # module or class keeps a mutable container, no default argument is
    # shared between calls, and nothing is memoised across calls; caches
    # local to one call (the carries' codes, _strip_chains' strips) stay
    found = [
        f"{name}.py:{line} {what}"
        for name, tree in MODULES.items()
        for line, what in _cross_call_state(tree)
    ]
    assert not found


def _module_state(tree):
    """(line, what) for each name that tree binds at module level, each
    global declaration and each import of functools, whose caches outlive a
    call."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for root in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for target in ast.walk(root):
                    if isinstance(target, ast.Name):
                        yield node.lineno, f"binds {target.id}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            yield node.lineno, "global"
        elif isinstance(node, ast.Import) and "functools" in {
            alias.name.split(".")[0] for alias in node.names
        }:
            yield node.lineno, "imports functools"
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            yield node.lineno, "imports functools"


def test_no_module_level_state():
    # every memo is local to one call, so a repeated input is never served
    # from a cache: at module level src/ binds only the version string and
    # one function alias, no function declares a global, and nothing
    # imports functools
    found = {(name, what) for name, tree in MODULES.items() for _, what in _module_state(tree)}
    assert found == {
        ("__init__", "binds __version__"), ("poly", "binds q_whittaker_charge_expansion"),
    }
    assert isinstance(mlqkit.__version__, str)
    planted = ast.parse(
        "import functools as f\n"
        "from functools import partial\n"
        "SEEN, (A, B) = {}, (1, 2)\n"
        "LIMIT: int = 3\n"
        "def g():\n"
        "    global SEEN\n"
    )
    assert sorted(_module_state(planted)) == [
        (1, "imports functools"), (2, "imports functools"), (3, "binds A"), (3, "binds B"),
        (3, "binds SEEN"), (4, "binds LIMIT"), (6, "global"),
    ]


def test_cross_call_state_finder():
    planted = ast.parse(
        "import functools\n"
        "from functools import lru_cache\n"
        "SEEN = {}\n"
        "ROWS: list = []\n"
        "LIMIT = (1, 2)\n"
        "class A:\n"
        "    known = set()\n"
        "    __slots__ = ('n',)\n"
        "@functools.cache\n"
        "def f(x, acc=[]):\n"
        "    local = {}\n"
        "@lru_cache(maxsize=None)\n"
        "def g(x, *, seen=dict()):\n"
        "    return x\n"
    )
    assert sorted(_cross_call_state(planted)) == [
        (2, "cache import"),
        (3, "module-level mutable container"),
        (4, "module-level mutable container"),
        (7, "class-level mutable attribute"),
        (10, "cache decorator"),
        (10, "mutable default argument"),
        (13, "cache decorator"),
        (13, "mutable default argument"),
    ]


def test_cycle_finder():
    assert _find_cycle({"a": ["b"], "b": ["c"], "c": ["a"]}) == ["a", "b", "c", "a"]
    assert _find_cycle({"a": ["b", "c"], "b": ["c"], "c": []}) is None


def test_one_two_row_matching_kernel():
    # queue rows are matched as bitmasks by matching._match_rows; the set
    # matcher _two_row_match is the oracle in tests/oracles.py only
    for name, tree in MODULES.items():
        defined = {
            node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        }
        referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names = defined | referenced | _imported_names(tree)
        assert "_two_row_match" not in names, name
        # whether a row pair parks without a wrap is _match_rows too
        assert "_parks_without_wrap" not in names, name
    for name in ["collapse", "mlq"]:
        assert "_match_rows" in _imported_names(MODULES[name]), name
    # Schur polynomials are expanded through Kostka numbers, not by parking
    # balls row by row, so poly matches no rows
    assert "matching" not in set(_relative_imports(MODULES["poly"]))
    # collapse checks its sweeps on the row masks it holds, without decoding
    for start in ["collapse", "_sweep"]:
        assert "_columns" not in _names_in_function(MODULES["collapse"], start), start


def test_one_collapse_sweep():
    # every collapse runs the one sweep kernel on row masks; the callers
    # that need only the masks and the recorder rows call it directly, not
    # through collapse, which wraps them in a CollapseResult
    tree = MODULES["collapse"]
    for start in ["collapse", "mrsk", "mlq_of_tableau"]:
        assert "_sweep" in _calls_in_module(tree, start), start
    for start in ["mrsk", "mlq_of_tableau"]:
        assert "collapse" not in _names_in_function(tree, start), start
    dropping = {
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and "_drop_unmatched" in _names_in(node)
        and node.name != "_drop_unmatched"
    }
    assert dropping == {"_sweep", "drop_all"}
    # the drop counts and the lift batches are the recorder's prefix counts,
    # from one helper, with no Counter of (entry, row) pairs; collapse keeps
    # the recorder and builds no drop dict, which CollapseResult.drop_counts
    # derives on access
    assert "_prefix_counts" in _calls_in_module(tree, "_uncollapse")
    (result,) = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "CollapseResult"
    ]
    (drop_counts,) = [
        node for node in result.body
        if isinstance(node, ast.FunctionDef) and node.name == "drop_counts"
    ]
    assert [ast.unparse(d) for d in drop_counts.decorator_list] == ["property"]
    assert "_prefix_counts" in _names_in(drop_counts)
    (collapse,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "collapse"
    ]
    assert not {"_prefix_counts", "dict"} & set(_names_in(collapse))
    assert not any(isinstance(node, (ast.Dict, ast.DictComp)) for node in ast.walk(collapse))
    assert "Counter" not in _imported_names(tree)
    # the inverses take the masks that their collapsed check matched
    assert "_is_collapsed" in _calls_in_module(tree, "_check_collapsed")
    for start in ["collapse_inverse", "mrsk_inverse"]:
        assert "_row_masks" not in _names_in_function(tree, start), start


ORACLES = ast.parse((TESTS / "oracles.py").read_text())
TABLEAU_ENGINE = {
    "_strips", "_strip_chains", "_kostka_sweep", "lr_coefficient", "enumerate_ssyt",
    "enumerate_skew_ssyt",
}
# oracle in tests/oracles.py -> the package functions it must not reach: the
# route it checks and the engines under that route
ORACLE_AVOIDS = {
    "collapse_full_sweep": {"collapse", "_sweep", "_prefix_counts", "_match_rows"},
    "ssyt_rows_by_cells": TABLEAU_ENGINE,
    "lr_coefficient_by_filter": TABLEAU_ENGINE,
    "kostka_foulkes_by_configurations": {"_fermionic_sum", "_next_levels", "_q_binomials"},
    "q_binomial_by_subsets": {"_q_binomials"},
    "stationary_counts_by_sweep": {"stationary_counts", "_label_layer", "_rotations"},
    "q_whittaker_mlq": {"_kostka_sweep", "_strips", "_q_binomials"},
}
# package names that those oracles use on purpose, each with its reason; the
# walk below reaches them but does not follow them
SHARED_HELPERS = {
    "CollapseResult": "the record collapse_full_sweep returns; its drop_counts, read "
    "off the recorder, is what the oracle's own count is checked against",
    "_inner_of": "pads the inner shape to the length of the outer one; it places no cell",
    "SkewTableau": "the checked constructor: its semistandard check, not the strips, "
    "stands behind each filling the LR oracle builds cell by cell",
    "is_lattice": "the lattice test itself, which the LR oracle filters by where "
    "lr_coefficient caps its strips",
}


def _scope(tree):
    """What each module-level name of tree (a package module or the
    oracles) stands for: its own function or class node, (module, name)
    for a name imported from mlqkit, or the module's name for an imported
    package module."""
    scope = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope[node.name] = node
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("mlqkit")):
            source = (node.module or "").removeprefix("mlqkit").lstrip(".") or "__init__"
            for alias in node.names:
                is_module = source == "__init__" and alias.name in MODULES
                scope[alias.asname or alias.name] = (
                    alias.name if is_module else (source, alias.name)
                )
    return scope


SCOPES = {module: _scope(tree) for module, tree in {**MODULES, "oracles": ORACLES}.items()}


def _reached_from(oracle):
    """The (module, name) of every function and class that oracles.oracle
    reaches through the names its body uses, in tests/oracles.py and through
    mlqkit; a shared helper of the package is reached but not followed."""
    todo, reached = [("oracles", oracle)], set()
    while todo:
        module, name = todo.pop()
        target = SCOPES[module].get(name)
        while isinstance(target, tuple):  # an import, maybe of a re-export
            module, name = target
            target = SCOPES[module].get(name)
        if not isinstance(target, ast.AST) or (module, name) in reached:
            continue
        reached.add((module, name))
        if module != "oracles" and name in SHARED_HELPERS:
            continue
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                todo.append((module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if isinstance(alias := SCOPES[module].get(node.value.id), str):
                    todo.append((alias, node.attr))
    return reached


def test_oracles_are_independent():
    # each oracle reaches neither the route it checks nor that route's
    # engines, through its own helpers and through the package alike; the
    # full-sweep collapse counts its drops with the set matcher, and the
    # tableau oracles fill cells one at a time
    shared = set()
    for oracle, avoids in ORACLE_AVOIDS.items():
        reached = _reached_from(oracle)
        package = {name for module, name in reached if module != "oracles"}
        assert not package & avoids, oracle
        shared |= package & SHARED_HELPERS.keys()
    assert ("oracles", "_two_row_match") in _reached_from("collapse_full_sweep")
    assert ("oracles", "ssyt_rows_by_cells") in _reached_from("lr_coefficient_by_filter")
    # every shared helper is one that an oracle of the table uses
    assert shared == SHARED_HELPERS.keys()


def test_one_parking_test():
    # whether a queue is a collapse fixed point is decided in one place,
    # mlq._is_collapsed, which _check_collapsed calls; every other caller of
    # the matching kernel moves or labels balls, or checks one sweep
    defining = {
        (name, node.name)
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and "collapsed" in node.name
    }
    assert defining == {("mlq", "_is_collapsed"), ("collapse", "_check_collapsed")}
    matching = {
        (name, node.name)
        for name, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name != "_match_rows"
        and "_match_rows" in _names_in_function(tree, node.name)
    }
    assert matching == {
        ("mlq", "_is_collapsed"), ("mlq", "_wrap_lists"), ("mlq", "sigma"),
        ("collapse", "_drop_unmatched"), ("collapse", "_lift_unmatched"),
        ("collapse", "drop"), ("collapse", "_sweep"),
    }


def _names_in_function(tree, name):
    """The names that the body of the module-level function name uses."""
    (function,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    return {node.id for node in ast.walk(function) if isinstance(node, ast.Name)}


def test_no_assert_in_src():
    # invariants raise typed errors, since python -O strips assert statements
    found = [
        f"{name}.py:{node.lineno}"
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found


def _names_in(node):
    """How often each name, attribute or imported name occurs below node."""
    found = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found[child.id] += 1
        elif isinstance(child, ast.Attribute):
            found[child.attr] += 1
        elif isinstance(child, ast.ImportFrom):
            found.update(alias.name for alias in child.names)
    return found


def test_no_dead_private_helpers():
    # a private function (or method) that nothing in src/ names outside its
    # own body is dead code
    everywhere = sum((_names_in(tree) for tree in MODULES.values()), Counter())
    dead = [
        f"{name}.py:{node.lineno} {node.name}"
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and everywhere[node.name] == _names_in(node)[node.name]
    ]
    assert not dead
    # the strip kernel is named by the chains and both of its sweeps, not by
    # itself alone
    tableaux = MODULES["tableaux"]
    users = {
        node.name for node in tableaux.body
        if isinstance(node, ast.FunctionDef) and node.name != "_strips"
        and "_strips" in _names_in(node)
    }
    assert users == {"_strip_chains", "_kostka_sweep", "lr_coefficient"}


# module -> the functions that call a trusted constructor ``_of`` or
# ``_of_m``; each builds its result from data that has the checked form by
# construction
TRUSTED_CALLERS = {
    "mlq": {"MultilineQueue.trimmed", "sigma"},
    "collapse": {"_from_masks", "collapse", "rotate90", "rotate270", "rotate180", "mrsk"},
    "tableaux": {"_column_insert", "enumerate_ssyt", "enumerate_skew_ssyt"},
    "fillings": {"filling_of_mlq"},
    "poly": {
        "schur", "skew_schur", "q_whittaker_mlq", "_kostka_foulkes",
        # sums, differences and products drop their zeros, and a swap of two
        # of the n variables maps canonical keys one to one
        "QXPolynomial.__add__", "QXPolynomial.__sub__", "QXPolynomial.__mul__",
        "QXPolynomial.swap_vars",
    },
}


def _trusted_call_sites(node, scope=()):
    """The dotted names of the functions (and classes) around each call of
    an attribute named ``_of`` or ``_of_m`` below node."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
        elif isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
            if child.func.attr in {"_of", "_of_m"}:
                yield ".".join(scope)
        yield from _trusted_call_sites(child, inner)


def test_trusted_constructors_only_on_the_allow_list():
    found = {name: set(_trusted_call_sites(tree)) for name, tree in MODULES.items()}
    assert {name: sites for name, sites in found.items() if sites} == TRUSTED_CALLERS
    # input from outside is validated: no parser and no public constructor
    # may skip it
    for sites in found.values():
        for site in sites:
            for part in site.split("."):
                assert not part.startswith("parse_") and part != "__init__", site

    def defining(constructor):
        return {
            node.name
            for tree in MODULES.values()
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and any(isinstance(f, ast.FunctionDef) and f.name == constructor
                    for f in node.body)
        }

    assert defining("_of") == {
        "MultilineQueue", "Tableau", "SkewTableau", "ColumnFilling", "QXPolynomial",
    }
    assert defining("_of_m") == {"QXPolynomial"}


def test_charge_stays_on_the_traced_path():
    # tableaux charge through charge.charge, which the benchmark traces
    assert "_charge" in _calls_in_module(MODULES["tableaux"], "tableau_charge")
    charge = importlib.import_module("mlqkit.charge").charge
    assert importlib.import_module("mlqkit.tableaux")._charge is charge
    # kostka_foulkes sums the fermionic formula over configurations: it
    # builds no tableau and charges none
    called = _calls_in_module(MODULES["poly"], "kostka_foulkes")
    assert "_fermionic_sum" in called
    assert not called & {"enumerate_ssyt", "tableau_charge", "charge", "_strip_chains"}
    assert "_next_levels" in _calls_in_module(MODULES["charge"], "_fermionic_sum")
    # the Schur basis of the charge formula is one fermionic sum per shape,
    # through the unchecked Kostka-Foulkes builder, as the pair is valid by
    # construction, so poly charges no tableau; the charge sum over tableaux
    # is the oracle in tests/oracles.py
    called = _calls_in_module(MODULES["poly"], "q_whittaker_schur")
    assert {"_kostka_foulkes", "_fermionic_sum"} <= called
    assert not called & {"kostka_foulkes", "dominance_leq"}
    assert not called & {"enumerate_ssyt", "tableau_charge", "charge", "_strip_chains"}
    assert not _imported_names(MODULES["poly"]) & {"charge", "_strip_chains", "_strips"}


def test_one_tableau_engine():
    # every semistandard enumeration is a chain of horizontal strips
    # (tableaux._strip_chains); the cell-by-cell backtracker is the oracle
    # in tests/oracles.py only
    for name, tree in MODULES.items():
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert not defined & {"_ssyt_rows", "_ssyt_of_content"}, name
    tableaux, poly = MODULES["tableaux"], MODULES["poly"]
    for start in ["enumerate_ssyt", "enumerate_skew_ssyt"]:
        assert "_strip_chains" in _calls_in_module(tableaux, start), start
    # LR coefficients are a sweep over the kernel's lattice-capped strips:
    # no chain is listed and no tableau filtered
    lr = _calls_in_module(tableaux, "lr_coefficient")
    assert "_strips" in _names_in_function(tableaux, "lr_coefficient")
    assert not lr & {
        "_strip_chains", "is_lattice", "enumerate_skew_ssyt", "skew_rev_reading_word",
    }
    assert not inspect.isgeneratorfunction(importlib.import_module("mlqkit").lr_coefficient)
    # the chains only enumerate: they take the sizes and the two shapes and
    # no flag, and every strip, free letters' too, comes from the kernel,
    # which alone reads the room rule
    (chains,) = [
        node for node in tableaux.body
        if isinstance(node, ast.FunctionDef) and node.name == "_strip_chains"
    ]
    assert [a.arg for a in chains.args.args] == ["sizes", "outer", "inner"]
    assert "product" not in _imported_names(tableaux)
    rooms = {
        node.name for node in tableaux.body
        if isinstance(node, ast.FunctionDef) and node.name != "_rooms"
        and "_rooms" in _names_in(node)
    }
    assert rooms == {"_strips"}
    # skew Schur polynomials are one monomial expansion of skew Kostka
    # numbers, swept from inner to outer: no LR coefficients, no lattice
    # traversal and no Schur polynomial per nu
    skew = _calls_in_module(poly, "skew_schur")
    assert "_kostka_sweep" in skew
    assert not skew & {
        "_skew_chains", "lr_coefficient", "enumerate_skew_ssyt", "enumerate_ssyt",
    }
    # the strips, their rooms and their chains of a shape are tableaux's
    # own: poly names none of them
    names = {node.id for node in ast.walk(poly) if isinstance(node, ast.Name)}
    assert not (names | _imported_names(poly)) & {
        "_strips", "_rooms", "_grown", "_skew_chains", "_strip_chains",
    }
    # no route of the package enumerates a capped alphabet: it asks the
    # enumerators for a weight
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                keywords = {k.arg for k in node.keywords}
                if node.func.id in {"enumerate_ssyt", "enumerate_skew_ssyt"}:
                    assert keywords == {"weight"}, f"{name}.py:{node.lineno}"


def _contract_breaches(tree):
    """What a module outside ``core`` may not spell out itself: the int rule
    (``type(v) is int``, ``... is not int``, ``isinstance(v, bool)``,
    ``isinstance(v, int)``, which lets a bool through), the strip of text,
    and a bare ``except TypeError`` around a conversion."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
        ):
            if any(isinstance(n, ast.Name) and n.id == "int"
                   for n in [node.left, *node.comparators]):
                yield node.lineno, "int rule"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "isinstance" and {"bool", "int"} & set(_names_in(node.args[-1])):
                yield node.lineno, "int rule"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "strip":
                yield node.lineno, "strip"
        elif isinstance(node, ast.ExceptHandler):
            if isinstance(node.type, ast.Name) and node.type.id == "TypeError":
                yield node.lineno, "except TypeError"


def test_one_input_contract():
    # core's helpers decide what a count, a sequence, a word and text are
    # (_is_count, _check_count, _as_tuple, _check_letters, _text); the
    # parsers' handlers for malformed JSON, except (KeyError, TypeError,
    # ValueError), are not conversions of a sequence and may stay
    found = [
        f"{name}.py:{line} {what}"
        for name, tree in MODULES.items()
        if name != "core"
        for line, what in _contract_breaches(tree)
    ]
    assert not found
    # the one guarded conversion of a sequence is core._as_tuple
    converting = [
        node.name
        for node in MODULES["core"].body
        if isinstance(node, ast.FunctionDef)
        and any(what == "except TypeError" for _, what in _contract_breaches(node))
    ]
    assert converting == ["_as_tuple"]
    for name, helper in [("mlq", "_check_columns"), ("charge", "_check_partition_content")]:
        assert not hasattr(importlib.import_module(f"mlqkit.{name}"), helper), helper
