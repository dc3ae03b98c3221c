"""Tests of the benchmark's own code (not of mlqkit).

Run from the repository root:  python3 -m pytest -q bench/selftest.py
"""

import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layertrace import FUNCTION_TARGETS, PER_LAYER_METRICS, Tracer  # noqa: E402
from mlqkit import MultilineQueue, QXPolynomial, collapse  # noqa: E402

CALLS_PER_PASS = {"qwhittaker": 11, "identities": 19, "bijections": 210}


@pytest.fixture(scope="module")
def refs():
    return workloads.load_references()


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.now += 10

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        clock.now += 5
        traced_inner()
        traced_inner()
        clock.now += 2

    def objects():
        for k in range(3):
            clock.now += 4
            yield k

    traced_outer = tracer.wrap("outer", outer)
    traced_objects = tracer.wrap("objects", objects)

    traced_outer()  # inactive: not recorded
    assert not tracer.self_ns and not tracer.counts

    tracer.active = True
    traced_outer()
    for _ in traced_objects():
        clock.now += 100  # the consumer's time is not the generator's
    assert tracer.self_ns == {"outer": 7, "inner": 20, "objects": 12}
    assert tracer.counts == {"outer.calls": 1, "inner.calls": 2, "objects.objects": 3}


def _snapshot():
    modules = {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "mlqkit" or name.startswith("mlqkit.")
    }
    classes = {cls: dict(vars(cls)) for cls in (QXPolynomial, MultilineQueue)}
    return modules, classes


def test_tracer_restores_every_patched_name():
    before = _snapshot()
    tracer = Tracer()
    with tracer.installed():
        during = _snapshot()
        patched = {(span, attr) for span, module, attr in FUNCTION_TARGETS
                   if during[0][module][attr] is not before[0][module][attr]}
        assert len(patched) == len(FUNCTION_TARGETS)
        assert during[1][QXPolynomial]["__add__"] is not before[1][QXPolynomial]["__add__"]
        # re-exports and `from .x import f` copies are wrapped as well
        assert during[0]["mlqkit"]["collapse"] is during[0]["mlqkit.collapse"]["collapse"]
        assert during[0]["mlqkit.tableaux"]["_charge"] is during[0]["mlqkit.charge"]["charge"]
    assert _snapshot() == before


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_seed_changes_contents_not_size_mix(workload, refs):
    def contents(pool):
        return [[(task.name, task.inputs) for task in tasks] for tasks in pool]

    def mix(pool):
        return [Counter(task.name for task in tasks) for tasks in pool]

    a = workloads.build_pool(workload, 7, refs)
    b = workloads.build_pool(workload, 7, refs)
    c = workloads.build_pool(workload, 8, refs)
    assert contents(a) == contents(b)
    assert contents(a) != contents(c)
    assert mix(a) == mix(c)
    assert all(m == mix(a)[0] for m in mix(a))
    assert all(sum(t.calls for t in tasks) == CALLS_PER_PASS[workload] for tasks in a)


def test_corrupted_coefficient_counts_as_failure(refs):
    lam, n = workloads.QWHITTAKER_MLQ[0]
    good = refs["q_whittaker"][workloads.key(lam, n)]
    terms = dict(good.terms)
    first = next(iter(terms))
    terms[first] += 1
    bad = QXPolynomial(good.n, terms)

    meter = run.Meter()
    meter.run_pass([workloads._single("q_whittaker_mlq", "", (lam, n), good)])
    assert (meter.attempted, meter.failed) == (1, 0)
    meter.run_pass([workloads._single("q_whittaker_mlq", "", (lam, n), bad)])
    assert (meter.attempted, meter.failed) == (2, 1)


def test_raising_call_fails_its_whole_task(capsys):
    def run_task(meter):
        meter.call(int, "x")
        return 0

    meter = run.Meter()
    meter.run_pass([workloads.Task("raises", (), 6, run_task)])
    assert (meter.attempted, meter.failed) == (6, 6)
    assert "ValueError" in capsys.readouterr().err


def test_row_mass_fall_counts_drops():
    rng = random.Random(5)
    for size in (4, 6, 8):
        m = workloads.random_matrix(rng, size)
        result = collapse(m)
        fall = layertrace._row_mass(m) - layertrace._row_mass(result.queue)
        assert fall == sum(result.drop_counts.values())


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_traced_counts_repeat(workload, refs):
    pool = workloads.build_pool(workload, 11, refs)
    passes = run.TRACE_PASSES[workload]
    first, attempted, failed, _ = run.run_traced(pool, passes, 0)
    second, _, _, _ = run.run_traced(pool, passes, 0)
    assert failed == 0 and attempted == 2 * passes * CALLS_PER_PASS[workload]
    counts = {name for name, unit in PER_LAYER_METRICS if unit != "s/pass"}
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert any(first[k][0] for k in counts)


def test_benchmark_json_matches_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        PER_LAYER_METRICS) + [("trace.overhead_frac", "ratio")]


def test_refuses_optimized_interpreter():
    done = subprocess.run(
        [sys.executable, "-O", str(BENCH / "run.py"), "--workload", "bijections",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert "-O" in done.stderr
