"""The benchmark's three closed-loop workloads.

Each workload is a fixed mix of top-level ``mlqkit`` calls, made one after
another by a single caller.  The seed picks contents, call order and the
``gmlq`` row order; it never changes the mix of input sizes, so runs with
different seeds are comparable.  Every output is checked after its call's
timer stops, either against ``references.json`` (computed by
``make_references.py`` through routes other than the timed one) or by a round
trip through the inverse map.  ``mlq_of_filling`` is left out: it does not
keep the column count ``n``, so its round trip fails.

Timed functions are looked up on the ``mlqkit`` package at call time, so
that the tracer's wrappers see the calls.
"""

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import mlqkit
from mlqkit import (
    MultilineQueue,
    QXPolynomial,
    conjugate,
    coquinv,
    maj,
    maj_filling,
)

REFERENCES = Path(__file__).with_name("references.json")

# qwhittaker: generating functions by enumeration, (lambda, n).
QWHITTAKER_MLQ = (
    ((3, 2, 1), 4),
    ((2, 2, 2), 5),
    ((3, 2, 1), 5),
    ((3, 2, 2), 5),
    ((3, 3), 5),
    ((3, 3, 2), 5),
)
QWHITTAKER_GMLQ = (((3, 2, 1), 5), ((3, 3, 2), 5))  # rows: a rearrangement of lambda'
STATIONARY = (((3, 2, 1), 5), ((3, 3, 2), 5), ((3, 2, 1), 6))

# identities: the paper's identities through their enumerate-then-filter routes.
CHARGE_EXPANSION = (((3, 2, 1), 5), ((3, 3, 2), 5), ((2, 2, 2, 1), 6))
KOSTKA = (
    ((3, 2, 1), (1, 1, 1, 1, 1, 1)),
    ((4, 2, 1), (2, 2, 1, 1, 1)),
    ((4, 3, 1), (2, 2, 2, 1, 1)),
    ((4, 2, 2), (2, 2, 2, 1, 1)),
)
LR = (
    ((3, 2, 1), (2, 1), (2, 1)),
    ((4, 3, 2), (2, 1), (3, 2, 1)),
    ((4, 3, 2, 1), (3, 1), (3, 2, 1)),
    ((4, 3, 2, 1), (2, 1), (3, 2, 1, 1)),
    ((5, 3, 2), (3, 1), (3, 2, 1)),
    ((4, 4, 2), (3, 2), (2, 2, 1)),
)

# bijections: per pass, PER_SIZE random square 0/1 matrices of density 1/2
# for each size, and PER_SIZE random straight queues for each (lambda, n).
MATRIX_SIZES = (6, 8, 10)
QUEUE_SHAPES = (((4, 3, 2), 6), ((4, 4, 3, 1), 7), ((5, 3, 2, 1), 7))
PER_SIZE = 10

# Passes in a workload's pool; a run cycles through it.  A pool holds at
# least 100 calls.  qwhittaker and identities repeat one seed-chosen set of
# tasks in a new order each pass; each bijections pass has its own inputs.
POOL_PASSES = {"qwhittaker": 10, "identities": 6, "bijections": 5}


@dataclass(frozen=True)
class Task:
    """One to six dependent calls, checked together.

    ``name`` is the size class, the same for every seed; ``inputs`` are the
    seed-chosen contents.  ``run(meter)`` makes the calls through
    ``meter.call`` and returns how many of them failed their check.
    """

    name: str
    inputs: tuple
    calls: int
    run: Callable


def key(*parts) -> str:
    """Reference key, such as '3,2,1|5' for ((3, 2, 1), 5)."""
    return "|".join(
        ",".join(map(str, p)) if isinstance(p, tuple) else str(p) for p in parts
    )


def encode_poly(p: QXPolynomial) -> dict:
    terms = sorted([q, [list(v) for v in xs], c] for (q, xs), c in p.terms.items())
    return {"n": p.n, "terms": terms}


def decode_poly(data: dict) -> QXPolynomial:
    terms = {(q, tuple(tuple(v) for v in xs)): c for q, xs, c in data["terms"]}
    return QXPolynomial(data["n"], terms)


def encode_counts(counts: dict) -> list:
    return sorted([list(state), count] for state, count in counts.items())


def decode_counts(data: list) -> dict:
    return {tuple(state): count for state, count in data}


def load_references(path=REFERENCES) -> dict:
    data = json.loads(path.read_text())
    return {
        "q_whittaker": {k: decode_poly(v) for k, v in data["q_whittaker"].items()},
        "stationary": {k: decode_counts(v) for k, v in data["stationary"].items()},
        "charge_expansion": {
            k: decode_poly(v) for k, v in data["charge_expansion"].items()
        },
        "kostka": {k: decode_poly(v) for k, v in data["kostka"].items()},
        "lr": dict(data["lr"]),
    }


def _checked(fn, args, expected):
    def run(meter):
        return 0 if meter.call(getattr(mlqkit, fn), *args) == expected else 1

    return run


def _single(fn, size, args, expected):
    return Task(f"{fn} {size}", args, 1, _checked(fn, args, expected))


def qwhittaker_tasks(rng, refs, passes):
    tasks = [
        _single("q_whittaker_mlq", key(lam, n), (lam, n),
                refs["q_whittaker"][key(lam, n)])
        for lam, n in QWHITTAKER_MLQ
    ]
    for lam, n in QWHITTAKER_GMLQ:
        rows = conjugate(lam)
        alpha = tuple(rng.sample(rows, len(rows)))
        # sigma-invariance: every row order gives the straight polynomial
        tasks.append(_single("q_whittaker_gmlq", key(lam, n),
                             (alpha, n), refs["q_whittaker"][key(lam, n)]))
    tasks += [
        _single("stationary_counts", key(lam, n), (lam, n),
                refs["stationary"][key(lam, n)])
        for lam, n in STATIONARY
    ]
    return [rng.sample(tasks, len(tasks)) for _ in range(passes)]


def identities_tasks(rng, refs, passes):
    tasks = [
        _single("q_whittaker_charge_expansion", key(mu, n), (mu, n),
                refs["charge_expansion"][key(mu, n)])
        for mu, n in CHARGE_EXPANSION
    ]
    tasks += [
        _single("kostka_foulkes", key(lam, mu), (lam, mu),
                refs["kostka"][key(lam, mu)])
        for lam, mu in KOSTKA
    ]
    for triple in LR:
        expected = refs["lr"][key(*triple)]
        tasks.append(_single("lr_coefficient", key(*triple), triple, expected))
        tasks.append(_single("lr_coefficient_by_mlq", key(*triple), triple, expected))
    return [rng.sample(tasks, len(tasks)) for _ in range(passes)]


def random_matrix(rng, size) -> MultilineQueue:
    rows = []
    for _ in range(size):
        bits = rng.getrandbits(size)
        rows.append([c for c in range(1, size + 1) if bits >> (c - 1) & 1])
    return MultilineQueue(size, rows)


def random_queue(rng, lam, n) -> MultilineQueue:
    return MultilineQueue(n, [rng.sample(range(1, n + 1), k) for k in conjugate(lam)])


def _round_trips(m):
    def run(meter):
        failed = 0
        result = meter.call(mlqkit.collapse, m)
        if meter.call(mlqkit.collapse_inverse, result.queue, result.recorder) != m:
            failed += 2
        down, left = meter.call(mlqkit.mrsk, m)
        if meter.call(mlqkit.mrsk_inverse, down, left) != m:
            failed += 2
        tableau = meter.call(mlqkit.tab_of_mlq, result.queue)
        if meter.call(mlqkit.mlq_of_tableau, tableau, m.n) != result.queue.trimmed():
            failed += 2
        return failed

    return run


def _filling_check(q):
    def run(meter):
        tau = meter.call(mlqkit.filling_of_mlq, q)
        ok = (
            coquinv(tau) == 0
            and [tuple(sorted(row)) for row in tau.rows] == list(q.rows)
            and maj_filling(tau) == maj(q)
        )
        return 0 if ok else 1

    return run


def bijections_pass(rng):
    tasks = []
    for size in MATRIX_SIZES:
        for _ in range(PER_SIZE):
            m = random_matrix(rng, size)
            tasks.append(Task(f"round trips L=n={size}", (m,), 6, _round_trips(m)))
    for lam, n in QUEUE_SHAPES:
        for _ in range(PER_SIZE):
            q = random_queue(rng, lam, n)
            tasks.append(Task(f"filling_of_mlq {key(lam, n)}", (q,), 1,
                              _filling_check(q)))
    rng.shuffle(tasks)
    return tasks


def bijections_tasks(rng, refs, passes):
    return [bijections_pass(rng) for _ in range(passes)]


BUILDERS = {
    "qwhittaker": qwhittaker_tasks,
    "identities": identities_tasks,
    "bijections": bijections_tasks,
}


def build_pool(workload, seed, refs=None):
    """The workload's passes: seed-chosen tasks, each pass in a seed-chosen order."""
    if refs is None:
        refs = load_references()
    return BUILDERS[workload](random.Random(seed), refs, POOL_PASSES[workload])
