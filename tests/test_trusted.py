"""The engine's trusted constructors build what the public ones would.

``MultilineQueue``, ``Tableau``, ``SkewTableau`` and ``QXPolynomial`` each
have a public constructor that validates and normalises its input, and a
private ``_of`` that the engine uses where its data has that form by
construction.  The validation skipped there is kept here as the oracle:
each route's result must equal its copy through the public constructor and
hash the same, and a polynomial must have canonical keys and no zero
coefficient.
"""

from itertools import combinations, permutations, product

import oracles
import pytest
from hypothesis import given
from test_collapse import binary_matrices

from mlqkit.collapse import (
    collapse,
    collapse_inverse,
    collapse_left,
    drop,
    drop_all,
    lift,
    mlq_of_tableau,
    mrsk,
    mrsk_inverse,
    rotate90,
    rotate180,
    rotate270,
    tab_of_mlq,
)
from mlqkit.core import conjugate, partitions
from mlqkit.errors import ParseError
from mlqkit.mlq import MultilineQueue, sigma
from mlqkit.poly import (
    QXPolynomial,
    kostka_foulkes,
    q_whittaker_gmlq,
    q_whittaker_mlq,
    q_whittaker_schur,
    schur,
)
from mlqkit.tableaux import (
    SkewTableau,
    Tableau,
    column_insert,
    enumerate_skew_ssyt,
    enumerate_ssyt,
)


def _same(obj, copy):
    assert obj == copy and hash(obj) == hash(copy), (obj, copy)


def same_queue(q):
    _same(q, MultilineQueue(q.n, q.rows))


def same_tableau(t):
    _same(t, Tableau(t.rows))


def same_skew(t):
    _same(t, SkewTableau(t.outer, t.inner, t.rows))


def same_poly(p):
    _same(p, QXPolynomial(p.n, p.terms))
    assert type(p.terms) is dict and all(p.terms.values()), p.terms
    for q, xs in p.terms:
        assert type(q) is int and type(xs) is tuple, (q, xs)
        assert all(e > 0 for _, e in xs), xs
        variables = [i for i, _ in xs]
        assert variables == sorted(set(variables)), xs
        assert all(1 <= i <= p.n for i in variables), (p.n, xs)


def _queue_routes(m):
    """Check every queue and tableau that the matrix routes build from m."""
    result = collapse(m)
    same_queue(result.queue)
    same_tableau(result.recorder)
    same_queue(collapse_inverse(result.queue, result.recorder))
    same_queue(result.queue.trimmed())
    for i in range(1, m.num_rows):
        for move in (sigma, drop, lift, drop_all):
            same_queue(move(m, i))
    same_queue(rotate180(m))
    if m.num_rows:
        for turn in (rotate90, rotate270, collapse_left):
            same_queue(turn(m))
        down, left = mrsk(m)
        same_queue(down)
        same_queue(left)
        same_queue(mrsk_inverse(down, left))
    t = tab_of_mlq(result.queue)
    same_tableau(t)
    same_queue(mlq_of_tableau(t, m.n))


def test_queue_routes_exhaustive():
    # every binary matrix with at most 3 rows and 1 to 3 columns
    for num_rows in range(4):
        for n in range(1, 4):
            for m in oracles.all_binary_matrices(num_rows, n):
                _queue_routes(m)


@given(binary_matrices(size=8))
def test_queue_routes_random(m):
    _queue_routes(m)


def test_column_insert_exhaustive():
    # all 1 093 words of length 0 to 6 over 1..3
    for length in range(7):
        for word in product((1, 2, 3), repeat=length):
            same_tableau(column_insert(word))


def test_enumerated_tableaux():
    shapes = [lam for size in range(6) for lam in partitions(size)]
    for top in range(4):
        for lam in shapes:
            for t in enumerate_ssyt(lam, max_entry=top):
                same_tableau(t)
            for inner in shapes:
                for t in enumerate_skew_ssyt(lam, inner, max_entry=top):
                    same_skew(t)
    for lam in shapes:
        for mu in partitions(sum(lam)):
            for t in enumerate_ssyt(lam, weight=mu):
                same_tableau(t)


def test_polynomial_routes():
    for size in range(6):
        for lam in partitions(size):
            for mu in partitions(size):
                same_poly(kostka_foulkes(lam, mu))
            for n in range(1, 5):
                same_poly(schur(lam, n))
                same_poly(q_whittaker_mlq(lam, n))
                for coeff in q_whittaker_schur(lam, n).values():
                    same_poly(coeff)
                for alpha in set(permutations(conjugate(lam))):
                    same_poly(q_whittaker_gmlq(alpha, n))


def test_full_arithmetic_and_swaps():
    # sums, differences, int multiples and variable swaps of full
    # polynomials, a symmetric one and its product with x_1, which is not
    # symmetric
    for size in range(6):
        for lam in partitions(size):
            for n in range(1, 5):
                full = QXPolynomial(n, q_whittaker_mlq(lam, n).terms)
                skewed = full * QXPolynomial(n, {(0, ((1, 1),)): 1})
                for p in (full, skewed):
                    for other in (full, skewed):
                        same_poly(p + other)
                        same_poly(p - other)
                    same_poly(p + p * -1)
                    assert (p - p).is_zero() and (p + p * -1).is_zero()
                    for k in (-2, 0, 1, 3):
                        same_poly(p * k)
                        assert p * k == QXPolynomial(n, {key: c * k for key, c in p.terms.items()})
                    assert (p * 0).is_zero()
                    for i, j in combinations(range(1, n + 1), 2):
                        swapped = p.swap_vars(i, j)
                        same_poly(swapped)
                        assert swapped.swap_vars(j, i) == p
                    # outside x_1..x_n the public constructor decides
                    assert p.swap_vars(n + 1, n + 2) == p
                    if any(xs and xs[0][0] == 1 for _, xs in p.terms):
                        with pytest.raises(ParseError):
                            p.swap_vars(1, n + 1)
