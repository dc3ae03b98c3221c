"""The identities of poly.py."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mlqkit import poly
from mlqkit.core import conjugate, dominance_leq, partitions
from mlqkit.errors import ParseError
from mlqkit.mlq import count_mlq
from mlqkit.poly import (
    QXPolynomial,
    dual_cauchy_check,
    is_symmetric,
    kostka_foulkes,
    kostka_foulkes_lattice,
    q_whittaker_charge_expansion,
    q_whittaker_coquinv,
    q_whittaker_gmlq,
    q_whittaker_mlq,
    q_whittaker_schur,
    schur,
)

# the enumeration oracle visits every queue; cap its count to keep this fast
MAX_QUEUES = 5000


def test_q_whittaker_routes_agree():
    for size in range(0, 7):
        for lam in partitions(size):
            for n in range(1, 4):
                p = q_whittaker_mlq(lam, n)
                assert p == q_whittaker_coquinv(lam, n), (lam, n)
                assert p == q_whittaker_gmlq(conjugate(lam), n), (lam, n)
                assert p == oracles.q_whittaker_charge_expansion(lam, n), (lam, n)
                assert is_symmetric(p)
                if len(lam) <= n:
                    assert sum(p.terms.values()) == count_mlq(lam, n)
                else:
                    assert p.is_zero()


def test_q_whittaker_charge_expansion_more_columns():
    for size in range(1, 7):
        for lam in partitions(size):
            for n in range(4, 6):
                p = q_whittaker_mlq(lam, n)
                assert p == q_whittaker_gmlq(conjugate(lam), n), (lam, n)
                assert p == oracles.q_whittaker_charge_expansion(lam, n), (lam, n)


def test_q_whittaker_gmlq_every_row_order():
    for lam, n in [((3, 2, 1), 5), ((3, 3, 2), 5)]:
        p = q_whittaker_mlq(lam, n)
        for alpha in set(permutations(conjugate(lam))):
            assert q_whittaker_gmlq(alpha, n) == p, alpha


def test_q_whittaker_schur_is_kostka_foulkes_exhaustive():
    for size in range(0, 8):
        for mu in partitions(size):
            widest = oracles.q_whittaker_schur(mu, 5)
            for n in range(1, 6):
                expected = {lam: k for lam, k in widest.items() if len(lam) <= n}
                assert q_whittaker_schur(mu, n) == expected, (mu, n)


@settings(max_examples=15)
@given(
    st.sampled_from([mu for size in range(0, 11) for mu in partitions(size)]),
    st.integers(1, 6),
)
def test_q_whittaker_schur_random(mu, n):
    assert q_whittaker_schur(mu, n) == oracles.q_whittaker_schur(mu, n)


def test_q_whittaker_schur_boundaries():
    for n in range(1, 4):
        assert q_whittaker_schur((), n) == {(): QXPolynomial.one(0)}
        assert q_whittaker_mlq((), n) == QXPolynomial.one(n)
        # every lam with a nonzero coefficient has at least len(mu) parts
        assert q_whittaker_schur((1,) * (n + 1), n) == {}
        assert q_whittaker_schur((2,) * (n + 1), n) == {}
        assert q_whittaker_mlq((2,) * (n + 1), n).is_zero()


@pytest.mark.parametrize("mu, n", [
    ((1, 2), 3), ((2, 0), 3), ((2.0, 1), 3), ((True,), 3),
    ((2, 1), 0), ((2, 1), 1.5), ((2, 1), True),
])
def test_q_whittaker_schur_checks_before_work(monkeypatch, mu, n):
    def refuse(*args, **kwargs):
        raise AssertionError("tableaux walked before the input was checked")

    monkeypatch.setattr(poly, "_strip_chains", refuse)
    monkeypatch.setattr(poly, "_kostka_sweep", refuse)
    for route in (q_whittaker_schur, q_whittaker_mlq):
        with pytest.raises(ParseError):
            route(mu, n)


@pytest.mark.parametrize("n", [0, 1.5, True])
def test_q_whittaker_charge_expansion_rejects_bad_counts(n):
    # at n = 0 no tableau fits a first row of 0 cells, so without the check
    # the result would be a silent zero
    with pytest.raises(ParseError):
        q_whittaker_charge_expansion((2, 1), n)


def test_schur_routes_agree():
    for size in range(0, 9):
        for lam in partitions(size):
            for n in range(1, 6):
                s = schur(lam, n)
                assert s == oracles.schur_by_ssyt(lam, n), (lam, n)
                if len(lam) <= n and count_mlq(lam, n) <= MAX_QUEUES:
                    assert s == oracles.schur(lam, n), (lam, n)
                # maj >= 0 on straight queues, with equality exactly on the
                # nonwrapping ones
                q0 = [(k, c) for k, c in q_whittaker_mlq(lam, n).terms.items() if k[0] == 0]
                assert s == QXPolynomial(n, q0), (lam, n)
                assert s.is_zero() == (len(lam) > n), (lam, n)


@pytest.mark.parametrize("route, oracle, lam, n, calls", [
    (schur, oracles.schur_by_ssyt, (4, 3, 2, 1), 8, 18),
    (q_whittaker_mlq, oracles.q_whittaker_charge_expansion, (3, 2, 1), 5, 5),
])
def test_monomial_form_expands_only_nonzero_coefficients(
    monkeypatch, route, oracle, lam, n, calls,
):
    # the Kostka sweep stays inside the shapes that carry a coefficient, and
    # only a nonzero coefficient is rearranged: once for each partition
    # below lam in dominance with at most n parts
    rearranged = []
    real = poly._rearrangements

    def counted(nu, n):
        rearranged.append(nu)
        return real(nu, n)

    monkeypatch.setattr(poly, "_rearrangements", counted)
    assert route(lam, n) == oracle(lam, n)
    assert len(rearranged) == calls
    assert set(rearranged) == {
        nu for nu in partitions(sum(lam)) if len(nu) <= n and dominance_leq(nu, lam)
    }


def test_rearrangements_are_the_distinct_permutations():
    for size in range(8):
        for nu in partitions(size):
            for n in range(len(nu), 8):
                found = [
                    tuple(dict(xs).get(i, 0) for i in range(1, n + 1))
                    for xs in poly._rearrangements(nu, n)
                ]
                assert len(set(found)) == len(found), (nu, n)
                assert set(found) == set(permutations(nu + (0,) * (n - len(nu)))), (nu, n)


@settings(max_examples=25)
@given(
    st.sampled_from([lam for size in range(0, 11) for lam in partitions(size)]),
    st.integers(1, 6),
)
def test_schur_random(lam, n):
    assert schur(lam, n) == oracles.schur_by_ssyt(lam, n)


def test_kostka_foulkes_routes_agree():
    for size in range(0, 7):
        for lam in partitions(size):
            for mu in partitions(size):
                k = kostka_foulkes(lam, mu)
                assert kostka_foulkes_lattice(lam, mu) == k, (lam, mu)
                assert oracles.kostka_foulkes_rotated(lam, mu) == k, (lam, mu)


def test_dual_cauchy():
    for n in range(1, 4):
        for length in range(1, 4):
            left, right = dual_cauchy_check(n, length)
            assert left == right, (n, length)


@pytest.mark.parametrize("args", [(-1, 2), (1.5, 2), (2, 0), (1, True), (0, 1)])
def test_dual_cauchy_rejects_bad_counts(args):
    # (-1, 2) used to return the unequal pair (0, 1)
    with pytest.raises(ParseError):
        dual_cauchy_check(*args)
