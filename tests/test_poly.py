"""The identities of poly.py."""

import importlib
from itertools import combinations, permutations, product
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mlqkit import poly
from mlqkit.charge import _unpacked
from mlqkit.core import conjugate, dominance_leq, is_partition, partitions
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
    skew_schur,
)
from mlqkit.tableaux import _strips, enumerate_ssyt

# the module, which the package's name charge, a function, hides
charge_module = importlib.import_module("mlqkit.charge")

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


def test_q_whittaker_schur_at_the_frontier():
    mu, n = (5, 4, 3, 2, 1), 7
    assert q_whittaker_schur(mu, n) == oracles.q_whittaker_schur(mu, n)


def test_q_whittaker_schur_is_one_kostka_foulkes_per_dominating_shape():
    # every mu with |mu| <= 9 on up to 7 variables, against the public
    # route: a kostka_foulkes for each lam' with parts at most n that
    # dominates mu', and nothing at all once mu has more than n parts
    kostka = {}
    for size in range(0, 10):
        for mu in partitions(size):
            dual = conjugate(mu)
            for n in range(1, 8):
                expected = {}
                for shape in partitions(size, n):
                    if dominance_leq(dual, shape):
                        if (shape, dual) not in kostka:
                            kostka[shape, dual] = kostka_foulkes(shape, dual)
                        expected[conjugate(shape)] = kostka[shape, dual]
                assert q_whittaker_schur(mu, n) == expected, (mu, n)
                if len(mu) > n:
                    assert expected == {}, (mu, n)


def test_q_whittaker_schur_boundaries():
    for n in range(1, 4):
        assert q_whittaker_schur((), n) == {(): QXPolynomial.one(0)}
        assert q_whittaker_mlq((), n) == QXPolynomial.one(n)
        # every lam with a nonzero coefficient has at least len(mu) parts
        assert q_whittaker_schur((1,) * (n + 1), n) == {}
        assert q_whittaker_schur((2,) * (n + 1), n) == {}
        assert q_whittaker_mlq((2,) * (n + 1), n).is_zero()


def _by_charge(coeffs, n):
    # the m-basis form of the sum over rho of coeffs[rho] s_rho, the Schur
    # expansion by the charge oracle, through unweighted Kostka numbers: of
    # the branching route it shares only the sweep's recursion, not psi and
    # not the weighted sums; s_rho is 0 for rho with more than n parts
    m = {}
    for rho, coeff in coeffs.items():
        for (q, _), k in coeff.terms.items():
            for (_, nu), c in schur(rho, n)._m.items():
                m[q, nu] = m.get((q, nu), 0) + k * c
    return m


def test_q_whittaker_branching_is_the_charge_expansion_exhaustive():
    for size in range(0, 9):
        for lam in partitions(size):
            widest = oracles.q_whittaker_schur(lam, 6)
            for n in range(1, 7):
                assert q_whittaker_mlq(lam, n)._m == _by_charge(widest, n), (lam, n)


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from([lam for size in range(0, 11) for lam in partitions(size)]),
    st.integers(1, 7),
)
def test_q_whittaker_branching_is_the_charge_expansion_random(lam, n):
    assert q_whittaker_mlq(lam, n)._m == _by_charge(oracles.q_whittaker_schur(lam, n), n)


def test_q_whittaker_branching_is_the_charge_expansion_at_the_frontier():
    lam, n = (6, 5, 4, 3, 2, 1), 8
    p = q_whittaker_mlq(lam, n)
    assert p._m == _by_charge(oracles.q_whittaker_schur(lam, n), n)
    # P_lam is m_lam plus lower terms in dominance
    assert {(q, nu): c for (q, nu), c in p._m.items() if nu == lam} == {(0, lam): 1}
    assert all(dominance_leq(nu, lam) and len(nu) <= n for _, nu in p._m)


# bits per coefficient for psi decoded in the tests: every coefficient of a
# psi below is far smaller than 2^WIDTH
WIDTH = 32


def _packed(terms, width):
    """The q-polynomial with the (degree, coefficient) pairs terms at
    q = 2^width."""
    return sum(c << (e * width) for e, c in terms)


def _binomials(top, width):
    """The table binomials[b][a] = [a choose b]_q packed at width, a, b <= top,
    each counted as subsets (``oracles.q_binomial_by_subsets``), so the
    strip kernel's weights do not rest on the builder that the package
    packs them with."""
    return [
        [_packed(oracles.q_binomial_by_subsets(a, b).items(), width) for a in range(top + 1)]
        for b in range(top + 1)
    ]


def _psi(shape, new, width=WIDTH, binomials=None):
    """psi_{new/shape}(q, 0) packed at width: the weight that the strip
    kernel gives new among the strips on shape (maybe one row shorter)
    inside new, from binomials or a table of its own."""
    if binomials is None:
        binomials = _binomials(new[0] if new else 0, width)
    padded = shape + (0,) * (len(new) - len(shape))
    strips = _strips(new, padded, binomials).get(sum(new) - sum(shape), ())
    (weight,) = [w for got, w in strips if got == new]
    return weight


def _psi_coefficients(shape, new):
    """psi_{new/shape}(q, 0) as its coefficients, lowest degree first."""
    return _unpacked(_psi(shape, new), WIDTH)


def _horizontal_strips_below(lam):
    """Every mu with lam/mu a horizontal strip: lam_{i+1} <= mu_i <= lam_i."""
    ranges = [range(low, high + 1) for high, low in zip(lam, lam[1:] + (0,))]
    for mu in product(*ranges):
        yield tuple(v for v in mu if v)


def test_q_whittaker_branching_rule_on_queues():
    # Macdonald VI (7.13') at t = 0, both sides summed over queues:
    # P_lam(x_1..x_n) = sum over mu of psi_{lam/mu}(q) x_n^{|lam/mu|}
    # P_mu(x_1..x_{n-1}), so psi is pinned by the paper's objects, not by
    # the sweep that multiplies it along chains
    fewer = {}
    for size in range(0, 7):
        for lam in partitions(size):
            for n in range(2, 5):
                right = {}
                for mu in _horizontal_strips_below(lam):
                    if (mu, n - 1) not in fewer:
                        fewer[mu, n - 1] = oracles.q_whittaker_mlq(mu, n - 1)
                    strip = size - sum(mu)
                    last = ((n, strip),) if strip else ()
                    for d, c in enumerate(_psi_coefficients(mu, lam)):
                        for (q, xs), k in fewer[mu, n - 1].terms.items():
                            key = (q + d, xs + last)
                            right[key] = right.get(key, 0) + c * k
                expected = QXPolynomial(n, right)
                assert oracles.q_whittaker_mlq(lam, n) == expected, (lam, n)
                assert q_whittaker_mlq(lam, n) == expected, (lam, n)


def test_psi_boundaries():
    # a row that gains nothing, or every cell it may, gives the factor 1;
    # the first strip, a single row, always weighs 1
    assert _psi_coefficients((), ()) == [1]
    assert _psi_coefficients((), (4,)) == [1]
    assert _psi_coefficients((2, 1), (2, 1)) == [1]
    assert _psi_coefficients((2, 2), (4, 2, 1)) == [1]
    # (2,1)/(1): row 1 gains 1 of its 2 - 1 = 1 cells, row 2 one of 1
    assert _psi_coefficients((1,), (2, 1)) == [1]
    # (2)/(1): row 1 gains 1 of 2 cells, [2 choose 1]_q = 1 + q
    assert _psi_coefficients((1,), (2,)) == [1, 1]
    # (4,2)/(3,1): [2 choose 1]_q [2 choose 1]_q = 1 + 2q + q^2, with the
    # one binomial read twice from the caller's table
    table = _binomials(4, WIDTH)
    assert _unpacked(_psi((3, 1), (4, 2), WIDTH, table), WIDTH) == [1, 2, 1]
    assert _psi((3, 1), (4, 2), WIDTH, table) == table[1][2] ** 2 == (1 + (1 << WIDTH)) ** 2
    # (5,3)/(3,2): row 1 gains all 2 cells it may, row 2 one of 3, so
    # [3 choose 1]_q = 1 + q + q^2, at a width of 2 bits, which holds it
    assert _unpacked(_psi((3, 2), (5, 3), 2), 2) == [1, 1, 1]
    assert _psi((3, 2), (5, 3), 2) == 0b010101


def test_q_whittaker_mlq_boundaries():
    for n in range(1, 5):
        assert q_whittaker_mlq((), n) == QXPolynomial.one(n)
        # more parts than variables: no chain of n strips reaches lam
        for lam in [(1,) * (n + 1), (3, 2) + (1,) * n]:
            assert q_whittaker_mlq(lam, n).is_zero(), (lam, n)
            assert q_whittaker_mlq(lam, n)._m == {}, (lam, n)
    # one variable: only a one-row lam has a queue, and its weight is x_1^k
    for size in range(0, 6):
        for lam in partitions(size):
            p = q_whittaker_mlq(lam, 1)
            assert p == oracles.q_whittaker_mlq(lam, 1), lam
            expected = QXPolynomial(1, {(0, ((1, size),) if size else ()): 1})
            assert p == (expected if len(lam) <= 1 else QXPolynomial.zero(1)), lam


@pytest.mark.parametrize("mu, n", [
    ((1, 2), 3), ((2, 0), 3), ((2.0, 1), 3), ((True,), 3),
    ((2, 1), 0), ((2, 1), 1.5), ((2, 1), True),
])
def test_q_whittaker_schur_checks_before_work(monkeypatch, mu, n):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the input was checked")

    monkeypatch.setattr(poly, "kostka_foulkes", refuse)
    monkeypatch.setattr(poly, "_fermionic_sum", refuse)
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
    # the result and its comparison with a full polynomial rearrange
    # nothing; reading its terms rearranges each nonzero coefficient once,
    # for each partition below lam in dominance with at most n parts, since
    # the Kostka sweep stays inside the shapes that carry a coefficient
    rearranged = []
    real = poly._rearrangements

    def counted(nu, n):
        rearranged.append(nu)
        return real(nu, n)

    monkeypatch.setattr(poly, "_rearrangements", counted)
    p = route(lam, n)
    assert p == oracle(lam, n)
    assert rearranged == []
    assert p.terms
    assert len(rearranged) == calls
    assert set(rearranged) == {
        nu for nu in partitions(sum(lam)) if len(nu) <= n and dominance_leq(nu, lam)
    }


def test_is_zero_reads_the_monomial_form(monkeypatch):
    # an m-basis form answers is_zero from its coefficients, zero or not,
    # and rearranges nothing; its terms, once read, agree
    rearranged = []
    real = poly._rearrangements

    def counted(nu, n):
        rearranged.append(nu)
        return real(nu, n)

    monkeypatch.setattr(poly, "_rearrangements", counted)
    p = q_whittaker_mlq((5, 4, 3, 2, 1), 7)
    zeros = [q_whittaker_mlq((2, 2, 1), 2), skew_schur((2, 1), (3,), 3), p * 0, p + p * -1]
    for z in zeros:
        assert z._m == {} and z.is_zero()
    assert p._m and not p.is_zero()
    assert rearranged == []
    assert p.terms and not any(z.terms for z in zeros)
    assert rearranged


def _full(p):
    return QXPolynomial(p.n, p.terms)


def _same_both_forms(p):
    # an m-basis form keeps the contract of QXPolynomial._of_m, and equals
    # its own expansion both ways round, without expanding for ==, and
    # hashes the same
    assert p._m is not None
    for (_, nu), c in p._m.items():
        assert c and is_partition(nu) and len(nu) <= p.n, (nu, c)
    full = _full(p)
    assert full._m is None
    assert p == full and full == p
    assert hash(p) == hash(full)


def test_symmetric_results_equal_their_expansions():
    for size in range(0, 9):
        for lam in partitions(size):
            for n in range(1, 7):
                _same_both_forms(schur(lam, n))
                _same_both_forms(q_whittaker_mlq(lam, n))
            for inner_size in range(0, 4):
                for mu in partitions(inner_size):
                    for n in range(1, 6):
                        _same_both_forms(skew_schur(lam, mu, n))
    # every row order of lam' gives the generalized-queue route's m-basis form
    for size in range(0, 8):
        for lam in partitions(size):
            for n in range(1, 6):
                for alpha in set(permutations(conjugate(lam))):
                    _same_both_forms(q_whittaker_gmlq(alpha, n))


def _as_compact_iff_as_full(p, full):
    # p is an m-basis form: it equals full exactly when its expansion does
    expected = _full(p) == full
    assert (p == full) == expected and (full == p) == expected
    return expected


def test_full_equals_compact_exactly_when_expansions_equal():
    p = q_whittaker_mlq((3, 2, 1), 4)
    terms = dict(p.terms)
    key = next(iter(terms))
    assert _as_compact_iff_as_full(p, _full(p))
    # a non-symmetric full polynomial on the same keys
    assert not _as_compact_iff_as_full(p, QXPolynomial(4, {**terms, key: terms[key] + 1}))
    # one rearrangement missing
    missing = dict(terms)
    del missing[key]
    assert not _as_compact_iff_as_full(p, QXPolynomial(4, missing))
    # one key extra, each of its exponent orders in turn
    for extra in [(0, ((1, 6),)), (99, ((1, 3), (2, 2), (3, 1))), (key[0] + 1, key[1])]:
        assert extra not in terms
        assert not _as_compact_iff_as_full(p, QXPolynomial(4, {**terms, extra: 1}))
    # another number of variables, with the same keys
    assert not _as_compact_iff_as_full(p, QXPolynomial(5, terms))
    assert q_whittaker_mlq((3, 2, 1), 5) != QXPolynomial(5, terms)
    # the zero polynomial, compact or full, against either
    zero = schur((2, 1), 1)
    assert zero._m == {}
    assert _as_compact_iff_as_full(zero, QXPolynomial.zero(1))
    assert not _as_compact_iff_as_full(p, QXPolynomial.zero(4))
    assert not _as_compact_iff_as_full(zero, QXPolynomial(1, {(0, ((1, 3),)): 1}))


def test_compact_arithmetic_stays_compact():
    a, b = schur((3, 1), 4), q_whittaker_mlq((2, 2), 4)
    for result, full in [
        (a + b, _full(a) + _full(b)),
        (b + a, _full(b) + _full(a)),
        (a + a * -1, QXPolynomial.zero(4)),
        (a * 3, _full(a) * 3),
        (3 * b, 3 * _full(b)),
        (b * 0, QXPolynomial.zero(4)),
    ]:
        assert result._m is not None
        assert result == full and result.terms == full.terms
        assert all(result._m.values())
    # a full operand gives a full result
    mixed = a + _full(b)
    assert mixed._m is None and mixed == _full(a) + _full(b)
    assert (a - b)._m is None and a - b == _full(a) - _full(b)


def test_scalars_are_counts():
    # a scalar is an int by core._is_count, so a bool is no scalar: it
    # reaches the polynomial check and is a ParseError, on either side
    compact = schur((2, 1), 3)
    full = _full(compact)
    for p in [compact, full]:
        for scale in [lambda: p * True, lambda: True * p, lambda: p * False]:
            with pytest.raises(ParseError):
                scale()
        for k in [2, -1, 0]:
            for scaled in [p * k, k * p]:
                assert (scaled._m is None) == (p._m is None)
                assert scaled.terms == {key: c * k for key, c in full.terms.items() if k}


@settings(max_examples=30)
@given(
    st.sampled_from([lam for size in range(0, 11) for lam in partitions(size)]),
    st.integers(1, 6),
    st.data(),
)
def test_compact_form_random(lam, n, data):
    p = q_whittaker_mlq(lam, n)
    _same_both_forms(p)
    if p.terms:
        key = data.draw(st.sampled_from(sorted(p.terms)))
        terms = dict(p.terms)
        del terms[key]
        assert not _as_compact_iff_as_full(p, QXPolynomial(n, terms))
        terms[key] = p.terms[key] + data.draw(st.sampled_from([-1, 1]))
        assert not _as_compact_iff_as_full(p, QXPolynomial(n, terms))


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
    # the package sums the fermionic formula over configurations; the
    # charge sum over tableaux is checked term for term on every pair with
    # |lam| <= 8, and the routes that enumerate queues or try every
    # partition at every level up to |lam| = 6
    pairs = 0
    for size in range(0, 9):
        for lam in partitions(size):
            for mu in partitions(size):
                k = kostka_foulkes(lam, mu)
                assert oracles.kostka_foulkes_by_charge(lam, mu) == k, (lam, mu)
                if size <= 6:
                    assert kostka_foulkes_lattice(lam, mu) == k, (lam, mu)
                    assert oracles.kostka_foulkes_rotated(lam, mu) == k, (lam, mu)
                    assert oracles.kostka_foulkes_by_configurations(lam, mu) == k, (lam, mu)
                pairs += 1
    assert pairs == 919


@settings(max_examples=15)
@given(st.sampled_from([
    (lam, mu) for size in range(9, 12) for lam in partitions(size) for mu in partitions(size)
    if dominance_leq(mu, lam)
]))
def test_kostka_foulkes_random(pair):
    assert kostka_foulkes(*pair) == oracles.kostka_foulkes_by_charge(*pair)


def test_kostka_foulkes_visits_configurations_not_tableaux(monkeypatch):
    # each level is generated under the vacancy, part and length bounds
    # once per pair of levels above it; a looser bound shows as more work,
    # though the sum stays right, so the work is pinned on every pair with
    # |lam| <= 9 (each bound cuts some of them) and on (5,4,3,2,1)/(1^15),
    # which has 292 864 tableaux and 58 admissible configurations
    calls, levels = [], []
    real = charge_module._next_levels

    def counted(*args):
        found = real(*args)
        calls.append(args)
        levels.extend(found)
        return found

    monkeypatch.setattr(charge_module, "_next_levels", counted)
    for size in range(0, 10):
        for lam in partitions(size):
            for mu in partitions(size):
                kostka_foulkes(lam, mu)
    # every level generated keeps its vacancy numbers >= 0
    assert all(min(vacancies, default=0) >= 0 for _, vacancies in levels)
    assert (len(calls), len(levels)) == (4561, 4156)
    calls.clear()
    levels.clear()
    lam, mu = (5, 4, 3, 2, 1), (1,) * 15
    k = kostka_foulkes(lam, mu)
    assert (len(calls), len(levels)) == (92, 149)
    assert sum(k.terms.values()) == 292_864
    assert len(oracles.rigged_configurations(lam, mu)) == 58
    assert k == oracles.kostka_foulkes_by_configurations(lam, mu)


def test_q_binomial_counts_subsets_by_sum():
    # the builder's table[b][a] is [a choose b]_q at q = 2^width, 0 for
    # b > a, exact as an int whatever the carries: the largest coefficient
    # of [10 choose 5]_q is 20, so widths 1 and 3 carry, and there the int
    # still equals the polynomial at 2^width, though it does not unpack
    for width in (1, 3, 5, 8, 33):
        table = charge_module._q_binomials([], 10, width)
        assert [len(row) for row in table] == [11] * 11, width
        for a in range(11):
            for b in range(11):
                expected = oracles.q_binomial_by_subsets(a, b)
                assert table[b][a] == _packed(expected.items(), width), (width, a, b)
                if max(expected.values(), default=0) < 1 << width:
                    coeffs = [expected[e] for e in range(max(expected, default=-1) + 1)]
                    assert _unpacked(table[b][a], width) == coeffs, (width, a, b)
    # grown on demand, in any order of sizes, the table is the one built at once
    grown, largest = [], 0
    for top in (0, 3, 2, 7, 7, 10):
        largest = max(largest, top)
        assert charge_module._q_binomials(grown, top, 5) is grown
        assert [len(row) for row in grown] == [largest + 1] * (largest + 1), top
    assert grown == charge_module._q_binomials([], 10, 5)


def test_packing_keeps_every_degree():
    # q = 2^width: a zero coefficient below the top keeps its degree, and
    # while every coefficient fits in width bits a sum or product of packed
    # polynomials is the int sum or product, and q^s a shift by s * width
    for width in (1, 2, 5, 8, 33):
        top = (1 << width) - 1
        for coeffs in ([], [1], [0, 1], [1, 0, 1], [0, 0, top, 0, 1], [top] * 3):
            packed = _packed(enumerate(coeffs), width)
            assert _unpacked(packed, width) == coeffs, (width, coeffs)
            assert _unpacked(packed << 2 * width, width) == ([0, 0] + coeffs if coeffs else [])
    a, b = _packed(enumerate([1, 0, 2]), 4), _packed(enumerate([0, 3, 1]), 4)
    assert _unpacked(a * b, 4) == [0, 3, 1, 6, 2]
    assert _unpacked(a + b, 4) == [1, 3, 3]
    # too narrow a width carries into the next degree: 3 * 3 = 9 needs 4 bits
    assert _unpacked(_packed([(0, 3)], 2) ** 2, 2) != [9]


def _zero_one_matrices(rows, cols, memo):
    """How many 0/1 matrices have row sums rows and column sums cols."""
    if not rows:
        return int(not any(cols))
    key = rows, cols
    if key not in memo:
        memo[key] = sum(
            _zero_one_matrices(rows[1:], tuple(c - (j in chosen) for j, c in enumerate(cols)), memo)
            for chosen in combinations(range(len(cols)), rows[0])
            if all(cols[j] for j in chosen)
        )
    return memo[key]


def test_q_whittaker_at_q_one_is_elementary_and_fits_its_width():
    # P_lam(x; 1, 0) = e_{lam'}(x) (Macdonald VI (4.14)), so the q = 1 sum
    # of the m_nu coefficient counts the 0/1 matrices with row sums lam'
    # and column sums nu; there are fewer than 2^(lam_1 n) matrices with
    # lam_1 rows and n columns, the width that the sweep packs with
    memo = {}
    for size in range(1, 9):
        for lam in partitions(size):
            for n in range(len(lam), 7):
                at_one = {}
                for (_, nu), c in q_whittaker_mlq(lam, n)._m.items():
                    assert 0 < c < 2 ** (lam[0] * n), (lam, n, nu)
                    at_one[nu] = at_one.get(nu, 0) + c
                expected = {
                    nu: count
                    for nu in partitions(size) if len(nu) <= n
                    for count in [_zero_one_matrices(conjugate(lam), nu, memo)] if count
                }
                assert at_one == expected, (lam, n)


def test_kostka_foulkes_at_q_one_counts_tableaux_within_the_multinomial():
    # K_{lam,mu}(1) is the number of tableaux of shape lam and content mu,
    # at most the number of words of content mu, the multinomial, and the
    # number f^lam of standard tableaux of shape lam, by the hook length
    # formula; the smaller bounds every coefficient of the packed sum
    for size in range(0, 9):
        for lam in partitions(size):
            for mu in partitions(size):
                k = kostka_foulkes(lam, mu)
                at_one = sum(k.terms.values())
                assert at_one == sum(1 for _ in enumerate_ssyt(lam, weight=mu)), (lam, mu)
                assert at_one <= factorial(size) // prod(map(factorial, mu)), (lam, mu)
                assert at_one <= factorial(size) // prod(_hooks(lam)), (lam, mu)


def _hooks(lam):
    """The hook lengths of the cells of lam."""
    cols = conjugate(lam)
    return [row - j + cols[j] - i - 1 for i, row in enumerate(lam) for j in range(row)]


def _fake_degree(lam):
    """The coefficients of q^{n(lam')} [N]_q! / prod over cells of [h]_q,
    N = |lam|, lowest degree first: [N]_q! / prod [h]_q is the product of
    the 1 - q^k over k <= N divided by the product of the 1 - q^h."""
    size = sum(lam)
    c = [1] + [0] * (size * (size + 1) // 2)
    for k in range(1, size + 1):  # times 1 - q^k
        for j in range(len(c) - 1, k - 1, -1):
            c[j] -= c[j - k]
    for h in _hooks(lam):  # divided by 1 - q^h
        for j in range(h, len(c)):
            c[j] += c[j - h]
    while len(c) > 1 and not c[-1]:
        c.pop()
    return [0] * sum(r * (r - 1) // 2 for r in lam) + c


def test_kostka_foulkes_of_one_column_content_is_the_fake_degree():
    # K_{lam,1^N}(q) = q^{n(lam')} [N]_q! / prod [h(x)]_q; at the staircase
    # (6,5,4,3,2,1) its largest coefficient has 25 bits of the packed width
    # bit_length(f^lam) = 31, so half that width overflows here
    for lam in [lam for size in range(0, 8) for lam in partitions(size)] + [(6, 5, 4, 3, 2, 1)]:
        k = kostka_foulkes(lam, (1,) * sum(lam))
        coefficients = [k.terms.get((q, ()), 0) for q in range(max(q for q, _ in k.terms) + 1)]
        assert coefficients == _fake_degree(lam), lam
    standard = factorial(21) // prod(_hooks((6, 5, 4, 3, 2, 1)))
    assert standard.bit_length() == 31
    assert max(_fake_degree((6, 5, 4, 3, 2, 1))).bit_length() == 25


def test_kostka_foulkes_with_zero_coefficients():
    # a zero coefficient below the top keeps its degree: the fake degrees of
    # the one-row and square shapes have gaps and start above q^0
    def coefficients(lam, mu):
        k = kostka_foulkes(lam, mu)
        return [k.terms.get((q, ()), 0) for q in range(max(q for q, _ in k.terms) + 1)]

    assert coefficients((2,), (1, 1)) == [0, 1]
    assert coefficients((3,), (1, 1, 1)) == [0, 0, 0, 1]
    assert coefficients((2, 2), (1, 1, 1, 1)) == [0, 0, 1, 0, 1]
    assert coefficients((3, 3), (1,) * 6) == [0] * 6 + [1, 0, 1, 1, 1, 0, 1]
    assert coefficients((4,), (2, 2)) == [0, 0, 1]


def test_q_dual_cauchy():
    # Macdonald VI (5.4) at t = 0: prod over i <= m, j <= k of (1 + x_i y_j)
    # is the sum over lam with at most m parts and lam_1 <= k of
    # P_lam(x; q, 0) P_lam'(y; q), the q-Whittaker polynomial times the
    # Hall-Littlewood polynomial at t = q, which oracles.hall_littlewood
    # builds from kostka_foulkes
    for m, k in product(range(1, 4), repeat=2):
        total = m + k
        right = QXPolynomial.zero(total)
        for size in range(0, m * k + 1):
            hall_littlewood = oracles.hall_littlewood(size, k)
            for lam in partitions(size, k):
                if len(lam) <= m:
                    x_side = oracles.shifted(q_whittaker_mlq(lam, m), total, 0)
                    y_side = oracles.shifted(hall_littlewood[conjugate(lam)], total, m)
                    right = right + x_side * y_side
        _, left = dual_cauchy_check(m, k)
        assert right == left, (m, k)


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
