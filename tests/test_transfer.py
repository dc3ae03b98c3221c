"""The row-by-row routes agree with enumeration over all queues."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mlqkit.core import conjugate, partitions
from mlqkit.errors import ParseError, TooNarrow
from mlqkit.mlq import (
    MultilineQueue,
    canonical_mlq,
    count_mlq,
    enumerate_gmlq,
    enumerate_mlq,
    projection,
    stationary_counts,
)
from mlqkit.poly import (
    QXPolynomial,
    kostka_foulkes,
    q_whittaker_charge_expansion,
    q_whittaker_coquinv,
    q_whittaker_gmlq,
    q_whittaker_mlq,
    schur,
    skew_schur,
)
from mlqkit.tableaux import (
    enumerate_skew_ssyt,
    enumerate_ssyt,
    lr_coefficient,
    lr_coefficient_by_mlq,
)

MAX_QUEUES = 5000


def test_agree_with_enumeration_exhaustive():
    cases = [(lam, n) for size in range(1, 7) for lam in partitions(size)
             for n in range(1, 5)]
    for lam, n in cases:
        expected = oracles.q_whittaker_mlq(lam, n)
        assert q_whittaker_mlq(lam, n) == expected, (lam, n)
        for alpha in set(permutations(conjugate(lam))):
            p = q_whittaker_gmlq(alpha, n)
            assert p == expected == oracles.q_whittaker_gmlq(alpha, n), (alpha, n)
        if len(lam) <= n:
            assert stationary_counts(lam, n) == oracles.stationary_counts(lam, n)


@st.composite
def shape_and_order(draw):
    n = draw(st.integers(1, 5))
    # the oracles visit every queue; cap their count to keep examples fast
    lam = draw(st.sampled_from([
        lam for size in range(1, 9) for lam in partitions(size)
        if len(lam) <= n and count_mlq(lam, n) <= MAX_QUEUES
    ]))
    alpha = draw(st.permutations(conjugate(lam)))
    return lam, tuple(alpha), n


@settings(max_examples=30, deadline=None)
@given(shape_and_order())
def test_agree_with_enumeration_random(case):
    lam, alpha, n = case
    expected = oracles.q_whittaker_mlq(lam, n)
    assert q_whittaker_mlq(lam, n) == expected
    assert q_whittaker_gmlq(alpha, n) == expected
    assert stationary_counts(lam, n) == oracles.stationary_counts(lam, n)


def test_empty_and_one_row():
    for n in range(1, 5):
        assert q_whittaker_mlq((), n) == QXPolynomial.one(n)
        assert q_whittaker_gmlq((), n) == QXPolynomial.one(n)
        assert stationary_counts((), n) == {(0,) * n: 1}
        assert projection(MultilineQueue(n, [])) == (0,) * n
        for k in range(1, n + 1):
            lam = (1,) * k  # one row of k balls
            assert q_whittaker_mlq(lam, n) == oracles.q_whittaker_mlq(lam, n)
            assert q_whittaker_gmlq((k,), n) == oracles.q_whittaker_gmlq((k,), n)
            assert stationary_counts(lam, n) == oracles.stationary_counts(lam, n)
    # more balls in a row than columns: no queues
    assert q_whittaker_gmlq((3,), 2).is_zero()
    assert q_whittaker_mlq((1, 1, 1), 2).is_zero()


@pytest.mark.parametrize("n", [True, False, 0, -1, 2.5, "3", None])
def test_rejects_bad_column_count(n):
    with pytest.raises(ParseError):
        q_whittaker_mlq((2, 1), n)
    with pytest.raises(ParseError):
        q_whittaker_gmlq((1, 2), n)
    with pytest.raises(ParseError):
        stationary_counts((2, 1), n)
    with pytest.raises(ParseError):
        schur((2, 1), n)
    with pytest.raises(ParseError):
        list(enumerate_gmlq((1, 2), n))
    with pytest.raises(ParseError):
        MultilineQueue(n, [])
    with pytest.raises(ParseError):
        skew_schur((2, 1), (), n)
    with pytest.raises(ParseError):
        q_whittaker_coquinv((2, 1), n)


@pytest.mark.parametrize("lam", [(1, 2), (2, 0), (2, -1), (2.0, 1), (True,), (2.5,)])
def test_rejects_non_partition(lam):
    with pytest.raises(ParseError):
        q_whittaker_mlq(lam, 3)
    with pytest.raises(ParseError):
        stationary_counts(lam, 3)
    with pytest.raises(ParseError):
        schur(lam, 3)
    with pytest.raises(ParseError):
        q_whittaker_charge_expansion(lam, 3)
    # the shape is checked before the "too narrow, return zero" shortcut
    for n in (1, 3):
        with pytest.raises(ParseError):
            q_whittaker_coquinv(lam, n)
    with pytest.raises(ParseError):
        enumerate_mlq(lam, 3)
    with pytest.raises(ParseError):
        canonical_mlq(lam, 3)
    with pytest.raises(ParseError):
        list(enumerate_ssyt(lam, max_entry=3))
    # the shape is checked before the sizes are compared
    for args in [(lam, (3,)), ((3,), lam)]:
        with pytest.raises(ParseError):
            kostka_foulkes(*args)
    for args in [(lam, (), lam), ((3,), lam, ()), ((3,), (), lam)]:
        with pytest.raises(ParseError):
            lr_coefficient(*args)
        with pytest.raises(ParseError):
            lr_coefficient_by_mlq(*args)
    for args in [(lam, ()), ((3,), lam)]:
        with pytest.raises(ParseError):
            skew_schur(*args, 2)
        with pytest.raises(ParseError):
            list(enumerate_skew_ssyt(*args, max_entry=2))


def test_rejects_negative_row_size():
    with pytest.raises(ParseError):
        q_whittaker_gmlq((2, -1), 3)
    with pytest.raises(ParseError):
        q_whittaker_gmlq((1.0, 1), 3)
    for alpha in [(-1,), (1.5,), (True,)]:
        with pytest.raises(ParseError):
            list(enumerate_gmlq(alpha, 3))


def test_stationary_counts_too_narrow():
    with pytest.raises(TooNarrow):
        stationary_counts((1, 1, 1), 2)
