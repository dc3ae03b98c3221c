"""The row-by-row routes agree with enumeration over all queues."""

import operator
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mlqkit import mlq
from mlqkit.core import conjugate, partitions
from mlqkit.errors import InvariantError, ParseError, TooNarrow
from mlqkit.mlq import (
    MultilineQueue,
    canonical_mlq,
    count_mlq,
    enumerate_gmlq,
    enumerate_mlq,
    projection,
    stationary_counts,
)
from mlqkit.collapse import lr_coefficient_by_mlq
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


@settings(max_examples=30)
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


def test_gmlq_edge_compositions():
    # rows with no ball or a ball on every site, in any order: layers whose
    # pairings have no particle, or no anti-particle, to go to
    for k in range(4):
        for alpha in product(range(4), repeat=k):
            for n in range(1, 4):
                expected = oracles.q_whittaker_gmlq(alpha, n)
                assert q_whittaker_gmlq(alpha, n) == expected, (alpha, n)


def _kernel_calls(monkeypatch):
    """The number of ball sets of each ``_label_layer`` call, as they come."""
    calls = []
    kernel = mlq._label_layer

    def counted(word, s, rows, prefilled):
        calls.append(len(rows))
        return kernel(word, s, rows, prefilled)

    monkeypatch.setattr(mlq, "_label_layer", counted)
    return calls


@st.composite
def rows_and_width(draw):
    # zero rows and rows wider than n included; a row is kept while the
    # oracle's queue count stays under the cap
    n = draw(st.integers(1, 5))
    alpha, queues = [], 1
    for _ in range(draw(st.integers(0, 5))):
        a = draw(st.integers(0, n + 1))
        if queues * comb(n, a) <= MAX_QUEUES:
            alpha.append(a)
            queues *= comb(n, a)
    return tuple(alpha), n


@settings(max_examples=40, deadline=None)
@given(rows_and_width())
def test_gmlq_random_compositions(case):
    alpha, n = case
    p = q_whittaker_gmlq(alpha, n)
    assert p._m is not None
    assert p == oracles.q_whittaker_gmlq(alpha, n)


def test_gmlq_labels_nothing(monkeypatch):
    # every row order sums to the straight polynomial, so the generalized
    # route reads the charge formula and runs no labelling
    expected = oracles.q_whittaker_gmlq((3, 2, 1), 5)
    calls = _kernel_calls(monkeypatch)
    assert q_whittaker_gmlq((3, 2, 1), 5) == expected
    assert calls == []


def test_stationary_counts_label_every_ball_set(monkeypatch):
    # the rotation classes merge words, but each word still labels its whole
    # layer: 1 + 1 + 4 words and 5 + 10 + 40 transitions of (3,2,1)
    expected = oracles.stationary_counts((3, 2, 1), 5)
    calls = _kernel_calls(monkeypatch)
    assert stationary_counts((3, 2, 1), 5) == expected
    assert calls == [5, 10] + [10] * 4


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
    # before the shape is measured against n: 0 used to raise TooNarrow
    with pytest.raises(ParseError):
        canonical_mlq((2, 1), n)


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


def _is_periodic(word):
    return any(word[k:] + word[:k] == word for k in range(1, len(word)))


@pytest.mark.parametrize("lam, n", [
    ((4, 3, 2, 1), 6), ((3, 3, 2, 2), 6), ((4, 4, 2), 6), ((3, 2, 1), 7),
])
def test_stationary_orbits_equal_full_sweep(lam, n):
    assert stationary_counts(lam, n) == oracles.stationary_counts_by_sweep(lam, n)


@pytest.mark.parametrize("lam, n", [
    ((1, 1), 4), ((2, 2), 4), ((1, 1, 1), 6), ((2, 2, 2), 6), ((3, 3), 6),
])
def test_stationary_orbits_with_periodic_words(lam, n):
    counts = stationary_counts(lam, n)
    assert any(_is_periodic(word) for word in counts)
    assert counts == oracles.stationary_counts_by_sweep(lam, n)
    assert counts == oracles.stationary_counts(lam, n)


@st.composite
def shape_on_ring(draw):
    n = draw(st.integers(1, 7))
    lam = draw(st.sampled_from([
        lam for size in range(1, 11) for lam in partitions(size)
        if len(lam) <= n and count_mlq(lam, n) <= 200_000
    ]))
    return lam, n


@settings(max_examples=40, deadline=None)
@given(shape_on_ring())
def test_stationary_orbits_random(case):
    lam, n = case
    assert stationary_counts(lam, n) == oracles.stationary_counts_by_sweep(lam, n)


def test_stationary_counts_sum_to_queue_count():
    lam, n = (5, 4, 3, 2, 1), 8
    counts = stationary_counts(lam, n)
    assert len(counts) == 6720
    assert sum(counts.values()) == count_mlq(lam, n)


def test_stationary_frontier_row():
    # a row of the frontier ladder: the kernel's fills and walks against
    # the site-by-site scan, the queue count and the ring's rotation
    # symmetry
    lam, n = (4, 3, 2, 1), 7
    counts = stationary_counts(lam, n)
    assert counts == oracles.stationary_counts_by_sweep(lam, n)
    assert sum(counts.values()) == count_mlq(lam, n)
    assert all(counts[word[1:] + word[:1]] == k for word, k in counts.items())


def test_stationary_orbit_split_is_checked(monkeypatch):
    # a class total that its rotations cannot share equally raises a typed
    # error, which python -O keeps: with the last ball set of each layer
    # left unlabelled, one queue of the class of (1, 0) is lost and the
    # other cannot be shared by its two rotations
    real = mlq._label_layer
    monkeypatch.setattr(
        mlq, "_label_layer",
        lambda word, s, rows, prefilled: real(word, s, rows[:-1], prefilled),
    )
    for lam, n in [((1,), 2), ((2, 1), 3), ((3, 2, 1), 5)]:
        with pytest.raises(InvariantError):
            stationary_counts(lam, n)


def test_stationary_classes_are_keyed_once(monkeypatch):
    # at first sight of a word every rotation of it is registered under it
    # and kept with its class, so the rotations of each class are built once
    # per call: the split at the end builds none
    found = []
    real = mlq._rotations

    def counted(word):
        rotations = real(word)
        found.append(frozenset(rotations))
        return rotations

    monkeypatch.setattr(mlq, "_rotations", counted)
    counts = stationary_counts((3, 2, 1), 5)
    assert counts == oracles.stationary_counts((3, 2, 1), 5)
    bottom = {frozenset(real(word)) for word in counts}
    assert len(found) == len(set(found))
    assert bottom <= set(found)
    # 1 + 4 + 12 classes in the three layers, the 60 words of the bottom
    # layer aperiodic
    assert (len(found), len(bottom)) == (1 + 4 + 12, 12)


def _balance_defects(counts, hop):
    """The words w of ``counts`` at which the global balance of a ring
    process fails: the two labels across a cyclic bond (a, a+1) swap at
    rate 1 when hop(w_a, w_{a+1}), so count(w) times the bonds that can
    swap must equal the sum of the counts of the words that reach w by one
    swap."""
    defects = []
    for w, count in counts.items():
        n = len(w)
        out = inflow = 0
        for a in range(n):
            b = (a + 1) % n
            if hop(w[a], w[b]):
                out += 1
            elif hop(w[b], w[a]):
                v = list(w)
                v[a], v[b] = v[b], v[a]
                inflow += counts.get(tuple(v), 0)
        if count * out != inflow:
            defects.append(w)
    return defects


def test_stationary_counts_are_the_tasep_law():
    # larger labels hop left over smaller ones and 0 is a hole; the chain on
    # the words of one content is irreducible, so full support and global
    # balance fix its stationary law up to scale.  The other orientation is
    # the negative control: it fails exactly when the ring holds three or
    # more distinct labels, holes included
    cases = [(lam, n) for size in range(1, 8) for lam in partitions(size)
             for n in range(2, 7) if len(lam) <= n]
    assert len(cases) == 170
    reversed_fails = []
    for lam, n in cases:
        word = lam + (0,) * (n - len(lam))
        counts = stationary_counts(lam, n)
        assert set(counts) == set(permutations(word)), (lam, n)
        assert _balance_defects(counts, operator.lt) == [], (lam, n)
        if _balance_defects(counts, operator.gt):
            reversed_fails.append((lam, n))
        assert (len(set(word)) >= 3) == ((lam, n) in reversed_fails), (lam, n)
    assert len(reversed_fails) == 81


@st.composite
def content_on_ring(draw):
    n = draw(st.integers(2, 9))
    lam = draw(st.sampled_from([
        lam for size in range(1, 11) for lam in partitions(size) if len(lam) <= n
    ]))
    return lam, n


@settings(max_examples=30, deadline=None)
@given(content_on_ring())
def test_stationary_counts_are_the_tasep_law_random(case):
    # the exhaustive check above, drawn up to |lam| = 10 and n = 9: every
    # word of the content has a count, global balance holds, and a single
    # count raised by 1 breaks it at that word
    lam, n = case
    word = lam + (0,) * (n - len(lam))
    counts = stationary_counts(lam, n)
    assert len(counts) == comb(n, len(lam)) * (
        factorial(len(lam)) // prod(map(factorial, Counter(lam).values()))
    )
    assert all(sorted(w) == sorted(word) for w in counts)
    assert _balance_defects(counts, operator.lt) == []
    if len(counts) > 1:
        raised = dict(counts)
        raised[word] += 1
        assert word in _balance_defects(raised, operator.lt)


@pytest.mark.parametrize("lam, n", [((3, 2, 1), 4), ((2, 2, 1), 5), ((2, 1, 1), 5)])
def test_stationary_counts_are_the_unique_tasep_law(lam, n):
    # global balance fixes the law only up to scale and only if the chain
    # has one stationary law; the exact solve of pi Q = 0 shows that it
    # has, and that the normalised counts are it.  The reversed orientation
    # has another law here (three or more distinct labels), and a chain with
    # no moves has many, which the solve reports as None
    word = lam + (0,) * (n - len(lam))
    counts = stationary_counts(lam, n)
    total = sum(counts.values())
    law = oracles.tasep_law(word)
    assert law == {w: Fraction(c, total) for w, c in counts.items()}
    assert oracles.tasep_law(word, operator.gt) not in (None, law)
    assert oracles.tasep_law(word, lambda a, b: False) is None
