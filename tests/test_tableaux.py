import importlib
from collections import Counter
from itertools import combinations, product
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mlqkit.charge import _unpacked, charge
from mlqkit.core import conjugate, partitions
from mlqkit.errors import NonPartitionContent, ParseError, SizeMismatch
from mlqkit.mlq import MultilineQueue, column_word, enumerate_mlq, is_nonwrapping, row_word
from mlqkit.collapse import (
    collapse,
    insert_into_mlq,
    lr_coefficient,
    lr_coefficient_by_mlq,
    mlq_of_tableau,
    mult_mlq,
    rectify_by_mlq,
    skew_to_mlq,
    tab_of_mlq,
)
from mlqkit.poly import QXPolynomial, skew_schur
from mlqkit.tableaux import (
    SkewTableau,
    Tableau,
    _kostka_sweep,
    _strip_chains,
    _strips,
    column_insert,
    column_reading_word,
    enumerate_skew_ssyt,
    enumerate_ssyt,
    parse_tableau,
    row_reading_word,
    straighten,
    superstandard,
    tableau_charge,
)

# shape (6,4,3,2) reading-order example
READING_T = Tableau([[1, 1, 1, 2, 3, 5], [2, 3, 5, 7], [5, 7, 7], [7, 8]])
# shape (7,6,3) charge example
CHARGE_T = Tableau([[1, 1, 1, 1, 2, 3, 4], [2, 2, 2, 4, 4, 5], [3, 3, 5]])
# shape (7,6,3) bijection example
BIJ_T = Tableau([[1, 1, 1, 2, 3, 3, 5], [2, 2, 2, 3, 4, 4], [4, 4, 5]])


def test_reading_words():
    assert row_reading_word(READING_T) == (
        7, 8, 5, 7, 7, 2, 3, 5, 7, 1, 1, 1, 2, 3, 5,
    )
    assert column_reading_word(READING_T) == (
        7, 5, 2, 1, 8, 7, 3, 1, 7, 5, 1, 7, 2, 3, 5,
    )
    single = Tableau([[4]])
    assert row_reading_word(single) == (4,)
    assert column_reading_word(single) == (4,)


def test_tableau_charge():
    assert tableau_charge(CHARGE_T) == 7
    assert charge(column_reading_word(CHARGE_T)) == 7
    assert tableau_charge(superstandard((3, 2, 2))) == 0
    with pytest.raises(NonPartitionContent):
        tableau_charge(Tableau([[2]]))


def test_charge_reading_order_invariance():
    for size in range(1, 8):
        for lam in partitions(size):
            for t in enumerate_ssyt(lam, max_entry=min(size, 4)):
                try:
                    rw_charge = tableau_charge(t)
                except NonPartitionContent:
                    continue
                assert charge(column_reading_word(t)) == rw_charge


def test_column_insert():
    assert column_insert((1,)).rows == ((1,),)
    assert column_insert((1, 2)).rows == ((1,), (2,))
    assert column_insert((2, 1)).rows == ((1, 2),)
    word = tuple(reversed(column_reading_word(BIJ_T)))
    assert column_insert(word) == BIJ_T


def test_column_insert_is_row_insert_of_reversal_exhaustive():
    # column insertion of a word and row insertion of its reversal give the
    # same tableau; all 5 461 words of length 0 to 6 over 1..4
    for length in range(7):
        for word in product(range(1, 5), repeat=length):
            assert column_insert(word) == oracles.row_insert(word[::-1])


def test_row_insert():
    assert oracles.row_insert((1, 2, 3)).rows == ((1, 2, 3),)
    assert oracles.row_insert((2, 1)).rows == ((1,), (2,))
    example = MultilineQueue(5, [[1, 3, 4], [1, 4, 5], [2, 5], [1, 3], [4]])
    assert oracles.row_insert(column_word(example)) == collapse(example).recorder


ORACLE_SIZES = [(3, 3), (3, 4), (4, 3), (2, 5)]  # 9 728 matrices


def test_row_insert_matches_recorder_exhaustive():
    for size in ORACLE_SIZES:
        for b in oracles.all_binary_matrices(*size):
            assert oracles.row_insert(column_word(b)) == collapse(b).recorder


def test_column_insert_matches_collapsed_queue_exhaustive():
    for size in ORACLE_SIZES:
        for b in oracles.all_binary_matrices(*size):
            assert tab_of_mlq(collapse(b).queue) == column_insert(row_word(b))


def test_tableau_from_crw():
    for t in (READING_T, CHARGE_T, BIJ_T, superstandard((3, 1))):
        assert oracles.tableau_from_crw(column_reading_word(t)) == t


def test_tableau_from_crw_rejects_other_words():
    # runs 2 1 | 1 | 3 2: a short column between two taller ones used to be
    # read as the tableau 1 1 2 / 2 3, whose column word is 2 1 3 1 2
    with pytest.raises(ParseError):
        oracles.tableau_from_crw((2, 1, 1, 3, 2))


def test_mlq_of_tableau_example():
    m = mlq_of_tableau(BIJ_T)
    assert row_word(m) == (3, 4, 5, 2, 3, 5, 1, 3, 4, 2, 4, 1, 4, 1, 2, 2)
    assert tab_of_mlq(m) == BIJ_T


def test_mlq_of_tableau_single_cell():
    m = mlq_of_tableau(Tableau([[3]]), n=4)
    assert m.rows == ((3,),)


def test_bijection_round_trip_exhaustive():
    for size in range(0, 6):
        for lam in partitions(size):
            if lam and conjugate(lam)[0] > 3:
                continue
            seen = set()
            for t in enumerate_ssyt(lam, max_entry=3):
                m = mlq_of_tableau(t, n=3)
                assert m.row_sizes()[: len(conjugate(lam))] == conjugate(lam)
                assert is_nonwrapping(m)
                assert tab_of_mlq(m) == t
                seen.add(m)
            # tab then mlq is the identity on nonwrapping queues
            for m in seen:
                assert mlq_of_tableau(tab_of_mlq(m), n=3).trimmed() == m.trimmed()
            nonwrapping = [
                m for m in enumerate_mlq(lam, 3) if is_nonwrapping(m)
            ]
            assert len(nonwrapping) == len(seen)


def test_insert_morphism():
    for size in range(0, 5):
        for lam in partitions(size):
            for t in enumerate_ssyt(lam, max_entry=3):
                for k in (1, 2, 3):
                    grown = column_insert(
                        tuple(reversed(column_reading_word(t))) + (k,)
                    ) if t.rows else Tableau([[k]])
                    lhs = mlq_of_tableau(grown, n=3)
                    rhs = insert_into_mlq(mlq_of_tableau(t, n=3), k)
                    assert lhs.trimmed() == rhs.trimmed()


def test_insert_identity_on_nonwrapping():
    from mlqkit.collapse import collapse as rho

    for m in enumerate_mlq((2, 1), 3):
        if is_nonwrapping(m):
            word = row_word(m)
            rebuilt = MultilineQueue(3, [[v] for v in word])
            assert rho(rebuilt).queue.trimmed() == m.trimmed()


def test_straighten_example():
    skew = SkewTableau(
        (6, 5, 3, 2),
        (4, 2, 1),
        [[1, 1], [2, 4, 4], [2, 5], [1, 3]],
    )
    hat, ell = straighten(skew)
    assert ell == 3
    assert hat.rows == (
        (1, 1, 1, 1, 4, 4),
        (2, 2, 5, 7, 7),
        (3, 5, 8),
        (4, 6),
    )


def test_skew_mlq_example():
    from mlqkit.core import is_lattice

    skew = SkewTableau(
        (6, 5, 3, 2),
        (4, 2, 1),
        [[1, 1], [2, 4, 4], [2, 5], [1, 3]],
    )
    bic = skew_to_mlq(skew)
    assert bic.skew_columns == 3
    word = bic.skew_word()
    assert is_lattice(word)
    assert sorted(word) == [1, 1, 1, 1, 2, 2, 3]
    assert word == (1, 1, 2, 3, 2, 1, 1)
    # row sizes of the bicolored queue conjugate the outer shape
    sizes = tuple(s for s in bic.base.row_sizes() if s)
    assert sizes == conjugate((6, 5, 3, 2))
    # skew column j carries inner_j balls
    cols = bic.base.column_content()
    assert cols[:3] == (4, 2, 1)
    assert rectify_by_mlq(skew) == oracles.jdt_rectify(skew)


def test_skew_round_trip():
    for outer_size in range(1, 6):
        for outer in partitions(outer_size):
            for inner_size in range(0, 3):
                for inner in partitions(inner_size):
                    padded = tuple(inner) + (0,) * (len(outer) - len(inner))
                    if len(inner) > len(outer):
                        continue
                    if any(padded[i] > outer[i] for i in range(len(outer))):
                        continue
                    for t in enumerate_skew_ssyt(outer, inner, max_entry=3):
                        bic = skew_to_mlq(t)
                        rect = rectify_by_mlq(t)
                        assert rect == oracles.jdt_rectify(t)


def test_rectify_trivial():
    t = SkewTableau((2, 1), (), [[1, 2], [2]])
    assert rectify_by_mlq(t) == Tableau([[1, 2], [2]])
    one = SkewTableau((2,), (1,), [[4]])
    assert rectify_by_mlq(one) == Tableau([[4]])


def test_jdt_oracle_known():
    # bottom row [., 2] with [1, 3] above rectifies to [1 2 / 3]
    t = SkewTableau((2, 2), (1,), [[2], [1, 3]])
    assert oracles.jdt_rectify(t).rows == ((1, 2), (3,))


def test_mult_example():
    t1 = Tableau([[1, 3, 3, 4], [2]])
    t2 = Tableau([[1, 2, 2], [2, 3], [4]])
    m1 = mlq_of_tableau(t1, n=4)
    m2 = mlq_of_tableau(t2, n=4)
    result = mult_mlq(m1, m2)
    expected = mlq_of_tableau(
        Tableau([[1, 1, 2, 2, 3, 3, 4], [2, 2], [3], [4]]), n=4
    )
    assert result.queue.trimmed() == expected.trimmed()
    # superstandard subtableau in the bottom-left of the recorder
    lam_conj = conjugate(t1.shape())
    for r, k in enumerate(lam_conj, start=1):
        assert result.recorder.rows[r - 1][:k] == tuple([r] * k)


def test_mult_with_empty():
    m1 = mlq_of_tableau(Tableau([[1, 2], [2]]), n=3)
    empty = MultilineQueue(3, [])
    result = mult_mlq(m1, empty)
    assert result.queue.trimmed() == m1.trimmed()


def test_lr_values():
    assert lr_coefficient((2, 1), (1,), (1, 1)) == 1
    assert lr_coefficient((3, 2), (), (3, 2)) == 1
    assert lr_coefficient((2, 2), (1,), (2, 1)) == 1
    assert lr_coefficient((3, 1), (1,), (2, 1)) == 1
    # an inner shape that does not fit inside the outer one gives zero
    assert lr_coefficient((2,), (1, 1), ()) == 0
    assert skew_schur((2,), (1, 1), 2).is_zero()
    assert skew_schur((3,), (1, 1), 2).is_zero()
    assert skew_schur((2, 1), (2, 1), 2) == QXPolynomial.one(2)
    with pytest.raises(SizeMismatch):
        lr_coefficient((2,), (2,), (2,))


def test_lr_routes_agree():
    # the package's one LR engine under both public names, the paper's
    # collapsing route with every choice of rows for every skew column, and
    # the cell-by-cell filter, on every triple with |lam| <= 6
    for total in range(1, 7):
        for lam in partitions(total):
            for inner_size in range(0, total + 1):
                for mu in partitions(inner_size):
                    for nu in partitions(total - inner_size):
                        a = lr_coefficient(lam, mu, nu)
                        b = lr_coefficient_by_mlq(lam, mu, nu)
                        c = oracles.lr_coefficient_by_filter(lam, mu, nu)
                        d = oracles.lr_coefficient_by_mlq_unpruned(lam, mu, nu)
                        assert a == b == c == d, (lam, mu, nu, a, b, c, d)


# the six triples lam, mu, nu that the benchmark times
BENCH_LR_TRIPLES = [
    ((3, 2, 1), (2, 1), (2, 1)), ((4, 3, 2), (2, 1), (3, 2, 1)),
    ((4, 3, 2, 1), (3, 1), (3, 2, 1)), ((4, 3, 2, 1), (2, 1), (3, 2, 1, 1)),
    ((5, 3, 2), (3, 1), (3, 2, 1)), ((4, 4, 2), (3, 2), (2, 2, 1)),
]


def _count_lr_work(monkeypatch, triples, route=lr_coefficient_by_mlq):
    """Run route on triples, counting the searches for a row's skew columns
    and the picks tried."""
    module = importlib.import_module("mlqkit.collapse")
    work = Counter()

    def counted_combinations(columns, k):
        work["searches"] += 1
        for pick in combinations(columns, k):
            work["picks"] += 1
            yield pick

    monkeypatch.setattr(module, "combinations", counted_combinations)
    return [route(*t) for t in triples], work


def test_lr_by_mlq_fills_only_rows_with_room(monkeypatch):
    # lam/mu/nu = (3,2)/(2,2)/(1): rows 1..3 have room 1, 2, 1 for skew
    # columns 1 and 2.  Row 1 tries {1} and {2}; letter 2 first is not
    # lattice.  Row 2 must take column 2, which needs 2 balls with one row
    # left, so it tries only {1} beside it; row 3 then tries {2}.
    values, work = _count_lr_work(monkeypatch, [((3, 2), (2, 2), (1,))])
    assert values == [1]
    assert work == {"searches": 3, "picks": 4}
    # the benchmark's six triples: 45 picks, where every choice of rows for
    # every skew column gives 147 candidates
    values, work = _count_lr_work(monkeypatch, BENCH_LR_TRIPLES)
    assert values == [2, 2, 3, 2, 2, 1]
    assert work == {"searches": 33, "picks": 45}


def test_lr_coefficient_is_the_mask_search(monkeypatch):
    # one LR engine: lr_coefficient in its skew form c^lam_{mu,nu} and in
    # its product form lr_coefficient(mu, nu, lam) runs the same searches
    # and picks as lr_coefficient_by_mlq on the benchmark's triples
    expected = _count_lr_work(monkeypatch, BENCH_LR_TRIPLES)
    assert expected[1] == {"searches": 33, "picks": 45}
    assert _count_lr_work(monkeypatch, BENCH_LR_TRIPLES, lr_coefficient) == expected
    product_form = [(mu, nu, lam) for lam, mu, nu in BENCH_LR_TRIPLES]
    assert _count_lr_work(monkeypatch, product_form, lr_coefficient) == expected


def test_lr_by_mlq_frontier(monkeypatch):
    # the two frontier rows; on the second, placing whole skew columns and
    # testing each finished queue afterwards takes 4 630 picks
    assert lr_coefficient_by_mlq((6, 5, 4, 3, 2, 1), (4, 3, 2, 1), (5, 3, 2, 1)) == 24
    assert lr_coefficient((6, 5, 4, 3, 2, 1), (4, 3, 2, 1), (5, 3, 2, 1)) == 24
    triple = ((8, 7, 6, 5, 4, 3, 2, 1), (4, 3, 2, 1), (7, 6, 5, 4, 3, 1))
    assert lr_coefficient(*triple) == 120
    values, work = _count_lr_work(monkeypatch, [triple])
    assert values == [120]
    assert work["picks"] <= 368, work


def test_lr_by_mlq_agrees_to_eight():
    # the collapsing route against the cell-by-cell filter on every triple
    # with |lam| <= 8, 6 829 of them
    seen = 0
    for total in range(1, 9):
        for lam in partitions(total):
            for inner_size in range(0, total + 1):
                for mu in partitions(inner_size):
                    for nu in partitions(total - inner_size):
                        a = oracles.lr_coefficient_by_filter(lam, mu, nu)
                        assert lr_coefficient_by_mlq(lam, mu, nu) == a, (lam, mu, nu, a)
                        seen += 1
    assert seen == 6829


def _inside(outer, size):
    """The partitions of size whose diagrams lie inside the one of outer."""
    return [
        p for p in partitions(size)
        if len(p) <= len(outer) and all(a <= b for a, b in zip(p, outer))
    ]


@st.composite
def lr_triples(draw):
    # mu and nu inside lam, where the coefficient can be nonzero
    lam = draw(st.sampled_from([lam for size in range(1, 11) for lam in partitions(size)]))
    mu = draw(st.sampled_from([mu for k in range(sum(lam) + 1) for mu in _inside(lam, k)]))
    return lam, mu, draw(st.sampled_from(_inside(lam, sum(lam) - sum(mu))))


@given(lr_triples())
def test_lr_by_mlq_random(triple):
    # past the exhaustive range above: |lam| up to 10; the filter oracle
    # only where the words of content nu, which bound the fillings it
    # lists, number at most 100 000, and the unpruned oracle only where it
    # tries at most 2 000 row choices
    lam, mu, nu = triple
    c = lr_coefficient_by_mlq(*triple)
    if factorial(sum(nu)) // prod(map(factorial, nu)) <= 100_000:
        assert c == oracles.lr_coefficient_by_filter(*triple), triple
    if prod(comb(lam[0], k) for k in mu) <= 2000:
        assert c == oracles.lr_coefficient_by_mlq_unpruned(*triple), triple


def test_lr_symmetries():
    # c^lam_{mu,nu} = c^lam_{nu,mu} = c^{lam'}_{mu',nu'}, and the product
    # form c^lam_{mu,nu} = lr_coefficient(mu, nu, lam), for every |lam| <= 7
    for total in range(0, 8):
        for lam in partitions(total):
            for inner_size in range(0, total + 1):
                for mu in partitions(inner_size):
                    for nu in partitions(total - inner_size):
                        c = lr_coefficient(lam, mu, nu)
                        assert lr_coefficient(lam, nu, mu) == c, (lam, mu, nu)
                        conj = lr_coefficient(conjugate(lam), conjugate(mu), conjugate(nu))
                        assert conj == c, (lam, mu, nu)
                        assert lr_coefficient(mu, nu, lam) == c, (lam, mu, nu)


def test_lr_frontier_value():
    # a frontier value, fast because the mask search drops a row as soon as
    # it breaks the lattice rule or does not park into the row below,
    # instead of filtering every skew tableau of content nu
    assert lr_coefficient((8, 7, 6, 5, 4, 3, 2, 1), (4, 3, 2, 1), (7, 6, 5, 4, 3, 1)) == 120


def test_skew_schur_is_the_tableau_sum():
    # s_{lam/mu} through c^lam_{mu,nu} s_nu equals the content sum over the
    # skew tableaux filled cell by cell
    for size in range(0, 7):
        for lam in partitions(size):
            for inner_size in range(0, 4):
                for mu in partitions(inner_size):
                    for n in range(1, 5):
                        expected = oracles.skew_schur_by_tableaux(lam, mu, n)
                        assert skew_schur(lam, mu, n) == expected, (lam, mu, n)


def test_skew_schur_is_the_lr_expansion():
    # s_{lam/mu} = sum over nu of c^lam_{mu,nu} s_nu (Littlewood-Richardson)
    # against the skew Kostka sweep, for |lam| <= 7, |mu| <= 3 and n <= 4
    schurs = {}
    for size in range(0, 8):
        for lam in partitions(size):
            for inner_size in range(0, min(size, 3) + 1):
                for mu in partitions(inner_size):
                    for n in range(1, 5):
                        expected = QXPolynomial.zero(n)
                        for nu in partitions(size - inner_size):
                            c = lr_coefficient(lam, mu, nu)
                            if c:
                                if (nu, n) not in schurs:
                                    schurs[nu, n] = oracles.schur_by_ssyt(nu, n)
                                expected = expected + schurs[nu, n] * c
                        assert skew_schur(lam, mu, n) == expected, (lam, mu, n)


@st.composite
def skew_shape_on_ring(draw):
    lam = draw(st.sampled_from([lam for size in range(0, 10) for lam in partitions(size)]))
    mu = draw(st.sampled_from([
        mu for size in range(0, min(sum(lam), 4) + 1) for mu in partitions(size)
        if len(mu) <= len(lam) and all(m <= l for m, l in zip(mu, lam))
    ]))
    return lam, mu, draw(st.integers(1, 6))


@settings(max_examples=25)
@given(skew_shape_on_ring())
def test_skew_schur_random(case):
    # past the exhaustive range above: |lam| up to 9 and up to 6 variables
    lam, mu, n = case
    assert skew_schur(lam, mu, n) == oracles.skew_schur_by_tableaux(lam, mu, n)


def test_mult_shape_distribution():
    # multiset of product shapes matches the LR decomposition
    lam, mu, n = (2, 1), (1,), 3
    by_shape = {}
    for m1 in enumerate_mlq(lam, n):
        if not is_nonwrapping(m1):
            continue
        for m2 in enumerate_mlq(mu, n):
            if not is_nonwrapping(m2):
                continue
            nu = mult_mlq(m1, m2).queue.trimmed().shape()
            by_shape[nu] = by_shape.get(nu, 0) + 1
    for nu, count in by_shape.items():
        c = lr_coefficient(nu, lam, mu)
        size = sum(
            1 for m in enumerate_mlq(nu, n) if is_nonwrapping(m)
        )
        assert count == c * size


def test_parse_tableau():
    text = "1 1 1 2 / 2 2 3 5 / 3 4 / 4"
    t = parse_tableau(text)
    assert t.rows == ((1, 1, 1, 2), (2, 2, 3, 5), (3, 4), (4,))
    assert parse_tableau(t.to_text()) == t
    assert parse_tableau(t.to_json()) == t
    with pytest.raises(ParseError):
        parse_tableau("2 1")


@pytest.mark.parametrize("rows", [[[1.5, 2]], [[True]], [["a"]], [[0]], [[-2]]])
def test_rejects_entries_that_are_not_positive_ints(rows):
    with pytest.raises(ParseError):
        Tableau(rows)
    with pytest.raises(ParseError):
        SkewTableau((len(rows[0]),), (), rows)
    with pytest.raises(ParseError):
        SkewTableau((len(rows[0]) + 1,), (1,), rows)


@pytest.mark.parametrize("outer, inner, rows", [
    ((1, 2), (), [[1], [2, 3]]),  # outer is not a partition
    ((2, 1), (0, 1), [[1, 2], []]),  # inner is not a partition
    ((2, 1), (1, False), [[2], [1]]),  # a bool is no padding zero
    ((2, 1), (1, 0.0), [[2], [1]]),  # nor is a float
    ((2, 1), (1,), [[2, 3], [1]]),  # row 1 holds one cell, not two
    ((2,), (3,), [[]]),  # inner is not inside outer
    ((2, 1), (), [[1, 2]]),  # one segment missing
])
def test_skew_tableau_rejects_bad_shapes(outer, inner, rows):
    with pytest.raises(ParseError):
        SkewTableau(outer, inner, rows)


def hook_content_count(lam, n):
    """The number of semistandard tableaux of shape lam with entries at most
    n: the product over the cells of (n + content) / hook length."""
    cols = conjugate(lam)
    num = den = 1
    for i, length in enumerate(lam):
        for j in range(length):
            num *= n + j - i
            den *= (length - j) + (cols[j] - i) - 1
    return num // den


def weak_compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def test_straight_and_skew_enumerators_agree():
    # one strip engine serves both; with an empty inner shape the skew
    # enumerator yields the straight tableaux' rows, compared as multisets
    for size in range(0, 7):
        for lam in partitions(size):
            for n in range(1, 5):
                straight = Counter(t.rows for t in enumerate_ssyt(lam, max_entry=n))
                skew = Counter(t.rows for t in enumerate_skew_ssyt(lam, (), max_entry=n))
                assert straight == skew, (lam, n)
                assert sum(straight.values()) == hook_content_count(lam, n), (lam, n)
                by_weight = Counter(
                    t.rows for w in weak_compositions(size, n)
                    for t in enumerate_ssyt(lam, weight=w)
                )
                assert by_weight == straight, (lam, n)


INNERS = [mu for size in range(0, 3) for mu in partitions(size)]


def test_strip_chains_match_the_cell_oracle():
    # straight and skew tableaux of every lam with |lam| <= 6 and inner
    # shape of size <= 2, with entries at most 0..4 and with every weight of
    # at most 4 letters, equal the cell-by-cell fillings as multisets; they
    # come in lexicographic order of their chains, the shapes after letters
    # 1, 2, ..., for free letters as for fixed sizes
    for size in range(0, 7):
        for lam in partitions(size):
            for mu in INNERS:
                bounds = [{"max_entry": top} for top in range(5)] + [
                    {"weight": w}
                    for parts in range(5)
                    for w in weak_compositions(max(size - sum(mu), 0), parts)
                ]
                for bound in bounds:
                    expected = Counter(oracles.ssyt_rows_by_cells(lam, mu, **bound))
                    rows = [t.rows for t in enumerate_skew_ssyt(lam, mu, **bound)]
                    assert Counter(rows) == expected, (lam, mu, bound)
                    top = bound.get("max_entry") or len(bound.get("weight", ()))
                    chains = [
                        [tuple(sum(v <= k for v in row) for row in r) for k in range(1, top + 1)]
                        for r in rows
                    ]
                    assert chains == sorted(chains), (lam, mu, bound)
                    if not mu:
                        straight = Counter(t.rows for t in enumerate_ssyt(lam, **bound))
                        assert straight == expected, (lam, bound)


def test_strips_give_every_tableau_of_a_content():
    # every weak composition of at most 4 parts, and every composition
    # without zeros, of each size up to 7, against the cell-by-cell fillings
    contents = [
        c for size in range(0, 8) for parts in range(0, size + 1)
        for c in weak_compositions(size, parts) if parts <= 4 or 0 not in c
    ]
    for c in contents:
        by_shape = Counter(
            rows for lam in partitions(sum(c))
            for rows in oracles.ssyt_rows_by_cells(lam, weight=c)
        )
        for width in range(1, 6):
            # the box of len(c) rows of width cells, its empty rows dropped
            expected = Counter({
                rows: k for rows, k in by_shape.items() if not rows or len(rows[0]) <= width
            })
            box = _strip_chains(c, (width,) * len(c), (0,) * len(c))
            found = Counter(tuple(r for r in rows if r) for rows in box)
            assert found == expected, (c, width)


def test_skew_tableau_rebuilds_itself():
    # inner is stored padded with zeros; the constructor takes it back
    t = SkewTableau((2, 1), (1,), [(1,), (2,)])
    assert t.inner == (1, 0)
    assert SkewTableau(t.outer, t.inner, t.rows) == t
    assert SkewTableau((2, 1), (1, 0, 0), [(1,), (2,)]) == t
    assert SkewTableau((1,), (0,), [(1,)]) == SkewTableau((1,), (), [(1,)])


@pytest.mark.parametrize("bounds", [
    {},
    {"max_entry": 1.5},
    {"max_entry": True},
    {"max_entry": -1},
    {"weight": (3, -1)},
    {"weight": (1.5, 0.5)},
    {"max_entry": 2, "weight": (1, 1)},
])
def test_ssyt_rejects_bad_bounds(bounds):
    # weight=(3, -1) used to yield tableaux whose content is not the weight
    with pytest.raises(ParseError):
        list(enumerate_ssyt((2,), **bounds))
    with pytest.raises(ParseError):
        list(enumerate_skew_ssyt((2, 1), (1,), **bounds))


def _padded_inside(outer):
    """The partitions inside outer, each padded with zeros to its length."""
    return [rho + (0,) * (len(outer) - len(rho)) for rho in _shapes_inside(outer)]


def _interlacing(outer, shape):
    """Every new inside outer with new/shape a horizontal strip, shape_i <=
    new_i <= min(outer_i, shape_{i-1}), in lexicographic order."""
    tops = [min(o, s) for o, s in zip(outer, (outer[0] if outer else 0,) + shape)]
    return list(product(*(range(s, t + 1) for s, t in zip(shape, tops))))


def _ones(outer):
    """A kernel table that weighs every strip 1."""
    top = outer[0] if outer else 0
    return [[1] * (top + 1) for _ in range(top + 1)]


def test_strips_are_the_bounded_growths_in_order():
    # with size, every new between shape and its rooms that adds size
    # cells, in lexicographic order
    for outer in _shapes_inside((3, 3, 3, 3)):
        for shape in _padded_inside(outer):
            growths = _interlacing(outer, shape)
            for size in range(8):
                expected = [new for new in growths if sum(new) - sum(shape) == size]
                got = _strips(outer, shape, _ones(outer), size)
                assert set(got) <= {size}, (outer, shape, size)
                assert [new for new, w in got.get(size, [])] == expected, (outer, shape, size)
                assert all(w == 1 for _, w in got.get(size, [])), (outer, shape, size)


# bits per packed coefficient of psi in the kernel checks below; every
# coefficient there is far smaller than 2^KERNEL_WIDTH
KERNEL_WIDTH = 32


def _psi_by_rows(shape, new):
    """psi_{new/shape}(q, 0) as coefficients, lowest degree first: the
    product of the rows' [new_i - new_{i+1} choose new_i - shape_i]_q, each
    counted as subsets (``oracles.q_binomial_by_subsets``), multiplied out
    as {degree: coefficient}."""
    out = Counter({0: 1})
    for v, low, below in zip(new, shape, new[1:] + (0,)):
        factor = oracles.q_binomial_by_subsets(v - below, v - low)
        product_ = Counter()
        for i, a in out.items():
            for j, b in factor.items():
                product_[i + j] += a * b
        out = product_
    return [out[e] for e in range(max(out) + 1)]


def _check_kernel(outer, shape):
    # every interlacing new, bucketed by size, each with its psi; each
    # bucket alone with size
    top = outer[0] if outer else 0
    table = [
        [
            sum(c << e * KERNEL_WIDTH for e, c in oracles.q_binomial_by_subsets(a, b).items())
            for a in range(top + 1)
        ]
        for b in range(top + 1)
    ]
    expected = {}
    for new in _interlacing(outer, shape):
        expected.setdefault(sum(new) - sum(shape), []).append((new, _psi_by_rows(shape, new)))
    got = _strips(outer, shape, table)
    unpacked = {k: [(new, _unpacked(w, KERNEL_WIDTH)) for new, w in v] for k, v in got.items()}
    assert unpacked == expected, (outer, shape)
    for size, strips in got.items():
        assert _strips(outer, shape, table, size) == {size: strips}, (outer, shape, size)


def test_strip_kernel_is_every_interlacing_shape_with_its_psi():
    for outer in _shapes_inside((4, 4, 4, 4)):
        for shape in _padded_inside(outer):
            _check_kernel(outer, shape)


@st.composite
def kernel_shapes(draw):
    # up to 8 rows of up to 9 cells, past the exhaustive range above; the
    # rooms of a strip sum to at most outer_1, so the oracle stays small
    parts = draw(st.lists(st.integers(1, 9), min_size=1, max_size=8))
    outer = tuple(sorted(parts, reverse=True))
    shape, above = [], outer[0]
    for o in outer:
        above = draw(st.integers(0, min(o, above)))
        shape.append(above)
    return outer, tuple(shape)


@settings(max_examples=40)
@given(kernel_shapes())
def test_strip_kernel_random(case):
    _check_kernel(*case)


def _shapes_inside(outer):
    """The partitions that lie inside outer."""
    return [
        rho
        for size in range(sum(outer) + 1)
        for rho in partitions(size)
        if len(rho) <= len(outer) and all(a <= b for a, b in zip(rho, outer))
    ]


def test_kostka_sweep_counts_the_fillings():
    # the sweep of outer/inner lists every nu with at most n parts and a
    # nonzero skew Kostka number K_{outer/inner,nu}, and only those, each
    # with the cell oracle's count as the coefficient of q^0 m_nu
    for outer_size in range(8):
        for outer in partitions(outer_size):
            for inner in _shapes_inside(outer):
                if sum(inner) > 2:
                    continue
                counts = {
                    nu: sum(1 for _ in oracles.ssyt_rows_by_cells(outer, inner, weight=nu))
                    for nu in partitions(outer_size - sum(inner))
                }
                for n in range(5):
                    expected = {(0, nu): k for nu, k in counts.items() if k and len(nu) <= n}
                    assert _kostka_sweep(outer, inner, n) == expected, (outer, inner, n)
