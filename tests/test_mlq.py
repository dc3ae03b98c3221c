from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_collapse import binary_matrices

import oracles
from mlqkit.charge import charge, charge_g
from mlqkit.core import conjugate, partitions
from mlqkit.errors import NotStraight, ParseError, TooNarrow
from mlqkit.matching import _mask, _match_rows
from mlqkit.mlq import (
    MultilineQueue,
    _label_layer,
    _label_masks,
    _wrap_lists,
    biwords,
    canonical_mlq,
    column_word,
    count_mlq,
    enumerate_gmlq,
    enumerate_mlq,
    is_nonwrapping,
    label_gmlq,
    label_mlq,
    maj,
    maj_g,
    parse_mlq,
    projection,
    row_word,
    sigma,
    stationary_counts,
)

LABEL_EXAMPLE = MultilineQueue(6, [[1, 2, 3, 4], [1, 3, 5, 6], [2, 3], [3, 5]])
COLLAPSE_EXAMPLE = MultilineQueue(5, [[1, 3, 4], [1, 4, 5], [2, 5], [1, 3], [4]])
GMLQ_EXAMPLE = MultilineQueue(4, [[2, 3], [1, 4], [2, 3, 4]])


def test_row_word():
    assert row_word(LABEL_EXAMPLE) == (1, 2, 3, 4, 1, 3, 5, 6, 2, 3, 3, 5)
    assert row_word(MultilineQueue(6, [[2, 5]])) == (2, 5)
    assert row_word(COLLAPSE_EXAMPLE) == (1, 3, 4, 1, 4, 5, 2, 5, 1, 3, 4)


def test_column_word():
    assert column_word(LABEL_EXAMPLE) == (2, 1, 3, 1, 4, 3, 2, 1, 1, 4, 2, 2)
    assert column_word(MultilineQueue(3, [])) == ()


def test_biwords():
    row_bw, col_bw = biwords(LABEL_EXAMPLE)
    assert row_bw[0] == (1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 4, 4)
    assert row_bw[1] == row_word(LABEL_EXAMPLE)
    assert col_bw[0] == (1, 1, 2, 2, 3, 3, 3, 3, 4, 5, 5, 6)
    assert col_bw[1] == column_word(LABEL_EXAMPLE)


def test_biword_bottom_rows_generic():
    for m in enumerate_mlq((2, 1), 3):
        row_bw, col_bw = biwords(m)
        assert row_bw[1] == row_word(m)
        assert col_bw[1] == column_word(m)


def test_fm_pairing_example():
    _, pairings = label_mlq(LABEL_EXAMPLE)
    assert Counter(pairings) == Counter(
        [
            (4, 4, 0),
            (4, 4, 1),
            (3, 4, 0),
            (3, 4, 0),
            (2, 4, 0),
            (2, 4, 1),
            (2, 2, 0),
            (2, 2, 1),
        ]
    )


def test_fm_one_row():
    labels, pairings = label_mlq(MultilineQueue(4, [[2, 4]]))
    assert labels == {(1, 2): 1, (1, 4): 1}
    assert pairings == []


def test_fm_not_straight():
    with pytest.raises(NotStraight):
        label_mlq(MultilineQueue(3, [[1], [1, 2]]))


def test_fm_matching_agreement():
    for lam in [(2,), (1, 1), (2, 1), (2, 2), (3, 1)]:
        for n in (2, 3):
            if conjugate(lam)[0] > n:
                continue
            for m in enumerate_mlq(lam, n):
                labels_a, pairings = label_mlq(m)
                labels_b, wraps = oracles.label_mlq_by_matching(m)
                assert labels_a == labels_b
                wrap_counts = Counter(
                    (lab, r) for r, lab, delta in pairings if delta
                )
                assert wrap_counts == Counter(wraps)


def test_maj_examples():
    assert maj(LABEL_EXAMPLE) == 5
    assert maj(COLLAPSE_EXAMPLE) == 4
    assert maj(MultilineQueue(5, [[1, 2, 5]])) == 0


def test_nonwrapping():
    assert is_nonwrapping(canonical_mlq((3, 2), 4))
    assert not is_nonwrapping(LABEL_EXAMPLE)


def test_parks_without_wrap_is_nonwrapping_exhaustive():
    # on straight queues no ball wraps exactly when every row matches fully
    # into the row below
    checked = 0
    for size in range(0, 7):
        for lam in partitions(size):
            for n in range(1, 6):
                for m in enumerate_mlq(lam, n) if len(lam) <= n else ():
                    parks = all(
                        not _match_rows(_mask(m.row(r + 1)), _mask(m.row(r)))[0]
                        for r in range(1, m.num_rows)
                    )
                    assert parks == is_nonwrapping(m), m
                    checked += 1
    assert checked > 0


def test_parks_without_wrap_is_full_matching_exhaustive():
    # the mask kernel leaves no ball of the upper row unmatched on exactly
    # the pairs where the set matcher of the oracles does, and those are
    # the pairs that park: every suffix of columns holds at least as many
    # balls of the lower row as of the upper one
    subsets = [set(s) for k in range(8) for s in combinations(range(1, 8), k)]
    for upper in subsets:
        for lower in subsets:
            _, opens, _, _ = oracles._two_row_match(upper, lower)
            matched = not _match_rows(_mask(upper), _mask(lower))[0]
            parks = all(
                sum(c >= k for c in lower) >= sum(c >= k for c in upper)
                for k in range(1, 8)
            )
            assert matched == (not opens) == parks


def test_canonical_mlq():
    assert canonical_mlq((2, 1), 3).rows == ((1, 2), (1,))
    with pytest.raises(TooNarrow):
        canonical_mlq((1, 1, 1), 2)
    for size in range(9):
        for lam in partitions(size):
            n = len(lam) if lam else 1
            assert maj(canonical_mlq(lam, n)) == 0


def test_projection_example():
    assert projection(LABEL_EXAMPLE) == (4, 2, 4, 2, 0, 0)
    assert projection(MultilineQueue(5, [[3]])) == (0, 0, 1, 0, 0)


def test_projection_sigma_invariant():
    for m in enumerate_gmlq((1, 2), 3):
        assert projection(m) == projection(sigma(m, 1))


def test_maj_charge_cw():
    assert charge(column_word(LABEL_EXAMPLE)) == 5
    for lam in partitions(5):
        n = max(3, len(lam))
        if conjugate(lam)[0] > n:
            continue
        for m in enumerate_mlq(lam, n):
            assert maj(m) == charge(column_word(m))


def test_stationary_counts():
    counts = stationary_counts((1,), 2)
    assert counts == {(1, 0): 1, (0, 1): 1}
    counts = stationary_counts((2, 1), 3)
    assert sum(counts.values()) == 9 == count_mlq((2, 1), 3)
    for state, k in counts.items():
        rotated = state[-1:] + state[:-1]
        assert counts[rotated] == k


def test_gmlq_pairing_figure():
    # one labelled row above B_i = {1, 5}: labels w = 2 5 4 2 4 2 give
    # row-i labels (4, 3, 1, 1, 5, 1)
    m = MultilineQueue(6, [[1, 5], [2, 3, 5]])
    labels, _, _ = label_gmlq(m)
    # overwrite the top row labels with the figure's word by faking the row:
    # instead drive the pairing directly through a two-row queue whose top
    # row produces that label word.
    assert labels  # smoke; the real check is below


def test_gmlq_label_row_step():
    # one labelling step with a prescribed word above
    word = (2, 5, 4, 2, 4, 2)
    assert _label_layer(word, 2, [(1, 5)], {}) == [(4, 3, 1, 1, 5, 1)]


def test_label_layer_matches_scan():
    # the layer kernel's labels against the one-site-at-a-time scan, on
    # every word over {0..3} and every ball set; one table of filled-in
    # rows serves every word of a layer, as in stationary_counts
    for n in range(1, 6):
        for size in range(n + 1):
            rows = list(combinations(range(1, n + 1), size))
            prefilled = {}
            for word in product(range(4), repeat=n):
                labelled = _label_layer(word, size, rows, prefilled)
                assert labelled == [oracles.label_row_by_scan(word, row)[0] for row in rows]


def _check_wrap_lists(word, row):
    labels, plus, minus = oracles.label_row_by_scan(word, row)
    assert _label_layer(word, len(row), [row], {}) == [labels]
    sources = _label_masks(word)
    assert sources == _masks_by_label(word, max(word) + 2)
    assert _wrap_lists(sources, labels, row) == (
        plus, minus, _masks_by_label(labels, len(sources))
    ), (word, row)


def _masks_by_label(word, slots):
    """The mask of the columns of each label l of word at index l + 1."""
    return [
        sum(1 << c for c, lab in enumerate(word, start=1) if lab == slot - 1)
        for slot in range(slots)
    ]


def test_wrap_lists_match_scan():
    # the wraps that _label_rows matches out of the kernel's labels are the
    # scan's, in pairing order, on every word over {0..3} and every ball set;
    # the masks handed down to the next row are the labels' own
    for n in range(1, 6):
        for size in range(n + 1):
            for row in combinations(range(1, n + 1), size):
                for word in product(range(4), repeat=n):
                    _check_wrap_lists(word, row)


@st.composite
def word_and_row(draw):
    n = draw(st.integers(1, 8))
    word = tuple(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
    row = sorted(draw(st.sets(st.integers(1, n))))
    return word, tuple(row)


@settings(max_examples=300, deadline=None)
@given(word_and_row())
def test_wrap_lists_match_scan_random(case):
    _check_wrap_lists(*case)


def test_label_row_commutes_with_rotation():
    # the fact that lets stationary_counts keep one state per rotation
    # class: turning the ring one site turns the labels of the row below
    for n in range(1, 6):
        for size in range(n + 1):
            rows = list(combinations(range(1, n + 1), size))
            turned_rows = [sorted(c - 1 if c > 1 else n for c in row) for row in rows]
            for word in product(range(4), repeat=n):
                turned = word[1:] + word[:1]
                labelled = _label_layer(word, size, rows, {})
                turned_labelled = _label_layer(turned, size, turned_rows, {})
                for row, labels, turned_labels in zip(rows, labelled, turned_labelled):
                    assert turned_labels == labels[1:] + labels[:1], (word, row)


def test_gmlq_example_labels():
    labels, _, _ = label_gmlq(GMLQ_EXAMPLE)
    assert tuple(labels[(3, c)] for c in range(1, 5)) == (2, 3, 3, 3)
    assert tuple(labels[(2, c)] for c in range(1, 5)) == (3, 2, 1, 3)
    assert tuple(labels[(1, c)] for c in range(1, 5)) == (0, 3, 3, 1)


def test_gmlq_straight_restriction():
    for lam in [(2,), (2, 1), (2, 2), (3, 1)]:
        for m in enumerate_mlq(lam, 3):
            gen_labels, _, _ = label_gmlq(m)
            fm_labels, _ = oracles.label_mlq_by_matching(m)
            for key, lab in fm_labels.items():
                assert gen_labels[key] == lab
            for r in range(1, m.num_rows + 1):
                for c in range(1, m.n + 1):
                    if c not in m.row(r):
                        assert gen_labels[(r, c)] == r - 1


def test_maj_g_examples():
    assert maj_g(GMLQ_EXAMPLE) == 2
    assert maj_g(sigma(GMLQ_EXAMPLE, 2)) == 2
    assert maj_g(sigma(sigma(GMLQ_EXAMPLE, 2), 1)) == 2


def test_maj_g_straight_equals_maj():
    for lam in partitions(5):
        n = max(3, len(lam))
        if conjugate(lam)[0] > n:
            continue
        for m in enumerate_mlq(lam, n):
            assert maj_g(m) == maj(m) == oracles.maj(m)


def test_sigma_examples():
    assert sigma(GMLQ_EXAMPLE, 2).rows == ((2, 3), (1, 2, 4), (3, 4))
    assert sigma(sigma(GMLQ_EXAMPLE, 2), 1).rows == ((2, 3, 4), (1, 2), (3, 4))
    same = MultilineQueue(3, [[1, 2], [2, 3]])
    assert sigma(same, 1) == same


def test_sigma_coxeter():
    for m in oracles.all_binary_matrices(3, 3):
        assert sigma(sigma(m, 1), 1) == m
        assert sigma(sigma(m, 2), 2) == m
        lhs = sigma(sigma(sigma(m, 1), 2), 1)
        rhs = sigma(sigma(sigma(m, 2), 1), 2)
        assert lhs == rhs


def test_sigma_commute_far():
    for m in oracles.all_binary_matrices(4, 2):
        assert sigma(sigma(m, 1), 3) == sigma(sigma(m, 3), 1)


def test_sigma_preserves_labels_off_swapped_row():
    for m in oracles.all_binary_matrices(3, 3):
        base, _, _ = label_gmlq(m)
        for i in (1, 2):
            other, _, _ = label_gmlq(sigma(m, i))
            for (r, c), lab in base.items():
                if r != i + 1:
                    assert other[(r, c)] == lab


def _maj_g_is_charge_g_and_sigma_invariant(m):
    base = maj_g(m)
    assert base == charge_g(column_word(m)), m
    for i in range(1, m.num_rows):
        assert maj_g(sigma(m, i)) == base, (m, i)


def test_maj_g_sigma_invariant_and_charge_cw():
    # the paper's composition-indexed statistic: maj_g is charge_g of the
    # column word and is invariant under every sigma_i, on every binary
    # matrix of 3 x 3, 3 x 4 and 4 x 3 (8 704 matrices)
    for num_rows, n in [(3, 3), (3, 4), (4, 3)]:
        for m in oracles.all_binary_matrices(num_rows, n):
            _maj_g_is_charge_g_and_sigma_invariant(m)


@given(binary_matrices())
def test_maj_g_sigma_invariant_and_charge_cw_random(m):
    # matrices up to 6 x 6
    _maj_g_is_charge_g_and_sigma_invariant(m)


def test_energy_example():
    levels = oracles.energy_levels(GMLQ_EXAMPLE)
    assert levels[(3, 3)] == 1
    assert levels[(2, 3)] == 1
    assert sum(v for k, v in levels.items() if k not in {(3, 3), (2, 3)}) == 0
    assert oracles.energy_h(GMLQ_EXAMPLE) == 2


def test_energy_equals_maj_g():
    for m in oracles.all_binary_matrices(3, 4):
        assert oracles.energy_h(m) == maj_g(m)
    assert oracles.energy_h(MultilineQueue(3, [[1, 3]])) == 0


def test_enumerate_counts():
    assert len(list(enumerate_mlq((2,), 2))) == 4
    assert [m.rows for m in enumerate_mlq((1, 1), 2)] == [((1, 2),)]
    assert len(list(enumerate_mlq((2, 1), 3))) == 9
    with pytest.raises(TooNarrow):
        list(enumerate_gmlq((3,), 2))
    with pytest.raises(TooNarrow):
        list(enumerate_mlq((1, 1, 1), 2))
    # count_mlq((1, 1, 1), 2) used to return 0
    with pytest.raises(TooNarrow):
        count_mlq((1, 1, 1), 2)


@pytest.mark.parametrize("n", [0, True, 1.5, -1])
def test_count_mlq_rejects_bad_column_count(n):
    # count_mlq((1,), n) used to give 0, 1, TypeError and ValueError
    with pytest.raises(ParseError):
        count_mlq((1,), n)
    with pytest.raises(ParseError):
        list(enumerate_mlq((1,), n))


def test_serialization_round_trip():
    for m in (LABEL_EXAMPLE, COLLAPSE_EXAMPLE, GMLQ_EXAMPLE):
        assert parse_mlq(m.to_text()) == m
        assert parse_mlq(m.to_json()) == m
    assert LABEL_EXAMPLE.to_text() == "n=6;1,2,3,4|1,3,5,6|2,3|3,5"
    with pytest.raises(ParseError):
        parse_mlq("1,2|3")
    for rows in ([[True]], [[2.5]], [[0]], [[4]]):
        with pytest.raises(ParseError):
            MultilineQueue(3, rows)
