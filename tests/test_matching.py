from itertools import product

from hypothesis import given
from hypothesis import strategies as st

import oracles
from mlqkit.core import content
from mlqkit.matching import (
    _columns,
    _high_bits,
    _mask,
    _match_rows,
    bracket_match,
    lowering,
    raise_all,
    raising,
    reflect,
)
from mlqkit.mlq import MultilineQueue, sigma

PAPER_WORD = (3, 1, 2, 2, 1, 4, 3, 4, 2, 1, 3, 1, 2, 3, 2)


def test_classical_match_paper_example():
    m = bracket_match(PAPER_WORD, 1)
    assert m.unmatched_closes == (2,)
    assert m.unmatched_opens == (13, 15)


def test_cyclic_match_paper_example():
    m = bracket_match(PAPER_WORD, 1, cyclic=True)
    assert m.wrapping_pairs == ((15, 2),)
    assert m.unmatched_opens == (13,)
    assert m.unmatched_closes == ()


def test_match_one_two():
    classical = bracket_match((1, 2), 1)
    assert classical.matched_pairs == ()
    assert classical.unmatched_opens == (2,)
    assert classical.unmatched_closes == (1,)
    cyclic = bracket_match((1, 2), 1, cyclic=True)
    assert cyclic.wrapping_pairs == ((2, 1),)


def test_raising():
    assert raising(PAPER_WORD, 1) == (3, 1, 2, 2, 1, 4, 3, 4, 2, 1, 3, 1, 1, 3, 2)
    assert raising((1, 1), 1) == (1, 1)
    # 2 followed by 1 is a matched pair, so nothing flips
    assert raising((2, 1), 1) == (2, 1)
    assert raising((1, 2), 1) == (1, 1)


def test_lowering():
    assert lowering(PAPER_WORD, 1) == (3, 2, 2, 2, 1, 4, 3, 4, 2, 1, 3, 1, 2, 3, 2)
    assert lowering((2, 2), 1) == (2, 2)


def test_raise_all():
    assert raise_all((2, 1, 2, 2), 1) == (2, 1, 1, 1)
    assert raise_all((1, 2), 1) == (1, 1)
    assert raise_all((2, 1), 1) == (2, 1)


def test_reflect_examples():
    assert reflect(PAPER_WORD, 1) == (3, 1, 2, 2, 1, 4, 3, 4, 2, 1, 3, 1, 1, 3, 2)
    assert reflect((1, 2), 1) == (1, 2)


def all_words(length, alphabet):
    return product(range(1, alphabet + 1), repeat=length)


def test_inverse_property_exhaustive():
    for length in range(1, 9):
        for w in all_words(length, 3):
            for i in (1, 2):
                up = raising(w, i)
                if up != w:
                    assert lowering(up, i) == w
                down = lowering(w, i)
                if down != w:
                    assert raising(down, i) == w


def test_reflect_involution_and_idempotence():
    for length in range(1, 8):
        for w in all_words(length, 3):
            for i in (1, 2):
                assert reflect(reflect(w, i), i) == w
                once = raise_all(w, i)
                assert raise_all(once, i) == once


def test_wrapping_count():
    for length in range(1, 8):
        for w in all_words(length, 3):
            classical = bracket_match(w, 1)
            cyclic = bracket_match(w, 1, cyclic=True)
            expected = min(
                len(classical.unmatched_opens), len(classical.unmatched_closes)
            )
            assert len(cyclic.wrapping_pairs) == expected
            assert not (cyclic.unmatched_opens and cyclic.unmatched_closes)


def test_reflect_is_cyclic_flip():
    for length in range(1, 8):
        for w in all_words(length, 3):
            for i in (1, 2):
                m = bracket_match(w, i, cyclic=True)
                flipped = list(w)
                for pos in m.unmatched_opens:
                    flipped[pos - 1] = i
                for pos in m.unmatched_closes:
                    flipped[pos - 1] = i + 1
                assert tuple(flipped) == reflect(w, i)


def test_reflect_content():
    def padded(w):
        c = list(content(w))
        return c + [0] * (5 - len(c))

    for length in range(1, 7):
        for w in all_words(length, 3):
            for i in (1, 2):
                before = padded(w)
                after = padded(reflect(w, i))
                before[i - 1], before[i] = before[i], before[i - 1]
                assert before == after


@st.composite
def row_pairs(draw):
    """Two ball sets on n <= 20 columns, upper row first."""
    n = draw(st.integers(1, 20))
    columns = st.sets(st.integers(1, n), max_size=n)
    return n, draw(columns), draw(columns)


def test_match_rows_small_cases():
    # column order, the open of a column before its close
    assert _match_rows(_mask([2]), _mask([1])) == (_mask([2]), _mask([1]))
    assert _match_rows(_mask([1]), _mask([2])) == (0, 0)
    assert _match_rows(_mask([1]), _mask([1])) == (0, 0)
    # the close at 3 takes the highest open at or below it
    assert _match_rows(_mask([1, 2]), _mask([3])) == (_mask([1]), 0)
    # a shared column matches itself, whatever lies between
    assert _match_rows(_mask([1, 3]), _mask([2, 3])) == (0, 0)
    assert _match_rows(_mask([2, 3]), _mask([1, 3])) == (_mask([2]), _mask([1]))
    # one side empty: everything on the other side is unmatched
    assert _match_rows(0, _mask([1, 4])) == (0, _mask([1, 4]))
    assert _match_rows(_mask([1, 4]), 0) == (_mask([1, 4]), 0)
    # the opens run out first: the closes left stay unmatched
    assert _match_rows(_mask([1]), _mask([2, 3, 5])) == (0, _mask([3, 5]))


def test_match_rows_exhaustive():
    # all 16 384 pairs of subsets of {1..7}, shared columns and empty sides
    # among them
    subsets = [
        [c for c in range(1, 8) if bits >> (c - 1) & 1] for bits in range(1 << 7)
    ]
    for upper in subsets:
        for lower in subsets:
            _, opens, closes, _ = oracles._two_row_match(upper, lower)
            assert _match_rows(_mask(upper), _mask(lower)) == (_mask(opens), _mask(closes))


@given(row_pairs())
def test_match_rows_equals_set_matcher(pair):
    _, upper, lower = pair
    _, opens, closes, _ = oracles._two_row_match(upper, lower)
    assert _match_rows(_mask(upper), _mask(lower)) == (_mask(opens), _mask(closes))
    assert _columns(_mask(upper)) == tuple(sorted(upper))
    for k in range(len(lower) + 2):
        assert _high_bits(_mask(lower), k) == _mask(sorted(lower)[::-1][:k])


@given(row_pairs())
def test_sigma_equals_cyclic_set_matcher(pair):
    n, upper, lower = pair
    m = MultilineQueue(n, [lower, upper])
    assert sigma(m, 1) == oracles.sigma_by_sets(m, 1)
    assert sigma(sigma(m, 1), 1) == m
