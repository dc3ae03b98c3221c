import pytest

from mlqkit.core import (
    _conjugate,
    conjugate,
    content,
    dominance_leq,
    is_lattice,
    n_stat,
    parse_partition,
    parse_word,
    partitions,
    sort_to_partition,
)
from mlqkit.errors import ParseError, SizeMismatch
from mlqkit.mlq import count_mlq


def test_conjugate_examples():
    assert conjugate((6, 4, 3, 2)) == (4, 4, 3, 2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((4, 4, 2, 2)) == (4, 4, 2, 2)


def test_conjugate_involution():
    for size in range(13):
        for lam in partitions(size):
            assert conjugate(conjugate(lam)) == lam


def test_unchecked_conjugate_ignores_zeros():
    # _conjugate takes the engine's shapes, which may end in empty rows;
    # conjugate still refuses a zero part
    for size in range(13):
        for lam in partitions(size):
            for k in range(3):
                assert _conjugate(lam + (0,) * k) == conjugate(lam), (lam, k)
    with pytest.raises(ParseError):
        conjugate((2, 1, 0))


def test_dominance():
    assert dominance_leq((1, 1, 1), (3,))
    assert dominance_leq((2, 2), (3, 1))
    assert not dominance_leq((3, 1), (2, 2))
    with pytest.raises(SizeMismatch):
        dominance_leq((2,), (3,))


def test_dominance_partial_order():
    for size in range(1, 9):
        elems = list(partitions(size))
        for a in elems:
            assert dominance_leq(a, a)
            for b in elems:
                if dominance_leq(a, b) and dominance_leq(b, a):
                    assert a == b
                for c in elems:
                    if dominance_leq(a, b) and dominance_leq(b, c):
                        assert dominance_leq(a, c)


def test_sort_to_partition():
    assert sort_to_partition((3, 4, 1, 4, 2)) == (4, 4, 3, 2, 1)
    assert sort_to_partition((0, 0)) == ()
    assert sort_to_partition((2, 2, 3)) == (3, 2, 2)


def test_content():
    assert content((1, 4, 3, 3, 2, 1, 2, 4, 2, 4, 2)) == (2, 4, 2, 3)
    assert content(()) == ()
    assert content((1, 1, 1)) == (3,)
    word = (3, 1, 2, 2, 1)
    assert sum(content(word)) == len(word)


def test_is_lattice():
    assert is_lattice((1, 2, 1, 2, 3))
    assert not is_lattice((2, 1))
    assert is_lattice((1, 2, 3, 1, 2, 1, 1))


def test_n_stat():
    # content of the shape-(7,6,3) worked tableau; its cocharge is 27 - 7
    assert n_stat((4, 4, 3, 3, 2)) == 27
    assert n_stat((7, 6, 3)) == 12
    assert n_stat((1,)) == 0
    assert n_stat((2, 2)) == 2


def test_parsing_round_trip():
    assert parse_partition("4,4,2,2") == (4, 4, 2, 2)
    assert parse_partition("") == ()
    assert parse_word("3 1 2 2 1") == (3, 1, 2, 2, 1)
    with pytest.raises(ParseError):
        parse_partition("2,3")
    with pytest.raises(ParseError):
        parse_word("0 1")


@pytest.mark.parametrize("w", [(0, 1), (1, 0), (-1, 1), (1, 1.5), (True,), (1, "2")])
def test_content_and_lattice_reject_letters_that_are_not_positive_ints(w):
    # content((0, 1)) used to return (2,), content((-1, 1)) raised
    # IndexError and is_lattice((0, 1)) was True
    with pytest.raises(ParseError):
        content(w)
    with pytest.raises(ParseError):
        is_lattice(w)


@pytest.mark.parametrize("p", [(1, 2), (2, 0), (0,), (-1,), (1.5,), (True,)])
def test_conjugate_rejects_non_partitions(p):
    # conjugate((1, 2)) used to be (2,), so count_mlq((1, 2), 3) returned 3
    with pytest.raises(ParseError):
        conjugate(p)
    with pytest.raises(ParseError):
        count_mlq(p, 3)
