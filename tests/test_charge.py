from itertools import permutations, product

import pytest

import oracles
from mlqkit.charge import (
    charge,
    charge_g,
    charge_permutation,
    charge_subwords,
    cocharge,
)
from mlqkit.core import content, is_partition, partitions
from mlqkit.errors import NonPartitionContent, NotAPermutation, ParseError
from mlqkit.matching import reflect


def test_charge_permutation():
    assert charge_permutation((5, 2, 4, 1, 3)) == 3
    assert charge_permutation((3, 2, 1, 4)) == 1
    for n in range(1, 6):
        assert charge_permutation(tuple(range(n, 0, -1))) == 0
    with pytest.raises(NotAPermutation):
        charge_permutation((1, 1))


def test_subwords_tableau_example():
    w = (3, 3, 5, 2, 2, 2, 4, 4, 5, 1, 1, 1, 1, 2, 3, 4)
    # the only 4 left for the third subword sits before the remaining 1's,
    # so the cyclic scan yields (3, 2, 4, 1); its charge is 1 either way
    assert charge_subwords(w) == [
        (5, 2, 4, 1, 3),
        (3, 2, 5, 1, 4),
        (3, 2, 4, 1),
        (1, 2),
    ]
    assert [charge_permutation(s) for s in charge_subwords(w)] == [3, 2, 1, 1]
    assert charge(w) == 7
    assert cocharge(w) == 20


def test_subwords_column_word_example():
    w = (2, 1, 3, 1, 4, 3, 2, 1, 1, 4, 2, 2)
    assert charge_subwords(w) == [(4, 3, 2, 1), (1, 3, 4, 2), (2, 1), (1, 2)]
    assert charge(w) == 5


def test_subwords_trivial():
    assert charge_subwords((1,)) == [(1,)]
    assert charge((1, 1, 1)) == 0
    with pytest.raises(NonPartitionContent):
        charge((2, 2, 1))


def test_charge_by_matching_example():
    w = (3, 3, 4, 2, 2, 3, 2, 2, 1, 1, 1, 1, 1, 2, 3, 4)
    assert oracles.charge_by_matching(w) == 3
    assert charge(w) == 3


def test_charge_by_matching_permutations():
    for perm in permutations(range(1, 5)):
        assert oracles.charge_by_matching(perm) == charge_permutation(perm)


def partition_content_words(max_len, alphabet):
    for length in range(1, max_len + 1):
        for w in product(range(1, alphabet + 1), repeat=length):
            if is_partition(content(w)):
                yield w


def test_charge_by_matching_exhaustive():
    for w in partition_content_words(8, 4):
        assert oracles.charge_by_matching(w) == charge(w)


def test_charge_by_matching_every_content():
    # every word of length <= 7 whose content is a partition, whatever its
    # alphabet
    count = 0
    for size in range(1, 8):
        for mu in partitions(size):
            letters = [k for k, m in enumerate(mu, start=1) for _ in range(m)]
            for w in set(permutations(letters)):
                assert oracles.charge_by_matching(w) == charge(w), w
                count += 1
    assert count == 13390  # the sum over mu of |mu|! / prod(mu_i!)


def test_cocharge_small():
    assert cocharge((1,)) == 0
    assert cocharge((2, 1)) == 1


def test_charge_g_paper_example():
    w = (1, 4, 3, 3, 2, 1, 2, 4, 2, 4, 2)
    assert charge_g(w) == 4


def test_charge_g_matches_charge_on_partition_content():
    for w in partition_content_words(6, 3):
        assert charge_g(w) == charge(w)


def test_charge_g_reduced_word_independent():
    # all words of content (1, 2, 1): straighten two different ways
    words = [w for w in product((1, 2, 3), repeat=4) if content(w) == (1, 2, 1)]
    assert len(words) == 12
    for w in words:
        via_default = charge_g(w)
        # alternative route: S_1 then the (trivial) S_2 sorts (1, 2, 1) too
        alt = reflect(reflect(w, 1), 2)
        assert is_partition(content(alt))
        assert charge(alt) == via_default


def test_charge_g_reflect_invariant():
    for w in product((1, 2, 3), repeat=5):
        base = charge_g(w)
        for i in (1, 2, 3):
            assert charge_g(reflect(w, i)) == base


def test_charge_bounds():
    from mlqkit.core import n_stat

    for w in partition_content_words(7, 3):
        val = charge(w)
        assert 0 <= val <= n_stat(content(w))


@pytest.mark.parametrize("w", [(0, 1), (1, 0), (-1, 1), (1, 1.5), (True,), (1, "2")])
def test_rejects_letters_that_are_not_positive_ints(w):
    # charge((0, 1)) used to loop forever, (-1, 1) raised IndexError and
    # (1, 1.5) TypeError
    for statistic in (charge, cocharge, charge_subwords, charge_g,
                      oracles.charge_by_matching):
        with pytest.raises(ParseError):
            statistic(w)
