"""Charge and cocharge statistics on permutations and words."""

from bisect import bisect_left
from itertools import pairwise

from .core import _as_tuple, _check_letters, content
from .errors import NonPartitionContent, NotAPermutation
from .matching import reflect


def charge_permutation(perm) -> int:
    """Charge of a permutation of 1..n in one-line notation; ParseError
    unless its letters are positive ints, NotAPermutation unless they are
    1..n."""
    perm = _check_letters(perm)
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise NotAPermutation(f"{perm}")
    chosen = [0] * n
    for p, v in enumerate(perm):
        chosen[n - v] = p
    return _charge_of_positions(chosen)


def _charge_of_positions(chosen):
    """Charge of the permutation of 1..n whose letter n - k stands at
    position chosen[k]: each letter i with i + 1 to its right adds n - i."""
    return sum(k for k in range(1, len(chosen)) if chosen[k] < chosen[k - 1])


def charge_subwords(w):
    """Split a partition-content word into its charge subwords."""
    w = _check_letters(w)
    return [tuple(w[p] for p in sorted(chosen)) for chosen in _subword_positions(w)]


def _subword_positions(w):
    """For each charge subword of w, the positions of its letters, largest
    letter first; ParseError unless the letters are positive ints and
    NonPartitionContent unless the content is a partition.

    The content is checked on the lists of positions that the extraction
    needs anyway: spots[k] holds the positions of letter k, and the content
    is a partition exactly when their lengths weakly decrease from k = 1
    (the largest letter occurs, so no letter below it is missing).

    Each subword is extracted by scanning cyclically for the largest
    remaining letter, then the next smaller one, and so on down to 1; the
    scan resumes after each found letter and wraps around the word.  Every
    letter keeps its remaining positions in a sorted list, so each step is
    one bisection from the cursor.
    """
    w = _check_letters(w)
    largest = max(w, default=0)
    spots = [[] for _ in range(largest + 1)]
    for p, letter in enumerate(w):
        spots[letter].append(p)
    if any(len(a) < len(b) for a, b in pairwise(spots[1:])):
        raise NonPartitionContent(f"content {tuple(map(len, spots[1:]))}")
    while largest:
        chosen = []
        cursor = 0
        for needed in range(largest, 0, -1):
            left = spots[needed]
            i = bisect_left(left, cursor)
            p = left.pop(i if i < len(left) else 0)
            chosen.append(p)
            cursor = p + 1
        yield chosen
        # the content left is still a partition, so letters run out from the top
        while largest and not spots[largest]:
            largest -= 1


def charge(w) -> int:
    """Charge of a word with partition content; ParseError unless its
    letters are positive ints, NonPartitionContent unless the content is a
    partition.

    Both checks run once, in ``_subword_positions``, on the letter positions
    that the subword extraction builds.  Each subword is a permutation by
    construction, so it is charged from its positions without the check of
    ``charge_permutation``.
    """
    return sum(map(_charge_of_positions, _subword_positions(w)))


def cocharge(w) -> int:
    """Cocharge: n(content) minus charge.  ``charge`` checks the letters and
    the content mu, and n(mu) is the sum of (i - 1) mu_i: each letter v of
    the word adds v - 1."""
    w = _as_tuple(w, "a word")
    c = charge(w)
    return sum(w) - len(w) - c


def sorting_reflections(alpha):
    """Indices i so that applying s_i right-to-left sorts alpha decreasingly.

    Stable selection sort pulling the largest part leftmost; transpositions
    between equal parts are skipped.  Returned in application order.
    """
    alpha = list(alpha)
    ops = []
    for start in range(len(alpha)):
        best = max(range(start, len(alpha)), key=lambda j: (alpha[j], -j))
        for j in range(best - 1, start - 1, -1):
            if alpha[j] != alpha[j + 1]:
                ops.append(j + 1)  # 1-based reflection index
                alpha[j], alpha[j + 1] = alpha[j + 1], alpha[j]
    return ops


def straighten_word(w):
    """Apply reflections until the content is a partition."""
    w = _check_letters(w)
    for i in sorting_reflections(content(w)):
        w = reflect(w, i)
    return w


def charge_g(w) -> int:
    """Generalized charge: straighten the content, then take the charge."""
    return charge(straighten_word(w))
