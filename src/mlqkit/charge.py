"""Charge and cocharge statistics on permutations and words."""

from bisect import bisect_left

from .core import content, is_partition, n_stat
from .errors import NonPartitionContent, NotAPermutation
from .matching import reflect


def charge_permutation(perm) -> int:
    """Charge of a permutation of 1..n in one-line notation."""
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise NotAPermutation(f"{perm}")
    position = {v: k for k, v in enumerate(perm)}
    return sum(n - i for i in range(1, n) if position[i] < position[i + 1])


def _check_partition_content(w):
    c = content(w)
    if not is_partition(c):
        raise NonPartitionContent(f"content {c}")
    return c


def charge_subwords(w):
    """Split a partition-content word into its charge subwords.

    Each subword is extracted by scanning cyclically for the largest
    remaining letter, then the next smaller one, and so on down to 1; the
    scan resumes after each found letter and wraps around the word.  Every
    letter keeps its remaining positions in a sorted list, so each step is
    one bisection from the cursor.
    """
    mu = _check_partition_content(w)
    spots = [[] for _ in range(len(mu) + 1)]  # spots[k]: positions of letter k
    for p, letter in enumerate(w):
        spots[letter].append(p)
    subwords = []
    largest = len(mu)
    while largest:
        chosen = []
        cursor = 0
        for needed in range(largest, 0, -1):
            left = spots[needed]
            i = bisect_left(left, cursor)
            p = left.pop(i if i < len(left) else 0)
            chosen.append(p)
            cursor = p + 1
        subwords.append(tuple(w[p] for p in sorted(chosen)))
        # the content left is still a partition, so letters run out from the top
        while largest and not spots[largest]:
            largest -= 1
    return subwords


def charge(w) -> int:
    """Charge of a word with partition content."""
    return sum(charge_permutation(sub) for sub in charge_subwords(w))


def cocharge(w) -> int:
    """Cocharge: n(content) minus charge."""
    mu = _check_partition_content(w)
    return n_stat(mu) - charge(w)


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
    for i in sorting_reflections(content(w)):
        w = reflect(w, i)
    return tuple(w)


def charge_g(w) -> int:
    """Generalized charge: straighten the content, then take the charge."""
    if not w:
        return 0
    return charge(straighten_word(w))
