"""Partitions, weak compositions, and words.

Partitions are tuples of weakly decreasing positive integers (no trailing
zeros); weak compositions are tuples of nonnegative integers where trailing
zeros are significant; words are tuples of positive integers.  All indices in
the external contract are 1-based.
"""

from math import comb

from .errors import ParseError, SizeMismatch

Partition = tuple
Composition = tuple
Word = tuple


def _is_count(v) -> bool:
    """True for an int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_partition(parts) -> bool:
    """True for a weakly decreasing tuple of positive ints (not bools)."""
    parts = tuple(parts)
    if not all(_is_count(p) and p > 0 for p in parts):
        return False
    return all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


def check_partition(parts) -> tuple:
    """parts as a tuple, or ParseError unless it is a partition."""
    parts = tuple(parts)
    if not is_partition(parts):
        raise ParseError(f"not a partition: {parts!r}")
    return parts


def conjugate(p) -> tuple:
    """Conjugate partition: column lengths of the diagram of p."""
    p = tuple(p)
    if not p:
        return ()
    return tuple(sum(1 for part in p if part >= i) for i in range(1, p[0] + 1))


def dominance_leq(a, b) -> bool:
    """True iff every prefix sum of a is at most the one of b (|a| = |b|)."""
    if sum(a) != sum(b):
        raise SizeMismatch(f"|{a}| != |{b}|")
    ta, tb = 0, 0
    for k in range(max(len(a), len(b))):
        ta += a[k] if k < len(a) else 0
        tb += b[k] if k < len(b) else 0
        if ta > tb:
            return False
    return True


def sort_to_partition(alpha) -> tuple:
    """Rearrange the parts of a weak composition decreasingly, dropping zeros."""
    return tuple(sorted((a for a in alpha if a > 0), reverse=True))


def content(w) -> tuple:
    """Letter multiplicities (c_1, ..., c_max) of a word."""
    if not w:
        return ()
    m = max(w)
    counts = [0] * m
    for letter in w:
        counts[letter - 1] += 1
    return tuple(counts)


def is_lattice(w) -> bool:
    """True iff every prefix has at least as many i's as (i+1)'s, for all i."""
    counts = {}
    for letter in w:
        counts[letter] = counts.get(letter, 0) + 1
        if letter > 1 and counts[letter] > counts.get(letter - 1, 0):
            return False
    return True


def n_stat(p) -> int:
    """The statistic n(p) = sum of binomial(p'_i, 2)."""
    return sum(comb(c, 2) for c in conjugate(p))


def partitions(n: int, max_part: int | None = None):
    """Yield all partitions of n in reverse lexicographic order."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for first in range(top, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def parse_partition(text: str) -> tuple:
    text = text.strip()
    if text in ("", "-"):
        return ()
    try:
        parts = tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad partition {text!r}") from exc
    return check_partition(parts)


def parse_word(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    try:
        letters = tuple(int(t) for t in text.split())
    except ValueError as exc:
        raise ParseError(f"bad word {text!r}") from exc
    if any(v < 1 for v in letters):
        raise ParseError(f"bad word {text!r}")
    return letters
