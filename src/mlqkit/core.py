"""Partitions, weak compositions and words, and what valid input is.

Partitions are tuples of weakly decreasing positive integers (no trailing
zeros); weak compositions are tuples of nonnegative integers where trailing
zeros are significant; words are tuples of positive integers.  All indices in
the external contract are 1-based.

Only this module says what valid input is; the others call its helpers,
which raise ParseError.  A count is an int, never a bool or another int
subclass (``_is_count``, ``_check_count``); a sequence is any iterable but a
str (``_as_tuple``, ``_as_rows``); a word is a sequence of positive counts
(``_check_letters``); text is a str, read stripped (``_text``); terms are
pairs of a canonical key and a coefficient (``_check_terms``); a queue,
tableau, filling or polynomial is an instance of its class
(``_check_instance``, which the caller hands the class, so this module
imports nothing above it).  Range checks
with their own typed errors (BadRowIndex, OutOfRange, TooNarrow) call
``_is_count`` in place.

``_conjugate`` is ``conjugate`` unchecked, for the engine's own shapes: it
trusts its argument to be a weakly decreasing tuple of ints >= 0, such as
the row sizes of a straight queue, and ignores the zeros.
"""

from math import comb

from .errors import ParseError, SizeMismatch


def _is_count(v) -> bool:
    """True for an int, not a bool or any other subclass of int."""
    return type(v) is int


def _check_count(v, low=0):
    """v, or ParseError unless it is a count (``_is_count``) of at least low."""
    if not _is_count(v) or v < low:
        raise ParseError(f"need an int >= {low}, got {v!r}")
    return v


def _check_instance(x, cls):
    """x, or ParseError unless it is an instance of cls."""
    if not isinstance(x, cls):
        raise ParseError(f"need a {cls.__name__}, got {x!r}")
    return x


def _as_tuple(x, what) -> tuple:
    """x as a tuple, or ParseError, naming x as what, unless it is an
    iterable other than a str."""
    if not isinstance(x, str):
        try:
            return tuple(x)
        except TypeError:
            pass
    raise ParseError(f"{what} must be a sequence, got {x!r}")


def _as_rows(rows) -> tuple:
    """rows as a tuple of tuples; ParseError unless a sequence of sequences."""
    return tuple(_as_tuple(r, "a row") for r in _as_tuple(rows, "the rows"))


def _check_terms(terms, n) -> tuple:
    """The (key, coefficient) pairs of terms, a dict or a sequence of pairs;
    ParseError unless each key is canonical on n variables: (q, ((i, e),
    ...)) with int q, the ints i increasing in 1..n and ints e >= 1."""
    pairs = tuple(terms.items()) if isinstance(terms, dict) else _as_tuple(terms, "the terms")
    for pair in pairs:
        key = pair[0] if type(pair) is tuple and len(pair) == 2 else None
        ok = type(key) is tuple and len(key) == 2 and _is_count(key[0]) and type(key[1]) is tuple
        last = 0  # the i before, so that the i increase from 1
        for x in key[1] if ok else ():
            ok = type(x) is tuple and len(x) == 2 and type(x[0]) is type(x[1]) is int
            if not (ok and last < x[0] <= n and x[1] > 0):
                raise ParseError(f"key {key!r} is not canonical on {n} variables")
            last = x[0]
        if not ok:
            raise ParseError(f"not a (key, coefficient) pair: {pair!r}")
    return pairs


def _text(text) -> str:
    """text stripped, or ParseError unless it is a str."""
    if not isinstance(text, str):
        raise ParseError(f"expected text, got {text!r}")
    return text.strip()


def is_partition(parts) -> bool:
    """True for a weakly decreasing tuple of positive counts; ParseError
    unless parts is a sequence."""
    parts = _as_tuple(parts, "a partition")
    if not all(_is_count(p) and p > 0 for p in parts):
        return False
    return all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


def check_partition(parts) -> tuple:
    """parts as a tuple, or ParseError unless it is a partition."""
    parts = _as_tuple(parts, "a partition")
    if not is_partition(parts):
        raise ParseError(f"not a partition: {parts!r}")
    return parts


def conjugate(p) -> tuple:
    """Conjugate partition: column lengths of the diagram of p; ParseError
    unless p is a partition."""
    return _conjugate(check_partition(p))


def _conjugate(p) -> tuple:
    """``conjugate`` of p unchecked: p must be a weakly decreasing tuple of
    ints >= 0, and its zeros are ignored.  From the last part up, columns
    len(cols) + 1 to p[j] have j + 1 cells."""
    cols = []
    for j in range(len(p) - 1, -1, -1):
        cols += [j + 1] * (p[j] - len(cols))
    return tuple(cols)


def dominance_leq(a, b) -> bool:
    """True iff every prefix sum of a is at most the one of b (|a| = |b|);
    ParseError unless both are weak compositions."""
    a, b = _check_composition(a), _check_composition(b)
    if sum(a) != sum(b):
        raise SizeMismatch(f"|{a}| != |{b}|")
    ta, tb = 0, 0
    for k in range(max(len(a), len(b))):
        ta += a[k] if k < len(a) else 0
        tb += b[k] if k < len(b) else 0
        if ta > tb:
            return False
    return True


def _check_composition(alpha) -> tuple:
    """alpha as a tuple, or ParseError unless its parts are ints >= 0."""
    alpha = _as_tuple(alpha, "a composition")
    if not all(_is_count(a) and a >= 0 for a in alpha):
        raise ParseError(f"parts must be nonnegative ints, got {alpha!r}")
    return alpha


def sort_to_partition(alpha) -> tuple:
    """Rearrange the parts of a weak composition decreasingly, dropping zeros;
    ParseError unless it is one."""
    return tuple(sorted(filter(None, _check_composition(alpha)), reverse=True))


def _check_letters(w) -> tuple:
    """w as a tuple, or ParseError unless it is a sequence of positive
    counts."""
    w = _as_tuple(w, "a word")
    if not all(type(v) is int and v > 0 for v in w):
        raise ParseError(f"letters must be positive ints, got {w!r}")
    return w


def content(w) -> tuple:
    """Letter multiplicities (c_1, ..., c_max) of a word; ParseError unless
    its letters are positive ints."""
    w = _check_letters(w)
    if not w:
        return ()
    m = max(w)
    counts = [0] * m
    for letter in w:
        counts[letter - 1] += 1
    return tuple(counts)


def is_lattice(w) -> bool:
    """True iff every prefix has at least as many i's as (i+1)'s, for all i;
    ParseError unless the letters are positive ints."""
    counts = {}
    for letter in _check_letters(w):
        counts[letter] = counts.get(letter, 0) + 1
        if letter > 1 and counts[letter] > counts.get(letter - 1, 0):
            return False
    return True


def n_stat(p) -> int:
    """The statistic n(p) = sum of binomial(p'_i, 2)."""
    return sum(comb(c, 2) for c in conjugate(p))


def partitions(n: int, max_part: int | None = None):
    """All partitions of n with parts at most max_part (default n), reverse
    lexicographically; ParseError unless both are counts >= 0."""
    top = n if max_part is None else max_part
    return _partitions(_check_count(n), _check_count(top))


def _partitions(n, top):
    if not n:
        yield ()
    for first in range(min(n, top), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def parse_partition(text: str) -> tuple:
    text = _text(text)
    if text in ("", "-"):
        return ()
    try:
        parts = tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad partition {text!r}") from exc
    return check_partition(parts)


def parse_word(text: str) -> tuple:
    text = _text(text)
    try:
        letters = [int(t) for t in text.split()]
    except ValueError as exc:
        raise ParseError(f"bad word {text!r}") from exc
    return _check_letters(letters)
