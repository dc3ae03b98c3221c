"""Multiline queues: words, labellings, pairings, statistics, enumeration.

A multiline queue on n columns is a tuple of subsets of {1..n}, one per row,
listed bottom row first.  Straight queues have weakly decreasing row sizes
(the conjugate of the shape); arbitrary row sizes give generalized queues,
which are the same thing as binary matrices.
"""

import json
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, pairwise, product
from math import comb, prod

from .core import (
    _as_rows, _check_composition, _check_count, _check_instance, _conjugate, _is_count, _text,
    check_partition, conjugate,
)
from .errors import BadRowIndex, InvariantError, NotStraight, ParseError, TooNarrow
from .matching import _columns, _high_bits, _mask, _match_rows


@dataclass(frozen=True)
class MultilineQueue:
    """A queue on n columns, rows bottom row first.

    The public constructor is the boundary: it takes any n and any
    collections of ball columns, raises ParseError unless n is a positive
    count and every ball a count in 1..n, and stores each row sorted, as a
    tuple.  ``_of`` is the engine's trusted constructor for rows that hold
    this form by construction; it checks nothing.
    """

    n: int
    rows: tuple

    def __init__(self, n, rows):
        _check_count(n, 1)
        rows = [set(r) for r in _as_rows(rows)]
        for row in rows:
            for c in row:
                if not (_is_count(c) and 1 <= c <= n):
                    raise ParseError(f"ball column {c!r} is not an int in 1..{n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(tuple(sorted(r)) for r in rows))

    @classmethod
    def _of(cls, n, rows):
        """The queue with fields n and rows, unchecked: n must be a positive
        int and rows a tuple of tuples, each of distinct ints in 1..n in
        increasing order, as ``__init__`` would store them."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        return self

    @property
    def num_rows(self):
        return len(self.rows)

    def row(self, r):
        """Row r, 1-based from the bottom; BadRowIndex unless r is a count in
        1..num_rows."""
        if not (_is_count(r) and 1 <= r <= len(self.rows)):
            raise BadRowIndex(f"r={r!r} with {len(self.rows)} rows")
        return self.rows[r - 1]

    def row_sizes(self):
        return tuple(len(r) for r in self.rows)

    def is_straight(self):
        s = self.row_sizes()
        return all(s[i] >= s[i + 1] for i in range(len(s) - 1))

    def shape(self):
        """Partition whose conjugate gives the row sizes (straight queues)."""
        _check_straight(self)
        return _conjugate(self.row_sizes())

    def column_content(self):
        counts = [0] * self.n
        for row in self.rows:
            for c in row:
                counts[c - 1] += 1
        return tuple(counts)

    def trimmed(self):
        """Drop empty rows from the top."""
        rows = list(self.rows)
        while rows and not rows[-1]:
            rows.pop()
        return MultilineQueue._of(self.n, tuple(rows))

    def with_rows(self, rows):
        return MultilineQueue(self.n, rows)

    def to_text(self):
        """n=<n>;<rows>, rows bottom first split by |, each its columns split
        by comma; a queue without rows is n=<n> alone, as n=<n>; is one
        empty row."""
        if not self.rows:
            return f"n={self.n}"
        body = "|".join(",".join(str(c) for c in row) for row in self.rows)
        return f"n={self.n};{body}"

    def to_json(self):
        return json.dumps({"n": self.n, "rows": [list(r) for r in self.rows]})

    def __str__(self):
        return self.to_text()


def parse_mlq(text: str) -> MultilineQueue:
    text = _text(text)
    if text.startswith("{"):
        try:
            data = json.loads(text)
            return MultilineQueue(data["n"], data["rows"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad queue json {text!r}") from exc
    if not text.startswith("n="):
        raise ParseError(f"bad queue {text!r}")
    head, rowed, body = text.partition(";")
    try:
        n = int(head[2:])
        rows = [[int(c) for c in part.split(",") if c] for part in body.split("|")] if rowed else []
        return MultilineQueue(n, rows)
    except ValueError as exc:
        raise ParseError(f"bad queue {text!r}") from exc


def row_word(m: MultilineQueue):
    """Ball columns scanned bottom row to top, left to right in each row."""
    _check_instance(m, MultilineQueue)
    return tuple(c for row in m.rows for c in row)


def column_word(m: MultilineQueue):
    """Ball rows scanned column by column, top down within each column."""
    _check_instance(m, MultilineQueue)
    out = []
    for c in range(1, m.n + 1):
        for r in range(m.num_rows, 0, -1):
            if c in m.rows[r - 1]:
                out.append(r)
    return tuple(out)


def biwords(m: MultilineQueue):
    """Row biword (lexicographic) and column biword (antilexicographic)."""
    _check_instance(m, MultilineQueue)
    entries = [(r, c) for r, row in enumerate(m.rows, start=1) for c in row]
    by_row = sorted(entries)
    by_col = sorted(entries, key=lambda rc: (rc[1], -rc[0]))
    row_bw = (tuple(r for r, _ in by_row), tuple(c for _, c in by_row))
    col_bw = (tuple(c for _, c in by_col), tuple(r for r, _ in by_col))
    return row_bw, col_bw


def _check_straight(m: MultilineQueue):
    """ParseError unless m is a queue, NotStraight unless it is straight."""
    _check_instance(m, MultilineQueue)
    if not m.is_straight():
        raise NotStraight(f"row sizes {m.row_sizes()}")


def label_mlq(m: MultilineQueue):
    """Queueing labels and pairings of a straight multiline queue.

    Starting from the top row, each ball pairs to the first unlabelled ball
    weakly to its right in the row below, wrapping cyclically; balls pair in
    order of decreasing label, left to right within a label.  Returns the
    label map {(row, col): label} and the pairing multiset of triples
    (origin row, label, wrapped).

    This is ``label_gmlq`` restricted to the balls: in a straight queue the
    empty sites of row r read r-1, so they rank below every ball of that
    row, and a wrap whose label is below its source row is theirs.
    """
    _check_straight(m)
    every_site, particle_wraps, _ = label_gmlq(m)
    labels = {
        (r, c): every_site[(r, c)] for r, row in enumerate(m.rows, start=1) for c in row
    }
    wrapped = Counter((r, lab) for r, lab in particle_wraps if lab >= r)
    unwrapped = Counter((r, lab) for (r, _), lab in labels.items() if r > 1)
    unwrapped.subtract(wrapped)
    pairings = [(r, lab, 0) for r, lab in unwrapped.elements()]
    pairings += [(r, lab, 1) for r, lab in wrapped.elements()]
    return labels, pairings


def maj(m: MultilineQueue) -> int:
    """Major index: each wrapping pairing of label l from row r adds l-r+1.

    It equals ``maj_g``: the empty sites of row r read r-1, so every wrap
    from them weighs 0.
    """
    _check_straight(m)
    return maj_g(m)


def is_nonwrapping(m: MultilineQueue) -> bool:
    """``maj_g(m) == 0``.  On straight queues these are exactly the collapsed
    queues (``_is_collapsed``); off them, ``n=2;|1`` is nonwrapping, since
    its ball pairs with nothing, yet collapse moves the ball."""
    return maj_g(m) == 0


def canonical_mlq(nu, n: int) -> MultilineQueue:
    """The left-justified queue of shape nu: row j holds columns 1..nu'_j."""
    _check_count(n, 1)
    cols = conjugate(nu)
    if cols and cols[0] > n:
        raise TooNarrow(f"shape {nu} needs {cols[0]} columns, have {n}")
    return MultilineQueue(n, [range(1, k + 1) for k in cols])


def projection(m: MultilineQueue):
    """Bottom-row labels left to right; anti-particles read 0 in the straight
    case and their generalized label otherwise.  A queue without rows
    projects to all zeros.

    Each row is labelled from the one above by ``_label_layer`` alone,
    starting from the constant word L..L as ``stationary_counts`` does; no
    wrap is read off on the way.
    """
    _check_instance(m, MultilineQueue)
    word = (m.num_rows,) * m.n
    for row in reversed(m.rows):
        (word,) = _label_layer(word, len(row), [row], {})
    return word


def label_gmlq(m: MultilineQueue):
    """Particle and anti-particle labels of a generalized multiline queue.

    Top row: particles get the row number, anti-particles one less.  Each
    lower row is labelled from the row above by ``_label_layer``, and its
    wraps are read off by ``_wrap_lists``.  Returns (labels for every site,
    particle wrap list [(source row, label)], anti wrap list).
    """
    _check_instance(m, MultilineQueue)
    labels = {}
    particle_wraps = []
    anti_wraps = []
    for r, word, plus, minus in _label_rows(m):
        for c, lab in enumerate(word, start=1):
            labels[(r, c)] = lab
        particle_wraps += [(r + 1, lab) for lab in plus]
        anti_wraps += [(r + 1, lab) for lab in minus]
    return labels, particle_wraps, anti_wraps


def _label_rows(m: MultilineQueue):
    """Yield (r, row r's labels, its wrapping particle labels, its wrapping
    anti-particle labels) for r from the top row down, starting from the
    constant word L..L as ``stationary_counts`` does.  The kernel gives the
    labels; the wrap lists are read off them by ``_wrap_lists``, which only
    ``label_gmlq`` and ``maj_g`` need.  The label masks that ``_wrap_lists``
    builds for one row are the source masks of the row below, so they are
    passed down; only the top word's are built here."""
    word = (m.num_rows,) * m.n
    sources = _label_masks(word)
    for r in range(m.num_rows, 0, -1):
        row = m.rows[r - 1]
        (labels,) = _label_layer(word, len(row), [row], {})
        plus, minus, sources = _wrap_lists(sources, labels, row)
        yield r, labels, plus, minus
        word = labels


def _label_masks(word):
    """The columns of each label of word as masks, label l at index l + 1,
    for l from -1 up to max(word)."""
    masks = [0] * (max(word) + 2)
    for c, lab in enumerate(word, start=1):
        masks[lab + 1] |= 1 << c
    return masks


def _wrap_weight(plus, minus, r) -> int:
    """The ``maj_g`` increment of the pairings that label row r: a wrap of
    label l from row r+1 weighs l - r, particle wraps positively and
    anti-particle wraps negatively."""
    return sum(plus) - sum(minus) - r * (len(plus) - len(minus))


def _label_layer(word, s, rows, prefilled):
    """Label every ball set in ``rows`` below a row labelled ``word``.

    Each entry of ``rows`` is a set of s ball columns in increasing order;
    ``stationary_counts`` passes a whole layer, the single-row callers a
    one-element list.  Sites pair in decreasing label, ties left to right,
    the s first to the first free particle weakly right of them, the rest,
    lowest priority first, to the first free anti-particle weakly left of
    them with the label decremented; both searches wrap cyclically.
    Returns each ball set's labels for columns 1..n, in order.

    The pairing order depends only on ``word``, so it is sorted and split
    once per call.  The last label class to pair on a side takes every
    site of that side that is still free, so it is filled in, not walked:
    each ball set starts with its particles holding the high side's last
    label and its anti-particles the low side's, decremented, and only the
    other sources walk.  In a straight layer only sources labelled above r
    walk, and no anti-particle pairing does.  A walker's label is above the particles' fill, or
    below the anti-particles' fill, so a site is free exactly while it
    holds its side's fill.  ``prefilled`` is a dict that the caller keeps
    for one list ``rows``, one per layer in ``stationary_counts``: it maps
    the two fill labels to every ball set's filled-in row, so a layer
    builds those once for each pair of fills it meets, not once per word.
    When nothing walks, the list returned is the table's own; callers only
    read it.

    The labels do not depend on where the ring is cut: rotating ``word``
    and the row together rotates them, since the sites that one label's
    pairings fill do not depend on the order in which they pair.
    """
    n = len(word)
    # sorted is stable under reverse=True, so ties stay left to right
    order = sorted(range(n), key=word.__getitem__, reverse=True)
    ranked = sorted(word, reverse=True)
    # the fill labels, and the sources that walk: those ranked above the
    # high side's last label, and those ranked below the low side's first
    top = ranked[s - 1] if s else None
    rightward = order[: ranked.index(top)] if s else ()
    if s < n:
        bottom = ranked[s]
        leftward = order[ranked.index(bottom) + ranked.count(bottom):][::-1]
        bottom -= 1
    else:
        bottom, leftward = None, ()
    filled = prefilled.get((top, bottom))
    if filled is None:
        filled = prefilled[top, bottom] = []
        for row in rows:
            out = [bottom] * n
            for c in row:
                out[c - 1] = top
            filled.append(tuple(out))
    if not (rightward or leftward):
        return filled
    labelled = []
    for out in filled:
        out = list(out)
        for src in rightward:
            t = src
            while out[t] != top:
                t = t + 1 if t + 1 < n else 0
            out[t] = word[src]
        for src in leftward:
            t = src
            while out[t] != bottom:
                t = t - 1 if t else n - 1
            out[t] = word[src] - 1
        labelled.append(tuple(out))
    return labelled


def _wrap_lists(sources, labels, here):
    """The wrapping particle and anti-particle pairings that label ball set
    ``here`` (columns 1..n) as ``labels`` below a row labelled by a word
    of nonnegative labels, given by its ``_label_masks`` ``sources``: one
    label per wrap, each list in pairing order.  Returns (particle wraps,
    anti-particle wraps, the masks of ``labels`` as ``_label_masks`` lays
    them out, with as many slots as ``sources``), the last being the
    source masks of the next row down.

    The sources of one label pair left to right; those that reach a
    particle are the leftmost of them, as many as the particles that got
    their label, and the rest reach the anti-particles that got it
    decremented.  Those sites do not depend on the order in which the
    class pairs, and no pairing passes a free site of its side that the
    class leaves free, so the class's wraps are the pairings that it
    cannot make without one, which ``_match_rows`` counts: on the particle
    side the sources are the opens and the particles the closes, and the
    wraps are the opens left unmatched; the anti-particles pair leftward,
    so there they are the opens, the sources the closes, and the wraps the
    closes left unmatched.
    """
    # a label is at most its source's, so it has a slot among the sources'
    reached = [0] * len(sources)
    for c, lab in enumerate(labels, start=1):
        reached[lab + 1] |= 1 << c
    particle = _mask(here)
    plus, minus = [], []
    for lab, opens in enumerate(sources[1:]):
        if not opens:
            continue
        got = reached[lab + 1] & particle
        # the leftmost k sources reach particles, the rest anti-particles
        k = got.bit_count()
        rest = opens.bit_count() - k
        if rest:
            right = _high_bits(opens, rest)
            _, wraps = _match_rows(reached[lab] & ~particle, right)
            minus += [lab] * wraps.bit_count()
            opens ^= right
        if k:
            wraps, _ = _match_rows(opens, got)
            plus += [lab] * wraps.bit_count()
    # the particle side pairs in decreasing label, the anti-particle side in
    # increasing label, and a class's wraps all carry its label
    return plus[::-1], minus, reached


def _is_collapsed(rows) -> bool:
    """True when the queue with row masks rows, bottom row first, is a
    collapse fixed point: collapse moves the balls that the bracket
    matching (``_match_rows``) leaves unmatched, so every row must match
    fully into the row below.  That is parking without a wrap, and it needs
    the row below to be as large, so the queue is straight."""
    return not any(_match_rows(upper, lower)[0] for lower, upper in pairwise(rows))


def _rotations(word):
    """The cyclic rotations of a word, one per shift, repeats included,
    each one slice of the word written twice."""
    n = len(word)
    twice = word + word
    return [twice[i:i + n] for i in range(n)]


def _check_fits(alpha, n) -> tuple:
    """alpha as a tuple, ParseError unless n and the row sizes are valid, and
    TooNarrow when a row holds more balls than there are columns."""
    _check_count(n, 1)
    alpha = _check_composition(alpha)
    if any(a > n for a in alpha):
        raise TooNarrow(f"row sizes {alpha} exceed {n} columns")
    return alpha


def maj_g(m: MultilineQueue) -> int:
    """Generalized major index: right wraps count positively, left wraps
    negatively, each weighted by label - source row + 1."""
    _check_instance(m, MultilineQueue)
    return sum(_wrap_weight(plus, minus, r) for r, _, plus, minus in _label_rows(m))


def _check_row_pair(m: MultilineQueue, i):
    """ParseError unless m is a queue, BadRowIndex unless i is an int (not a
    bool) naming rows i, i+1 of m."""
    _check_instance(m, MultilineQueue)
    if not (_is_count(i) and 1 <= i < m.num_rows):
        raise BadRowIndex(f"i={i!r} with {m.num_rows} rows")


def sigma(m: MultilineQueue, i: int) -> MultilineQueue:
    """Row-swapping involution: rows i and i+1 exchange their cylindrically
    unmatched balls; the row-size vector picks up the transposition s_i.

    The cyclic completion pairs the k highest unmatched opens with the k
    lowest unmatched closes, k the smaller count.  Matched pairs use one
    ball of each row, so what stays unmatched is the lowest opens when row
    i+1 is longer, and they move down, or the highest closes when row i is,
    and they move up.
    """
    _check_row_pair(m, i)
    excess = len(m.rows[i]) - len(m.rows[i - 1])
    if not excess:
        return m
    upper, lower = _mask(m.rows[i]), _mask(m.rows[i - 1])
    opens, closes = _match_rows(upper, lower)
    if excess > 0:
        down = opens ^ _high_bits(opens, closes.bit_count())
        upper, lower = upper ^ down, lower | down
    else:
        up = _high_bits(closes, -excess)
        upper, lower = upper | up, lower ^ up
    rows = list(m.rows)
    rows[i - 1], rows[i] = _columns(lower), _columns(upper)
    return MultilineQueue._of(m.n, tuple(rows))


def enumerate_mlq(lam, n: int):
    """All multiline queues of shape lam on n columns, lexicographically."""
    return enumerate_gmlq(conjugate(lam), n)


def enumerate_gmlq(alpha, n: int):
    """All queues with row sizes alpha on n columns, bottom row slowest."""
    alpha = _check_fits(alpha, n)
    per_row = [combinations(range(1, n + 1), a) for a in alpha]
    for rows in product(*per_row):
        yield MultilineQueue(n, rows)


def count_mlq(lam, n: int) -> int:
    """How many queues of shape lam there are on n columns; TooNarrow when
    lam has more than n parts, as ``enumerate_mlq`` raises."""
    return prod(comb(n, a) for a in _check_fits(conjugate(lam), n))


def stationary_counts(lam, n: int):
    """How many queues of shape lam project onto each bottom-row state.

    These are the stationary weights of the multispecies TASEP on a ring of
    n sites (Ferrari and Martin, arXiv:math/0501291): across each cyclic
    bond a larger label hops left over a smaller one at rate 1, and 0 is a
    hole.  The counts are summed row by row over label words: a row's word
    fixes every label below it, so the queues that agree on it are merged
    there, and each word labels every ball set of the next row in one
    ``_label_layer`` call, which returns labels only and shares one table
    of filled-in rows across the layer.  The sweep starts above the top
    row from the constant word L..L, which gives the top row's labels with
    no walk.

    The chain is invariant under rotating the ring, so a layer keeps one
    state per rotation class, and its value is the class total.  Classes
    are numbered in the order the call meets them, the first word met of a
    class stands for it, and the n rotations of that word are kept and
    registered under its number then, so each labelled word costs one
    lookup, totals are keyed by ints, and rotations are built once per class.
    That is exact: the top word is fixed by rotation, and ``_label_layer``
    commutes with rotating the word and the row together, so every word of
    a class reaches every class below through equally many rows.  A
    periodic word is a smaller class but needs no weighting during the
    sweep, since totals count each queue once.  At the end the d distinct
    rotations of a class share its total equally.  d is the number of keys
    that the class's registration added: a word's rotations are keys all
    together or none, so none was a key before.
    """
    lam = check_partition(lam)
    _check_count(n, 1)
    if len(lam) > n:
        raise TooNarrow(f"{len(lam)} particle types on {n} sites")
    alpha = _conjugate(lam)
    classes = [([(len(alpha),) * n], 1)]  # per class: its first word's rotations, d
    totals = {0: 1}
    keys = {}  # word -> the number of its rotation class
    for s in reversed(alpha):
        rows = list(combinations(range(1, n + 1), s))
        prefilled = {}
        below = {}
        for above, total in totals.items():
            for new in _label_layer(classes[above][0][0], s, rows, prefilled):
                key = keys.get(new)
                if key is None:  # the first word met of its class
                    key, known, rotations = len(classes), len(keys), _rotations(new)
                    keys.update(dict.fromkeys(rotations, key))
                    classes.append((rotations, len(keys) - known))
                below[key] = below.get(key, 0) + total
        totals = below
    counts = {}
    for key, total in totals.items():
        rotations, distinct = classes[key]
        each, rest = divmod(total, distinct)
        if rest:
            raise InvariantError(
                f"{total} queues of shape {lam} on {n} sites do not split over "
                f"the {distinct} rotations of {rotations[0]}"
            )
        counts.update(dict.fromkeys(rotations, each))
    return counts
