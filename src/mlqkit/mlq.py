"""Multiline queues: words, labellings, pairings, statistics, enumeration.

A multiline queue on n columns is a tuple of subsets of {1..n}, one per row,
listed bottom row first.  Straight queues have weakly decreasing row sizes
(the conjugate of the shape); arbitrary row sizes give generalized queues,
which are the same thing as binary matrices.
"""

import json
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product
from math import comb

from .core import _is_count, check_partition, conjugate
from .errors import BadRowIndex, NotStraight, ParseError, TooNarrow
from .matching import _two_row_match


@dataclass(frozen=True)
class MultilineQueue:
    n: int
    rows: tuple

    def __init__(self, n, rows):
        _check_columns(n)
        rows = tuple(tuple(sorted(set(r))) for r in rows)
        for row in rows:
            for c in row:
                if type(c) is not int or not 1 <= c <= n:
                    raise ParseError(f"ball column {c!r} is not an int in 1..{n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    @property
    def num_rows(self):
        return len(self.rows)

    def row(self, r):
        """Row r, 1-based from the bottom."""
        return self.rows[r - 1]

    def row_sizes(self):
        return tuple(len(r) for r in self.rows)

    def is_straight(self):
        s = self.row_sizes()
        return all(s[i] >= s[i + 1] for i in range(len(s) - 1))

    def shape(self):
        """Partition whose conjugate gives the row sizes (straight queues)."""
        if not self.is_straight():
            raise NotStraight(f"row sizes {self.row_sizes()}")
        sizes = tuple(s for s in self.row_sizes() if s > 0)
        return conjugate(sizes)

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
        return MultilineQueue(self.n, rows)

    def with_rows(self, rows):
        return MultilineQueue(self.n, rows)

    def to_text(self):
        body = "|".join(",".join(str(c) for c in row) for row in self.rows)
        return f"n={self.n};{body}"

    def to_json(self):
        return json.dumps({"n": self.n, "rows": [list(r) for r in self.rows]})

    def __str__(self):
        return self.to_text()


def parse_mlq(text: str) -> MultilineQueue:
    text = text.strip()
    if text.startswith("{"):
        try:
            data = json.loads(text)
            return MultilineQueue(data["n"], data["rows"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad queue json {text!r}") from exc
    if not text.startswith("n=") or ";" not in text:
        raise ParseError(f"bad queue {text!r}")
    head, _, body = text.partition(";")
    try:
        n = int(head[2:])
        rows = [
            [int(c) for c in part.split(",") if c] for part in body.split("|")
        ] if body else [[]]
        return MultilineQueue(n, rows)
    except ValueError as exc:
        raise ParseError(f"bad queue {text!r}") from exc


def row_word(m: MultilineQueue):
    """Ball columns scanned bottom row to top, left to right in each row."""
    return tuple(c for row in m.rows for c in row)


def column_word(m: MultilineQueue):
    """Ball rows scanned column by column, top down within each column."""
    out = []
    for c in range(1, m.n + 1):
        for r in range(m.num_rows, 0, -1):
            if c in m.rows[r - 1]:
                out.append(r)
    return tuple(out)


def biwords(m: MultilineQueue):
    """Row biword (lexicographic) and column biword (antilexicographic)."""
    entries = [(r, c) for r in range(1, m.num_rows + 1) for c in m.row(r)]
    by_row = sorted(entries)
    by_col = sorted(entries, key=lambda rc: (rc[1], -rc[0]))
    row_bw = (tuple(r for r, _ in by_row), tuple(c for _, c in by_row))
    col_bw = (tuple(c for _, c in by_col), tuple(r for r, _ in by_col))
    return row_bw, col_bw


def _check_straight(m: MultilineQueue):
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
        (r, c): every_site[(r, c)] for r in range(1, m.num_rows + 1) for c in m.row(r)
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
    return maj_g(m) == 0


def canonical_mlq(nu, n: int) -> MultilineQueue:
    """The left-justified queue of shape nu: row j holds columns 1..nu'_j."""
    cols = conjugate(check_partition(nu))
    if cols and cols[0] > n:
        raise TooNarrow(f"shape {nu} needs {cols[0]} columns, have {n}")
    return MultilineQueue(n, [range(1, k + 1) for k in cols])


def projection(m: MultilineQueue):
    """Bottom-row labels left to right; anti-particles read 0 in the straight
    case and their generalized label otherwise.  A queue without rows
    projects to all zeros."""
    word = (0,) * m.n
    for _, word, _, _ in _label_rows(m):
        pass
    return word


def label_gmlq(m: MultilineQueue):
    """Particle and anti-particle labels of a generalized multiline queue.

    Top row: particles get the row number, anti-particles one less.  Each
    lower row is labelled from the row above by ``_label_row``.  Returns
    (labels for every site, particle wrap list [(source row, label)], anti
    wrap list).
    """
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
    constant word L..L as ``_label_word_sweep`` does."""
    word = (m.num_rows,) * m.n
    for r in range(m.num_rows, 0, -1):
        word, plus, minus = _label_row(word, m.row(r))
        yield r, word, plus, minus


def _wrap_weight(plus, minus, r) -> int:
    """The ``maj_g`` increment of the pairings that label row r: a wrap of
    label l from row r+1 weighs l - r, particle wraps positively and
    anti-particle wraps negatively."""
    return sum(plus) - sum(minus) - r * (len(plus) - len(minus))


def _label_row(word, here):
    """Label a row with ball set ``here`` below a row labelled ``word``.

    The s = |here| highest-priority sites above pair to the first free
    particle weakly right of them, the rest, lowest priority first, to the
    first free anti-particle weakly left of them with the label decremented;
    both searches wrap cyclically.  Priority is decreasing label, ties left
    to right.  Returns (the row's labels for columns 1..n, labels of the
    wrapping particle pairings, labels of the wrapping anti-particle
    pairings).
    """
    n = len(word)
    # sorted is stable under reverse=True, so ties stay left to right
    order = sorted(range(n), key=word.__getitem__, reverse=True)
    particle = [False] * n
    for c in here:
        particle[c - 1] = True
    s = len(here)
    out = [None] * n
    plus, minus = [], []
    for src in order[:s]:
        t = src
        while not particle[t] or out[t] is not None:
            t = t + 1 if t + 1 < n else 0
        out[t] = word[src]
        if t < src:
            plus.append(word[src])
    for src in reversed(order[s:]):
        t = src
        while particle[t] or out[t] is not None:
            t = t - 1 if t else n - 1
        out[t] = word[src] - 1
        if t > src:
            minus.append(word[src])
    return tuple(out), plus, minus


def _label_word_sweep(alpha, n: int, one, carry):
    """Sum a weight over all queues with row sizes alpha, row by row.

    A state is the label word of a row; it fixes every label below it, so
    queues that agree on a row's word are merged there.  ``one`` is the
    weight of the empty queue.  ``carry(acc, value, row, dq)`` adds to
    ``acc`` (None for a word not seen yet in the layer) the weight ``value``
    passed through a row with ball set ``row`` whose pairings add ``dq`` to
    ``maj_g``, and returns the sum.  Returns {bottom-row word: weight}.

    The sweep starts above the top row from the constant word L..L: pairing
    from it gives the top row's labels (L on particles, L-1 elsewhere) and
    never wraps, so the top row needs no case of its own.
    """
    _check_columns(n)
    alpha = _check_row_sizes(alpha)
    L = len(alpha)
    layer = {(L,) * n: one}
    for r in range(L, 0, -1):
        rows = list(combinations(range(1, n + 1), alpha[r - 1]))
        below = {}
        for word, value in layer.items():
            for row in rows:
                new, plus, minus = _label_row(word, row)
                dq = _wrap_weight(plus, minus, r)
                below[new] = carry(below.get(new), value, row, dq)
        layer = below
    return layer


def _check_columns(n):
    if not _is_count(n) or n < 1:
        raise ParseError(f"column count must be a positive int, got {n!r}")


def _check_row_sizes(alpha) -> tuple:
    """alpha as a tuple, or ParseError unless every row size is an int >= 0."""
    alpha = tuple(alpha)
    if not all(_is_count(a) and a >= 0 for a in alpha):
        raise ParseError(f"row sizes must be nonnegative ints, got {alpha!r}")
    return alpha


def maj_g(m: MultilineQueue) -> int:
    """Generalized major index: right wraps count positively, left wraps
    negatively, each weighted by label - source row + 1."""
    return sum(_wrap_weight(plus, minus, r) for r, _, plus, minus in _label_rows(m))


def sigma(m: MultilineQueue, i: int) -> MultilineQueue:
    """Row-swapping involution: rows i and i+1 exchange their cylindrically
    unmatched balls; the row-size vector picks up the transposition s_i."""
    if not 1 <= i < m.num_rows:
        raise BadRowIndex(f"i={i} with {m.num_rows} rows")
    upper, lower = set(m.row(i + 1)), set(m.row(i))
    if len(upper) == len(lower):
        return m
    _, opens, closes, _ = _two_row_match(upper, lower, cyclic=True)
    rows = [set(r) for r in m.rows]
    for c in opens:
        rows[i].remove(c)
        rows[i - 1].add(c)
    for c in closes:
        rows[i - 1].remove(c)
        rows[i].add(c)
    return m.with_rows(rows)


def _indicator_sets(word, top):
    """Nested supports {c : word_c >= j} for j = 1..top."""
    return [
        {c for c, v in enumerate(word, start=1) if v >= j} for j in range(1, top + 1)
    ]


def energy_levels(m: MultilineQueue):
    """Wrapping counts per adjacent row pair and indicator level.

    Entry (r, j) counts the wrapping pairings of the level-j indicator of the
    labels of row r against the queue at row r-1.
    """
    labels, _, _ = label_gmlq(m)
    L = m.num_rows
    table = {}
    for r in range(2, L + 1):
        word = [labels[(r, c)] for c in range(1, m.n + 1)]
        below = set(m.row(r - 1))
        for j, support in enumerate(_indicator_sets(word, L), start=1):
            _, _, _, wrapping = _two_row_match(support, below, cyclic=True)
            table[(r, j)] = len(wrapping)
    return table


def energy_h(m: MultilineQueue) -> int:
    """Total energy: sum of all wrapping counts in the level table."""
    return sum(energy_levels(m).values())


def enumerate_mlq(lam, n: int):
    """All multiline queues of shape lam on n columns, lexicographically."""
    return enumerate_gmlq(conjugate(check_partition(lam)), n)


def enumerate_gmlq(alpha, n: int):
    """All queues with row sizes alpha on n columns, bottom row slowest."""
    _check_columns(n)
    alpha = _check_row_sizes(alpha)
    if any(a > n for a in alpha):
        raise TooNarrow(f"row sizes {alpha} exceed {n} columns")
    per_row = [combinations(range(1, n + 1), a) for a in alpha]
    for rows in product(*per_row):
        yield MultilineQueue(n, rows)


def count_mlq(lam, n: int) -> int:
    return prod_binom(conjugate(lam), n)


def prod_binom(sizes, n: int) -> int:
    out = 1
    for a in sizes:
        out *= comb(n, a)
    return out


def stationary_counts(lam, n: int):
    """How many queues of shape lam project onto each bottom-row state."""
    lam = check_partition(lam)
    _check_columns(n)
    if len(lam) > n:
        raise TooNarrow(f"{len(lam)} particle types on {n} sites")
    return _label_word_sweep(
        conjugate(lam), n, 1, lambda acc, value, row, dq: value + (acc or 0)
    )


def all_binary_matrices(num_rows: int, n: int):
    """Every generalized queue on num_rows rows and n columns."""
    cells = [(r, c) for r in range(1, num_rows + 1) for c in range(1, n + 1)]
    for mask in range(1 << len(cells)):
        rows = [[] for _ in range(num_rows)]
        for k, (r, c) in enumerate(cells):
            if mask >> k & 1:
                rows[r - 1].append(c)
        yield MultilineQueue(n, rows)

