"""Semistandard Young tableaux: validation, reading words, insertion,
enumeration and Littlewood-Richardson counting.

Tableaux are stored in French orientation: rows listed bottom row first,
weakly increasing left to right, strictly increasing up each column.  This
module is a leaf of the package: it knows nothing of multiline queues.  The
bijections between tableaux and nonwrapping queues are collapsing, so they
live in ``collapse``.

One kernel, ``_strips``, grows a shape by its horizontal strips under one
room rule (``_rooms``), each weighted by psi; every strip comes from it.  On
it, ``_strip_chains`` enumerates every semistandard filling as a chain of
strips, one per letter, as collapsing adds them.  Two sweeps count the
chains from inner to outer without listing them: ``_kostka_sweep`` the skew
Kostka numbers K_{outer/inner,nu}, or with psi, the t = 0 branching rule of
the q-Whittaker polynomials, and ``lr_coefficient`` the chains under the
lattice rule, which the kernel keeps as it places each strip (Fulton, Young
Tableaux, section 5).

The chains are the lazy public enumeration, so ``_strip_chains`` and its
enumerators are generators; the few, tiny strips and sweep layers are not.
"""

import json
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, pairwise

from .charge import _q_binomials, _unpacked, charge as _charge
from .core import (
    _as_rows, _check_composition, _check_count, _check_instance, _check_letters, _is_count, _text,
    check_partition, content,
)
from .errors import InvariantError, OutOfRange, ParseError, SizeMismatch


@dataclass(frozen=True)
class Tableau:
    """A semistandard tableau, rows bottom row first.

    The public constructor is the boundary: it drops empty rows, stores
    each row as a tuple and raises ParseError unless the rows fill a
    partition shape semistandardly (``_check_semistandard``).  ``_of`` is
    the engine's trusted constructor for rows built under those rules; it
    checks nothing.
    """

    rows: tuple

    def __init__(self, rows):
        rows = tuple(filter(None, _as_rows(rows)))
        _check_semistandard(tuple(len(r) for r in rows), (), rows)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _of(cls, rows):
        """The tableau with field rows, unchecked: rows must be a tuple of
        nonempty tuples of positive ints, of weakly decreasing lengths,
        weakly increasing along each row and strictly up each column."""
        self = object.__new__(cls)
        object.__setattr__(self, "rows", rows)
        return self

    def shape(self):
        return tuple(len(r) for r in self.rows)

    def content(self):
        return content([v for r in self.rows for v in r])

    def entry_max(self):
        return max((v for r in self.rows for v in r), default=0)

    def column(self, c):
        """Column c bottom-up, () past the width; OutOfRange unless c >= 1."""
        if not (_is_count(c) and c >= 1):
            raise OutOfRange(f"column {c!r} is not an int >= 1")
        return tuple(r[c - 1] for r in self.rows if len(r) >= c)

    def to_text(self):
        return " / ".join(" ".join(str(v) for v in r) for r in self.rows)

    def to_json(self):
        return json.dumps({"rows": [list(r) for r in self.rows]})

    def __str__(self):
        return self.to_text()


def parse_tableau(text: str) -> Tableau:
    text = _text(text)
    if text.startswith("{"):
        try:
            return Tableau(json.loads(text)["rows"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad tableau json {text!r}") from exc
    if not text:
        return Tableau([])
    try:
        rows = [[int(v) for v in part.split()] for part in text.split("/")]
    except ValueError as exc:
        raise ParseError(f"bad tableau {text!r}") from exc
    return Tableau([r for r in rows if r])


@dataclass(frozen=True)
class SkewTableau:
    """Filling of outer/inner with the inner cells empty.

    The public constructor is the boundary: it stores each row as a tuple,
    pads inner with zeros to the length of outer (and takes it back padded)
    and raises ParseError unless the rows fill outer/inner semistandardly
    (``_check_semistandard``).  ``_of`` is the engine's trusted constructor
    for fillings built under those rules; it checks nothing.
    """

    outer: tuple
    inner: tuple
    rows: tuple  # filled cells only, row r starts at column inner_r + 1

    def __init__(self, outer, inner, rows):
        rows = _as_rows(rows)
        outer, inner = _check_semistandard(outer, inner, rows)
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _of(cls, outer, inner, rows):
        """The skew tableau with these fields, unchecked: outer a partition
        as a tuple, inner a tuple of the same length inside it, and rows a
        tuple of tuples, row r of outer_r - inner_r positive ints, weakly
        increasing along each row and strictly up each column."""
        self = object.__new__(cls)
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "rows", rows)
        return self

    def is_straight(self):
        return all(v == 0 for v in self.inner)


def _check_semistandard(outer, inner, rows):
    """(outer, inner padded with zeros to the length of outer), or
    ParseError unless rows, bottom row first, fill outer/inner
    semistandardly: both shapes are partitions (inner maybe padded with
    zeros), inner lies inside outer, row r holds outer_r - inner_r positive
    ints weakly increasing, and each column strictly increases upward."""
    outer = check_partition(outer)
    inner = _check_composition(inner)
    while inner and not inner[-1]:
        inner = inner[:-1]  # the padding that a stored inner carries
    inner = _inner_of(outer, check_partition(inner))
    if inner is None:
        raise ParseError("inner shape not contained in outer")
    _check_letters(v for r in rows for v in r)
    if len(rows) != len(outer):
        raise ParseError("one filled segment per outer row expected")
    for i, r in enumerate(rows):
        if len(r) != outer[i] - inner[i]:
            raise ParseError(f"row {i + 1} has wrong length")
        if list(r) != sorted(r):
            raise ParseError(f"row {r} not weakly increasing")
    # inner is a partition, so the cell above cell k of a row is cell
    # k + inner_i - inner_{i+1} of the row above
    for below, above, a, b in zip(rows, rows[1:], inner, inner[1:]):
        if any(x >= y for x, y in zip(below, above[a - b:])):
            raise ParseError("columns not strictly increasing")
    return outer, inner


def _inner_of(outer, inner):
    """inner padded with zeros to the length of outer, or None unless the
    diagram of inner lies inside the diagram of outer."""
    if any(v > (outer[k] if k < len(outer) else 0) for k, v in enumerate(inner)):
        return None
    return inner[: len(outer)] + (0,) * (len(outer) - len(inner))


def row_reading_word(t: Tableau):
    """Rows scanned top to bottom, left to right in each row."""
    _check_instance(t, Tableau)
    return tuple(v for row in reversed(t.rows) for v in row)


def column_reading_word(t: Tableau):
    """Columns scanned left to right, top down within each column."""
    _check_instance(t, Tableau)
    width = len(t.rows[0]) if t.rows else 0
    out = []
    for c in range(1, width + 1):
        out.extend(reversed(t.column(c)))
    return tuple(out)


def tableau_charge(t: Tableau) -> int:
    """Charge of the row reading word (needs partition content)."""
    return _charge(row_reading_word(t))


def _rows_of_columns(cols) -> tuple:
    """The rows, bottom row first, of the columns cols, each listed
    bottom-up; None unless the column lengths weakly decrease.  Each column
    is appended to the rows it reaches, which are then all the rows."""
    if any(len(a) < len(b) for a, b in pairwise(cols)):
        return None
    rows = [[] for _ in cols[0]] if cols else []
    for col in cols:
        for row, v in zip(rows, col):
            row.append(v)
    return tuple(map(tuple, rows))


def column_insert(word) -> Tableau:
    """Column insertion of a word into the empty tableau; ParseError unless
    its letters are positive ints, then ``_column_insert``."""
    return _column_insert(_check_letters(word))


def _column_insert(word) -> Tableau:
    """Column insertion of a tuple of positive ints, unchecked.

    Columns increase strictly, so the entry that x bumps, the lowest one
    >= x, is found by bisection.  That the column lengths weakly decrease
    and the rows weakly increase is Schensted's theorem, so those two are
    checked (InvariantError) and the tableau is built unchecked otherwise.
    """
    cols = []
    for letter in word:
        x = letter
        for col in cols:
            bump = bisect_left(col, x)
            if bump == len(col):
                col.append(x)
                x = None
                break
            col[bump], x = x, col[bump]
        if x is not None:
            cols.append([x])
    rows = _rows_of_columns(cols)
    if rows is None or any(a > b for row in rows for a, b in pairwise(row)):
        raise InvariantError(f"column insertion of {word!r} gave columns {cols}")
    return Tableau._of(rows)


def superstandard(lam) -> Tableau:
    """Tableau of shape lam whose row r is filled with r's; ParseError
    unless lam is a partition."""
    return Tableau([[r] * k for r, k in enumerate(check_partition(lam), start=1)])


def _rooms(outer, shape):
    """The cells each row of the partition shape, padded with zeros to the
    length of outer, may gain in one horizontal strip inside outer: row i
    may grow until it is as long as row i - 1 was, or outer_i."""
    rooms = []
    low = outer[0] if outer else 0
    for o, high in zip(outer, shape):
        rooms.append((o if o < low else low) - high)
        low = high
    return rooms


def _strips(outer, shape, binomials, size=None, before=None):
    """The horizontal strips on shape inside outer as {cells added: [(new,
    w)]}, each list in lexicographic order of new, shape a partition padded
    with zeros to the length of outer: row i of new runs from shape_i up by
    at most ``_rooms``.  With size, only the strips of size cells, and with
    before too, the shape before the last strip, only those that keep the
    lattice rule of ``lr_coefficient``.

    w is psi_{new/shape}(q, 0), Macdonald VI (6.24), the product over rows
    i of [new_i - new_{i+1} choose new_i - shape_i]_q from the caller's
    table binomials[b][a] = [a choose b]_q for a, b <= outer_1 (packed, or
    all 1 to count).  As new interlaces shape, new_{i+1} <= shape_i, so
    b <= a at every read: the entries with b > a are never read.  The
    rows are placed from row 0, and row i's factor joins the running weight
    once new_{i+1} is placed.  Rows without room, and with size those after
    the last cell, keep their length; row i takes at least the cells that
    the rows after it have no room for.
    """
    caps = None  # the lattice caps on rows 0 to i together, weakly increasing
    if before is not None:
        caps = list(accumulate(map(int.__sub__, shape[:-1], before), initial=0))
        if caps[-1] < size:
            return {}
    rooms = _rooms(outer, shape)
    first, last = 0, len(rooms) - 1
    while last >= 0 and not rooms[last]:
        last -= 1
    if size is not None:
        later = list(accumulate(reversed(rooms[: last + 1]), initial=0))[::-1]  # room in rows i on
        if size > later[0]:
            return {}
    if last < 0:
        return {0: [(shape, 1)]}
    while not rooms[first]:
        first += 1
    nexts = shape[1:] + (0,)
    new = list(shape)
    out = {}

    def grow(i, added, w, above, gained):
        # rows before i are placed, and row i - 1 grew by gained to above
        base = shape[i]
        low, high, full = base, base + rooms[i], -1
        if size is not None:
            full = base + size - added  # row i's length once it places every cell
            if full < high:
                high = full
            if caps and base + caps[i] - added < high:
                high = base + caps[i] - added
            if full - later[i + 1] > low:
                low = full - later[i + 1]
        column = binomials[gained]
        for v in range(low, high + 1):
            new[i] = v
            if i < last and v != full:
                grow(i + 1, added + v - base, w * column[above - v], v, v - base)
                continue
            f = w * column[above - v] * binomials[v - base][v - nexts[i]]
            if added + v - base in out:
                out[added + v - base].append((tuple(new), f))
            else:
                out[added + v - base] = [(tuple(new), f)]
        new[i] = base

    # before row first, every factor is [a choose 0] = 1
    grow(first, 0, 1, shape[first - 1] if first else outer[0], 0)
    return out


def _strip_chains(sizes, outer, inner):
    """The filled rows, bottom row first, of every semistandard filling of
    horizontal strips inside outer on inner (padded with zeros), letter i
    adding sizes[i - 1] cells, or any number where that is None.

    Free letters fill outer/inner: a free letter with L letters to come
    keeps the strips of every size that leave row j at least outer[j + L]
    long.  Fixed sizes fill sum(sizes) cells, so in a box outer the rows
    may end short.  The strips of a (shape, letter), ``_strips`` in
    lexicographic order of new, are found once per call.
    """
    rows, known = [() for _ in inner], {}  # known: (shape, letter): [(new, cells)]
    ones = [[1] * (outer[0] + 1)] * (outer[0] + 1) if outer else None

    def place(letter, shape, left):
        key = shape, letter
        if key not in known:
            size = sizes[letter - 1]
            floor = outer[len(sizes) - letter:] if size is None else ()
            known[key] = sorted(
                (new, added) for added, strips in _strips(outer, shape, ones, size).items()
                for new, _ in strips if all(map(int.__ge__, new, floor))
            )
        for new, added in known[key]:
            saved = rows[:]
            for i, (a, b) in enumerate(zip(shape, new)):
                if b > a:
                    rows[i] += (letter,) * (b - a)
            if left == added:
                yield tuple(rows)
            else:
                yield from place(letter + 1, new, left - added)
            rows[:] = saved

    cells = sum(outer) - sum(inner) if None in sizes else sum(sizes)
    yield from place(1, tuple(inner), cells) if cells else [tuple(rows)]


def _kostka_sweep(outer, inner, n, weighted=False):
    """The m-basis form {(e, nu): c} of s_{outer/inner} on n variables, or
    weighted, of the q-Whittaker polynomial P_outer(x; q, 0) from inner =
    (): every c nonzero and every nu a partition with at most n parts.

    A filling of outer/inner with content nu is a chain of horizontal strips
    of sizes nu_1, nu_2, ... from inner, so the skew Kostka numbers are a
    shape-to-count sweep; partitions that share a prefix share its sweep,
    and a prefix that no strip extends ends there.  Shapes stay padded to
    the length of outer, the one shape left once every cell is placed, and
    the strips of each, of every size, are found once per call
    (``_strips``).  The sweep is plain recursion into one dict.

    Weighted, a chain counts as the product of its strips' psi, the t = 0
    branching rule, on ints packed at q = 2^width, width = outer_1 n + 1:
    ``charge._q_binomials`` builds the table binomials[b][a] = [a choose
    b]_q, a, b <= outer_1, that ``_strips`` reads, 0 at b > a, never read.
    Packing evaluates at q = 2^width, so the sums are exact, and each
    unpacks once: from inner = (), state (sigma, nu_1..nu_k) is the x^nu
    coefficient of P_sigma(x_1..x_k; q, 0), at q = 1 that of e_{sigma'}
    (Macdonald VI (4.14)): the number of 0/1 matrices with row sums sigma'
    and column sums nu_1..nu_k, at most 2^(sigma_1 k) < 2^width, and no
    coefficient exceeds its value at q = 1.
    """
    top = outer[0] if outer else 0
    width, grown, out = top * n + 1, {}, {}  # grown: shape: its strips by size
    binomials = _q_binomials([], top, width) if weighted else [[1] * (top + 1)] * (top + 1)

    def extend(nu, left, top, layer):
        slots = n - len(nu)
        for part in range(min(top, left), 0, -1):
            if part * slots < left:
                break
            below = {}
            for shape, count in layer.items():
                strips = grown.get(shape)
                if strips is None:
                    strips = grown[shape] = _strips(outer, shape, binomials)
                for new, w in strips.get(part, ()):
                    below[new] = below.get(new, 0) + w * count
            if not below:
                continue
            if part < left:
                extend(nu + (part,), left - part, part, below)
            elif weighted:
                for e, c in enumerate(_unpacked(below[outer], width)):
                    if c:
                        out[e, nu + (part,)] = c
            else:
                out[0, nu + (part,)] = below[outer]

    cells = sum(outer) - sum(inner)
    if cells:
        extend((), cells, top, {inner + (0,) * (len(outer) - len(inner)): 1})
    else:
        out[0, ()] = 1
    return out


def _skew_chains(outer, inner, max_entry=None, weight=None):
    """(outer, padded inner, the ``_strip_chains`` of outer/inner with
    entries at most max_entry or content weight, none unless inner lies
    inside outer); ParseError unless exactly one bound is given, and valid."""
    if (max_entry is None) == (weight is None):
        raise ParseError("give exactly one of max_entry and weight")
    sizes = (None,) * _check_count(max_entry) if weight is None else _check_composition(weight)
    outer = check_partition(outer)
    inner = _inner_of(outer, check_partition(inner))
    if inner is None or (None not in sizes and sum(sizes) != sum(outer) - sum(inner)):
        return outer, inner, ()
    return outer, inner, _strip_chains(sizes, outer, inner)


def enumerate_ssyt(shape, max_entry=None, weight=None):
    """All semistandard tableaux of the given shape.

    Either cap the alphabet with max_entry or fix the content with weight.
    The chains of horizontal strips fill the rows under the semistandard
    rules, so the tableaux are built unchecked.
    """
    for rows in _skew_chains(shape, (), max_entry, weight)[2]:
        yield Tableau._of(rows)


def enumerate_skew_ssyt(outer, inner, max_entry=None, weight=None):
    """All skew semistandard tableaux of shape outer/inner; none unless
    inner lies inside outer.  Built unchecked, as in ``enumerate_ssyt``."""
    outer, padded, chains = _skew_chains(outer, inner, max_entry, weight)
    for rows in chains:
        yield SkewTableau._of(outer, padded, rows)


def straighten(t: SkewTableau):
    """Fill the inner cells of row j with j-th hatted letters.

    Hatted letters come before the ordinary alphabet; internally hat-j is
    encoded as j and ordinary v as v + len(inner).  Returns the straight
    tableau and the number of hatted letters.
    """
    _check_instance(t, SkewTableau)
    ell = sum(1 for v in t.inner if v > 0)
    rows = []
    for r in range(len(t.outer)):
        hats = [r + 1] * t.inner[r]
        rows.append(hats + [v + ell for v in t.rows[r]])
    return Tableau([r for r in rows if r]), ell


def lr_coefficient(lam, mu, nu) -> int:
    """Littlewood-Richardson coefficient, skew or product form.

    With |lam| = |mu| + |nu| this is c^lam_{mu,nu}; with |lam| + |mu| = |nu|
    it is c^nu_{lam,mu}: the skew tableaux of content nu (or mu) whose
    reverse reading word (rows bottom to top, each right to left) is
    lattice, letter i filling at most as many cells of rows 0 to r as letter
    i - 1 fills in rows 0 to r - 1.  A sweep of states (shape before the
    last strip, shape) -> count counts them on the strips ``_strips`` keeps.
    """
    lam, mu, nu = (check_partition(p) for p in (lam, mu, nu))
    if sum(lam) == sum(mu) + sum(nu):
        top, inner, weight = lam, mu, nu
    elif sum(lam) + sum(mu) == sum(nu):
        top, inner, weight = nu, lam, mu
    else:
        raise SizeMismatch(f"|{lam}|, |{mu}|, |{nu}| fit neither form")
    inner = _inner_of(top, inner)
    ones = [[1] * (top[0] + 1)] * (top[0] + 1) if top else None
    layer = {} if inner is None else {(None, inner): 1}
    for size in weight:
        below = {}
        for (before, shape), count in layer.items():
            for new, _ in _strips(top, shape, ones, size, before).get(size, ()):
                below[shape, new] = below.get((shape, new), 0) + count
        layer = below
    return sum(layer.values())
