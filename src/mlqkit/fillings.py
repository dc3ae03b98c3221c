"""Column fillings of the conjugate diagram and their statistics.

For a partition lam, the diagram consists of bottom-justified columns of
heights lam_1 >= lam_2 >= ...; a filling assigns a letter in 1..n to every
cell.  Fillings with no counterclockwise cyclically-decreasing triples are
the tableau avatars of multiline queues: exactly one exists per tuple of row
contents, and its descent statistic matches the queue's major index.

That filling is read off the queueing procedure.  Take columns i < j, with
x the entry of column i in row r+1, y its entry in row r and z the entry of
column j in row r.  The triple is cyclically decreasing exactly when z lies
in the cyclic interval [x, y], so coquinv = 0 says that every ball of row r
in [x, y) belongs to an earlier column: column i takes the first ball weakly
right of x, cyclically, that no earlier column has taken.  The degenerate
triples make the entries of the columns that start in row r increase.  So
the coquinv-free filling is unique, and one top-down pass builds it.
"""

import json
from dataclasses import dataclass
from itertools import pairwise, zip_longest

from .core import (
    _as_rows, _check_count, _check_instance, _check_letters, _is_count, _text, check_partition,
    conjugate,
)
from .errors import BadRowIndex, InvariantError, NotCoquinvFree, OutOfRange, ParseError
from .mlq import MultilineQueue, _label_layer, enumerate_mlq


@dataclass(frozen=True)
class ColumnFilling:
    """A filling of the diagram of shape with letters in 1..n, by default the
    largest entry; ``_of`` is the engine's trusted constructor."""

    shape: tuple  # column heights, weakly decreasing
    rows: tuple  # row r (bottom-up) lists entries for columns 1..width(r)
    n: int  # alphabet size; entries lie in 1..n

    def __init__(self, shape, rows, n=None):
        shape = check_partition(shape)
        rows = _as_rows(rows)
        if tuple(len(r) for r in rows) != conjugate(shape):
            raise ParseError(f"rows {rows} do not fill the diagram of {shape}")
        top = max(_check_letters(v for r in rows for v in r), default=1)
        n = top if n is None else _check_count(n, top)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "n", n)

    @classmethod
    def _of(cls, shape, rows, n):
        """The filling with these fields, unchecked: shape a partition, rows
        tuples of ints in 1..n that fill its diagram, n a positive int."""
        self = object.__new__(cls)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "n", n)
        return self

    def entry(self, r, c):
        """Entry at row r, column c (both 1-based); ``row_content``'s error
        for r, OutOfRange unless c is a count in 1..its length."""
        row = self.row_content(r)
        if not (_is_count(c) and 1 <= c <= len(row)):
            raise OutOfRange(f"column {c!r} of row {r} with {len(row)} cells")
        return row[c - 1]

    def height(self, c):
        """Height of column c (1-based); OutOfRange unless c is a count in
        1..the number of columns."""
        if not (_is_count(c) and 1 <= c <= len(self.shape)):
            raise OutOfRange(f"column {c!r} with {len(self.shape)} columns")
        return self.shape[c - 1]

    def num_rows(self):
        return len(self.rows)

    def row_content(self, r):
        """Row r (1-based); BadRowIndex unless r is a count in
        1..num_rows."""
        if not (_is_count(r) and 1 <= r <= len(self.rows)):
            raise BadRowIndex(f"row {r!r} with {len(self.rows)} rows")
        return self.rows[r - 1]

    def to_text(self):
        """<shape>;<rows>, the column heights split by comma, the rows bottom
        first split by /, each its entries split by space; ;n=<n> follows
        when n is above the largest entry, ``parse_filling``'s default."""
        body = " / ".join(" ".join(str(v) for v in r) for r in self.rows)
        text = f"{','.join(map(str, self.shape))};{body}"
        if self.n > max((v for r in self.rows for v in r), default=1):
            text += f";n={self.n}"
        return text

    def to_json(self):
        rows = [list(r) for r in self.rows]
        return json.dumps({"shape": list(self.shape), "rows": rows, "n": self.n})

    def __str__(self):
        return self.to_text()


def parse_filling(text: str) -> ColumnFilling:
    text = _text(text)
    try:
        if text.startswith("{"):
            data = json.loads(text)
            return ColumnFilling(data["shape"], data["rows"], data.get("n"))
        shape_part, _, body = text.partition(";")
        body, bounded, n = body.partition(";n=")
        shape = tuple(int(v) for v in shape_part.split(",") if v)
        rows = [[int(v) for v in part.split()] for part in body.split("/")]
        return ColumnFilling(shape, [r for r in rows if r], int(n) if bounded else None)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad filling {text!r}") from exc


def coquinv(tau: ColumnFilling) -> int:
    """Count of cyclically decreasing triples, degenerate ones included.

    A triple sits at columns i < j: cells (r, i) above, (r-1, i) below,
    (r-1, j) to the right, and it is cyclically decreasing when, read
    above, below, right-of-below, it falls counterclockwise: x > y >= z,
    y >= z >= x or z >= x > y.  When column i ends at row r-1 the top cell
    is missing and the triple counts iff entry(r-1, i) >= entry(r-1, j).

    The stored rows are read pairwise: for each cell y of a row and the
    cell x above it, the cells z right of y count when they lie in [x, y]
    if x <= y, and outside (y, x) otherwise.  A missing top cell reads 0,
    below every entry, so its triples count when z <= y.  Every triple is
    counted, as ``filling_of_mlq`` runs this as its check.
    """
    _check_instance(tau, ColumnFilling)
    rows = tau.rows
    total = 0
    for below, above in zip_longest(rows, rows[1:], fillvalue=()):
        for i, y in enumerate(below):
            x = above[i] if i < len(above) else 0
            if x <= y:
                for z in below[i + 1:]:
                    if x <= z <= y:
                        total += 1
            else:
                for z in below[i + 1:]:
                    if z <= y or z >= x:
                        total += 1
    return total


def maj_filling(tau: ColumnFilling) -> int:
    """Descents weighted by leg + 1: cells exceeding the cell below them."""
    _check_instance(tau, ColumnFilling)
    total = 0
    for r, (below, above) in enumerate(pairwise(tau.rows), start=1):
        for x, y, height in zip(above, below, tau.shape):
            if x > y:  # a descent in row r + 1 (1-based): its leg + 1
                total += height - r
    return total


def filling_of_mlq(m: MultilineQueue) -> ColumnFilling:
    """The unique coquinv-free filling with the queue's row contents.

    Built top-down by the pairing rule: the top row's balls go left to
    right, and in each lower row the columns of the row above, in order,
    take the first free ball weakly right of their entry, cyclically; the
    balls left over start new columns in increasing order.  This is the
    only coquinv-free choice (see the module docstring), and the result is
    checked against ``coquinv``.

    Each row takes its labels straight from ``mlq._label_layer``, with no
    wrap read off: only the columns above walk, and the leftovers, the
    last class to pair, are filled in.
    """
    _check_instance(m, MultilineQueue)
    shape = m.shape()
    rows = []
    above = ()
    for here in reversed(m.rows):
        if not here:
            continue
        # with w columns above, column i's entry gets priority w - i + 1 and
        # every other site 0: the columns pair in order, leftovers read 0
        w = len(above)
        word = [0] * m.n
        for i, x in enumerate(above, start=1):
            word[x - 1] = w - i + 1
        word = tuple(word)
        (labels,) = _label_layer(word, len(here), [here], {})
        above = tuple(sorted(here, key=lambda c: -labels[c - 1]))
        rows.append(above)
    tau = ColumnFilling._of(shape, tuple(rows[::-1]), m.n)
    if coquinv(tau):
        raise InvariantError(f"filling {tau} of {m} is not coquinv-free")
    return tau


def mlq_of_filling(tau: ColumnFilling) -> MultilineQueue:
    """Queue with the same row contents; requires a coquinv-free filling."""
    if coquinv(tau) != 0:
        raise NotCoquinvFree(tau.to_text())
    return MultilineQueue(tau.n, tau.rows)


def enumerate_coquinv_free(lam, n: int):
    """The coquinv-free filling for every admissible tuple of row contents."""
    for m in enumerate_mlq(lam, n):
        yield filling_of_mlq(m)
