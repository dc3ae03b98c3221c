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

from .core import _is_count, check_partition, conjugate
from .errors import InvariantError, NotCoquinvFree, NotStraight, ParseError
from .mlq import MultilineQueue, _label_row, enumerate_mlq


@dataclass(frozen=True)
class ColumnFilling:
    shape: tuple  # column heights, weakly decreasing
    rows: tuple  # row r (bottom-up) lists entries for columns 1..width(r)
    n: int  # alphabet size; entries lie in 1..n

    def __init__(self, shape, rows, n=None):
        shape = check_partition(shape)
        rows = tuple(tuple(r) for r in rows)
        if tuple(len(r) for r in rows) != conjugate(shape):
            raise ParseError(f"rows {rows} do not fill the diagram of {shape}")
        if any(v <= 0 for r in rows for v in r):
            raise ParseError("entries must be positive")
        top = max((v for r in rows for v in r), default=1)
        if n is None:
            n = top
        elif not _is_count(n) or n < top:
            raise ParseError(f"alphabet size {n!r} below the largest entry {top}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "n", n)

    def entry(self, r, c):
        """Entry at row r, column c (both 1-based)."""
        return self.rows[r - 1][c - 1]

    def height(self, c):
        return self.shape[c - 1]

    def num_rows(self):
        return len(self.rows)

    def row_content(self, r):
        return self.rows[r - 1]

    def to_text(self):
        return " / ".join(" ".join(str(v) for v in r) for r in self.rows)

    def to_json(self):
        rows = [list(r) for r in self.rows]
        return json.dumps({"shape": list(self.shape), "rows": rows, "n": self.n})

    def __str__(self):
        return self.to_text()


def parse_filling(text: str) -> ColumnFilling:
    text = text.strip()
    try:
        if text.startswith("{"):
            data = json.loads(text)
            return ColumnFilling(data["shape"], data["rows"], data.get("n"))
        shape_part, _, body = text.partition(";")
        shape = tuple(int(v) for v in shape_part.split(",") if v)
        rows = [[int(v) for v in part.split()] for part in body.split("/")]
        return ColumnFilling(shape, [r for r in rows if r])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad filling {text!r}") from exc


def _cyclically_decreasing(x, y, z) -> bool:
    """Counterclockwise decrease for the triple (above, below, right-of-below)."""
    return (x > y >= z) or (y >= z >= x) or (z >= x > y)


def coquinv(tau: ColumnFilling) -> int:
    """Count of cyclically decreasing triples, degenerate ones included.

    A triple sits at columns i < j: cells (r, i) above, (r-1, i) below,
    (r-1, j) to the right.  When column i ends at row r-1 the top cell is
    missing and the triple counts iff entry(r-1, i) >= entry(r-1, j).
    """
    shape = tau.shape
    total = 0
    for r in range(2, (shape[0] if shape else 0) + 2):
        for i in range(1, len(shape) + 1):
            if shape[i - 1] < r - 1:
                break
            for j in range(i + 1, len(shape) + 1):
                if shape[j - 1] < r - 1:
                    break
                y = tau.entry(r - 1, i)
                z = tau.entry(r - 1, j)
                if shape[i - 1] >= r:
                    if _cyclically_decreasing(tau.entry(r, i), y, z):
                        total += 1
                elif y >= z:
                    total += 1
    return total


def maj_filling(tau: ColumnFilling) -> int:
    """Descents weighted by leg + 1: cells exceeding the cell below them."""
    total = 0
    for r in range(2, tau.num_rows() + 1):
        for c in range(1, len(tau.rows[r - 1]) + 1):
            if tau.entry(r, c) > tau.entry(r - 1, c):
                total += tau.height(c) - r + 1
    return total


def filling_of_mlq(m: MultilineQueue) -> ColumnFilling:
    """The unique coquinv-free filling with the queue's row contents.

    Built top-down by the pairing rule: the top row's balls go left to
    right, and in each lower row the columns of the row above, in order,
    take the first free ball weakly right of their entry, cyclically; the
    balls left over start new columns in increasing order.  This is the
    only coquinv-free choice (see the module docstring), and the result is
    checked against ``coquinv``.
    """
    if not m.is_straight():
        raise NotStraight(f"row sizes {m.row_sizes()}")
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
        labels, _, _ = _label_row(tuple(word), here)
        above = tuple(sorted(here, key=lambda c: -labels[c - 1]))
        rows.append(above)
    tau = ColumnFilling(m.shape(), rows[::-1], m.n)
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
