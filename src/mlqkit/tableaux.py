"""Semistandard Young tableaux, insertion, and the nonwrapping-queue bijections.

Tableaux are stored in French orientation: rows listed bottom row first,
weakly increasing left to right, strictly increasing up each column.
"""

import json
from dataclasses import dataclass
from itertools import combinations, product

from .charge import charge as _charge
from .core import _is_count, check_partition, conjugate, content, is_lattice, is_partition
from .errors import (
    AlphabetTooSmall,
    ColumnMismatch,
    InvariantError,
    NonPartitionContent,
    NotNonwrapping,
    OutOfRange,
    ParseError,
    SizeMismatch,
)
from .matching import reflect


@dataclass(frozen=True)
class Tableau:
    rows: tuple

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows if r)
        lengths = [len(r) for r in rows]
        _check_entries(rows)
        if any(lengths[i] < lengths[i + 1] for i in range(len(rows) - 1)):
            raise ParseError(f"row lengths {lengths} not weakly decreasing")
        for r in rows:
            if any(r[i] > r[i + 1] for i in range(len(r) - 1)):
                raise ParseError(f"row {r} not weakly increasing")
        for i in range(len(rows) - 1):
            if any(rows[i][j] >= rows[i + 1][j] for j in range(len(rows[i + 1]))):
                raise ParseError("columns not strictly increasing")
        object.__setattr__(self, "rows", rows)

    def shape(self):
        return tuple(len(r) for r in self.rows)

    def size(self):
        return sum(len(r) for r in self.rows)

    def content(self):
        return content([v for r in self.rows for v in r])

    def entry_max(self):
        return max((v for r in self.rows for v in r), default=0)

    def column(self, c):
        """Column c bottom-up (1-based)."""
        return tuple(r[c - 1] for r in self.rows if len(r) >= c)

    def to_text(self):
        return " / ".join(" ".join(str(v) for v in r) for r in self.rows)

    def to_json(self):
        return json.dumps({"rows": [list(r) for r in self.rows]})

    def __str__(self):
        return self.to_text()


def parse_tableau(text: str) -> Tableau:
    text = text.strip()
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
    """Filling of outer/inner with the inner cells empty."""

    outer: tuple
    inner: tuple
    rows: tuple  # filled cells only, row r starts at column inner_r + 1

    def __init__(self, outer, inner, rows):
        outer = tuple(outer)
        inner = _inner_of(outer, inner)
        rows = tuple(tuple(r) for r in rows)
        if inner is None:
            raise ParseError("inner shape not contained in outer")
        _check_entries(rows)
        if len(rows) != len(outer):
            raise ParseError("one filled segment per outer row expected")
        for i, r in enumerate(rows):
            if len(r) != outer[i] - inner[i]:
                raise ParseError(f"row {i + 1} has wrong length")
            if any(r[j] > r[j + 1] for j in range(len(r) - 1)):
                raise ParseError(f"row {r} not weakly increasing")
        for i in range(len(rows) - 1):
            for c in range(inner[i + 1] + 1, outer[i + 1] + 1):
                if inner[i] < c <= outer[i]:
                    below = rows[i][c - inner[i] - 1]
                    above = rows[i + 1][c - inner[i + 1] - 1]
                    if below >= above:
                        raise ParseError("columns not strictly increasing")
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "rows", rows)

    def size(self):
        return sum(len(r) for r in self.rows)

    def content(self):
        return content([v for r in self.rows for v in r])

    def is_straight(self):
        return all(v == 0 for v in self.inner)


def _check_entries(rows):
    if not all(type(v) is int and v > 0 for r in rows for v in r):
        raise ParseError(f"tableau entries must be positive ints, got {rows!r}")


def _inner_of(outer, inner):
    """inner padded with zeros to the length of outer, or None unless the
    diagram of inner lies inside the diagram of outer."""
    inner = tuple(inner)
    if any(v > (outer[k] if k < len(outer) else 0) for k, v in enumerate(inner)):
        return None
    return inner[: len(outer)] + (0,) * (len(outer) - len(inner))


def row_reading_word(t: Tableau):
    """Rows scanned top to bottom, left to right in each row."""
    return tuple(v for row in reversed(t.rows) for v in row)


def column_reading_word(t: Tableau):
    """Columns scanned left to right, top down within each column."""
    width = len(t.rows[0]) if t.rows else 0
    out = []
    for c in range(1, width + 1):
        out.extend(reversed(t.column(c)))
    return tuple(out)


def skew_rev_reading_word(t: SkewTableau):
    """Rows bottom to top, each read right to left (the lattice-rule word)."""
    return tuple(v for row in t.rows for v in reversed(row))


def tableau_charge(t: Tableau) -> int:
    """Charge of the row reading word (needs partition content)."""
    if not is_partition(t.content()):
        raise NonPartitionContent(f"content {t.content()}")
    return _charge(row_reading_word(t))


def ls_action(t: Tableau, i: int) -> Tableau:
    """Reflection on tableaux: reflect the column word, write it back."""
    flipped = reflect(column_reading_word(t), i)
    width = len(t.rows[0]) if t.rows else 0
    cells = []
    for c in range(width):
        for r in range(len(t.rows) - 1, -1, -1):
            if len(t.rows[r]) > c:
                cells.append((r, c))
    grid = [list(r) for r in t.rows]
    for (r, c), v in zip(cells, flipped):
        grid[r][c] = v
    return Tableau(grid)


def tableau_from_crw(word) -> Tableau:
    """Rebuild a tableau from its column reading word.

    Columns are the maximal strictly decreasing runs of the word.
    """
    cols = []
    for v in word:
        if cols and cols[-1][-1] > v:
            cols[-1].append(v)
        else:
            cols.append([v])
    height = len(cols[0]) if cols else 0
    if any(len(c) > height for c in cols):
        raise ParseError("runs do not form a tableau")
    rows = []
    for r in range(height):
        row = [col[len(col) - 1 - r] for col in cols if len(col) > r]
        rows.append(row)
    return Tableau(rows)


def column_insert(word) -> Tableau:
    """Column insertion of a word into the empty tableau."""
    cols = []
    for letter in word:
        x = letter
        for col in cols:
            bump = next((k for k, v in enumerate(col) if v >= x), None)
            if bump is None:
                col.append(x)
                x = None
                break
            col[bump], x = x, col[bump]
        if x is not None:
            cols.append([x])
    rows = []
    height = max((len(c) for c in cols), default=0)
    for r in range(height):
        rows.append([c[r] for c in cols if len(c) > r])
    return Tableau(rows)


def superstandard(lam) -> Tableau:
    """Tableau of shape lam whose row r is filled with r's."""
    return Tableau([[r] * k for r, k in enumerate(lam, start=1)])


def _ssyt_rows(outer, inner, max_entry, weight):
    """The filled rows of every semistandard filling of outer/inner, bottom
    row first; none unless inner lies inside outer.

    Exactly one of max_entry (the largest entry) and weight (the content, a
    tuple of ints >= 0) must be given.  Cells are filled row by row from the
    bottom, left to right, each with every value from the least its row and
    column allow upward.
    """
    outer = check_partition(outer)
    inner = _inner_of(outer, check_partition(inner))
    if (max_entry is None) == (weight is None):
        raise ParseError("give exactly one of max_entry and weight")
    if weight is None:
        if not _is_count(max_entry) or max_entry < 0:
            raise ParseError(f"max_entry must be an int >= 0, got {max_entry!r}")
        top, remaining = max_entry, None
    else:
        remaining = list(weight)
        if not all(_is_count(v) and v >= 0 for v in remaining):
            raise ParseError(f"weight must be ints >= 0, got {weight!r}")
        top = len(remaining)
    if inner is None:
        return
    if remaining is not None and sum(remaining) != sum(outer) - sum(inner):
        return
    cells = [(r, c) for r in range(len(outer)) for c in range(inner[r], outer[r])]
    grid = [[0] * k for k in outer]

    def fill(k):
        if k == len(cells):
            yield [row[i:] for row, i in zip(grid, inner)]
            return
        r, c = cells[k]
        low = grid[r][c - 1] if c > inner[r] else 1
        if r and c >= inner[r - 1]:  # the cell below is filled
            low = max(low, grid[r - 1][c] + 1)
        for v in range(low, top + 1):
            if remaining is not None:
                if remaining[v - 1] == 0:
                    continue
                remaining[v - 1] -= 1
            grid[r][c] = v
            yield from fill(k + 1)
            if remaining is not None:
                remaining[v - 1] += 1

    yield from fill(0)


def enumerate_ssyt(shape, max_entry=None, weight=None):
    """All semistandard tableaux of the given shape.

    Either cap the alphabet with max_entry or fix the content with weight.
    """
    for rows in _ssyt_rows(shape, (), max_entry, weight):
        yield Tableau(rows)


def enumerate_skew_ssyt(outer, inner, max_entry=None, weight=None):
    """All skew semistandard tableaux of shape outer/inner; none unless
    inner lies inside outer."""
    outer, inner = tuple(outer), tuple(inner)
    for rows in _ssyt_rows(outer, inner, max_entry, weight):
        yield SkewTableau(outer, inner, rows)


def mlq_of_tableau(t: Tableau, n=None):
    """Nonwrapping queue of the tableau: collapse the reverse column word."""
    from .collapse import collapse
    from .mlq import MultilineQueue

    if n is None:
        n = t.entry_max()
    if t.entry_max() > n:
        raise AlphabetTooSmall(f"entries up to {t.entry_max()}, n={n}")
    word = tuple(reversed(column_reading_word(t))) if t.rows else ()
    m = MultilineQueue(max(n, 1), [[v] for v in word])
    return collapse(m).queue.trimmed()


def tab_of_mlq(m) -> Tableau:
    """Column insertion of the row word; inverse of mlq_of_tableau."""
    from .mlq import is_nonwrapping, row_word

    if not is_nonwrapping(m):
        raise NotNonwrapping(m.to_text())
    return column_insert(row_word(m))


def insert_into_mlq(m, k: int):
    """Insert a ball at column k: new top row, then collapse."""
    from .collapse import collapse
    from .mlq import is_nonwrapping

    if not 1 <= k <= m.n:
        raise OutOfRange(f"column {k} outside 1..{m.n}")
    if not is_nonwrapping(m):
        raise NotNonwrapping(m.to_text())
    stacked = m.with_rows(list(m.trimmed().rows) + [(k,)])
    return collapse(stacked).queue.trimmed()


def straighten(t: SkewTableau):
    """Fill the inner cells of row j with j-th hatted letters.

    Hatted letters come before the ordinary alphabet; internally hat-j is
    encoded as j and ordinary v as v + len(inner).  Returns the straight
    tableau and the number of hatted letters.
    """
    ell = sum(1 for v in t.inner if v > 0)
    rows = []
    for r in range(len(t.outer)):
        hats = [r + 1] * t.inner[r]
        rows.append(hats + [v + ell for v in t.rows[r]])
    return Tableau([r for r in rows if r]), ell


@dataclass(frozen=True)
class BicoloredMLQ:
    """Nonwrapping queue whose first skew_columns columns are the skew part."""

    base: object
    skew_columns: int

    def skew_word(self):
        from .mlq import row_word

        return tuple(
            c for c in row_word(self.base) if c <= self.skew_columns
        )

    def straight_part(self):
        from .mlq import MultilineQueue

        k = self.skew_columns
        rows = [
            [c - k for c in row if c > k] for row in self.base.rows
        ]
        return MultilineQueue(max(self.base.n - k, 1), rows).trimmed()


def skew_to_mlq(t: SkewTableau, n=None) -> BicoloredMLQ:
    """Bicolored queue of a skew tableau via its straightening."""
    hat, ell = straighten(t)
    alphabet = max((v for r in t.rows for v in r), default=0)
    if n is None:
        n = alphabet
    if alphabet > n:
        raise AlphabetTooSmall(f"entries up to {alphabet}, n={n}")
    base = mlq_of_tableau(hat, n=n + ell)
    out = BicoloredMLQ(base, ell)
    if not is_lattice(out.skew_word()):
        raise InvariantError(f"skew word {out.skew_word()} is not lattice")
    return out


def rectify_by_mlq(t: SkewTableau) -> Tableau:
    """Rectification read off the straight columns of the bicolored queue."""
    if t.is_straight():
        return Tableau([r for r in t.rows if r])
    return tab_of_mlq(skew_to_mlq(t).straight_part())


def mult_mlq(m1, m2):
    """Stack m2 on top of m1 and collapse."""
    from .collapse import collapse

    if m1.n != m2.n:
        raise ColumnMismatch(f"{m1.n} vs {m2.n} columns")
    stacked = m1.with_rows(list(m1.rows) + list(m2.rows))
    return collapse(stacked)


def count_lattice_skew(outer, inner, weight) -> int:
    """Skew semistandard tableaux with lattice reverse reading word."""
    total = 0
    for t in enumerate_skew_ssyt(outer, inner, weight=tuple(weight)):
        if is_lattice(skew_rev_reading_word(t)):
            total += 1
    return total


def lr_coefficient(lam, mu, nu) -> int:
    """Littlewood-Richardson coefficient, skew or product form.

    With |lam| = |mu| + |nu| this is c^lam_{mu,nu}; with |lam| + |mu| = |nu|
    it is c^nu_{lam,mu}.
    """
    lam, mu, nu = (check_partition(p) for p in (lam, mu, nu))
    if sum(lam) == sum(mu) + sum(nu):
        top, inner, weight = lam, mu, nu
    elif sum(lam) + sum(mu) == sum(nu):
        top, inner, weight = nu, lam, mu
    else:
        raise SizeMismatch(f"|{lam}|, |{mu}|, |{nu}| fit neither form")
    return count_lattice_skew(top, inner, weight)


def lr_coefficient_by_mlq(lam, mu, nu) -> int:
    """The same coefficient counted by skew extensions of a fixed queue.

    Counts the bicolored nonwrapping queues of shape lam with len(mu) skew
    columns, lattice skew word, and straight part equal to the queue of a
    fixed tableau of shape nu.
    """
    from .mlq import MultilineQueue, is_nonwrapping

    lam, mu, nu = (check_partition(p) for p in (lam, mu, nu))
    if sum(lam) != sum(mu) + sum(nu):
        raise SizeMismatch(f"|{lam}| != |{mu}| + |{nu}|")
    if _inner_of(lam, mu) is None:
        return 0
    if not nu:
        return 1 if lam == mu else 0
    ell = len(mu)
    straight = mlq_of_tableau(superstandard(nu), n=len(nu))
    lam_cols = conjugate(lam)
    height = len(lam_cols)
    if straight.num_rows > height:
        return 0
    fixed_rows = [
        list(c + ell for c in straight.row(r)) if r <= straight.num_rows else []
        for r in range(1, height + 1)
    ]
    # each skew column j carries mu_j balls spread over distinct rows
    per_column = [
        list(combinations(range(1, height + 1), mu[j - 1]))
        for j in range(1, ell + 1)
    ]
    total = 0
    for choice in product(*per_column):
        rows = [list(r) for r in fixed_rows]
        for j, picked in enumerate(choice, start=1):
            for r in picked:
                rows[r - 1].append(j)
        if tuple(len(r) for r in rows) != lam_cols:
            continue
        cand = MultilineQueue(len(nu) + ell, rows)
        if not is_lattice(BicoloredMLQ(cand, ell).skew_word()):
            continue
        if not is_nonwrapping(cand):
            continue
        total += 1
    return total
