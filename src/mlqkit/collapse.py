"""Collapsing of binary matrices onto nonwrapping multiline queues.

Dropping a row means moving every ball that is unmatched against the row
below it down by one.  Sweeping the drops bottom-to-top collapses any matrix
to a nonwrapping queue together with a recording tableau; collapsing in two
orthogonal directions gives a Robinson-Schensted-style bijection for
matrices, ``mrsk``.  Its leftward collapse is the downward collapse's
recorder transposed (the queue form of RSK symmetry), so ``mrsk`` costs one
collapse and ``mrsk_inverse`` reads the recorder straight off the leftward
queue.

Drops and lifts work on rows held as int bitmasks, bit c standing for
column c, through the one two-row kernel ``matching._match_rows``; a
queue's rows are encoded once on the way in and decoded once where the
resulting ``MultilineQueue`` is built.  One kernel, ``_sweep``, collapses
masks; the recorder is the one record of the drops and lift batches (its
prefix counts), and the inverses lift on the masks their check matched.

Collapsing is an insertion procedure, so the maps between tableaux and
nonwrapping queues live here too: ``mlq_of_tableau`` collapses the columns
of a tableau and ``tab_of_mlq`` column-inserts the row word back;
``insert_into_mlq`` and ``mult_mlq`` stack rows and collapse; bicolored
queues (``skew_to_mlq``) rectify skew tableaux and count
Littlewood-Richardson coefficients.
"""

from dataclasses import dataclass
from itertools import combinations, pairwise, zip_longest

from .core import (
    _as_tuple, _check_count, _check_instance, _conjugate, _is_count, check_partition, is_lattice,
)
from .errors import (
    AlphabetTooSmall,
    BadSigmaWord,
    ColumnMismatch,
    InvariantError,
    NotNonwrapping,
    OutOfRange,
    ShapeMismatch,
    SizeMismatch,
)
from .matching import _columns, _high_bits, _mask, _match_rows
from .mlq import MultilineQueue, _check_row_pair, _is_collapsed, row_word, sigma
from .tableaux import (
    SkewTableau,
    Tableau,
    _column_insert,
    _inner_of,
    _rows_of_columns,
    straighten,
)


@dataclass(frozen=True)
class CollapseResult:
    """The collapsed queue and its recorder, the one record of the drops."""

    queue: MultilineQueue
    recorder: Tableau

    def __iter__(self):
        return iter((self.queue, self.recorder))

    @property
    def drop_counts(self):
        """{(r, j): balls that sweep r dropped from row j+1 to row j} for all
        1 <= j < r <= queue.num_rows, zeros included: the entries r in
        recorder rows 1..j, as a ball of row r passes into row j exactly when
        it settles in row j or below (``_prefix_counts``, on each access).
        The record is unchecked, so this checks it: ShapeMismatch unless the
        recorder has the queue's shape, OutOfRange for an entry above its
        rows."""
        height = self.queue.num_rows
        _check_recorder_shape(self.queue, self.recorder)
        if self.recorder.entry_max() > height:
            raise OutOfRange(f"recorder entry {self.recorder.entry_max()} > {height} rows")
        counts = _prefix_counts(self.recorder.rows, height)
        return {(r, j): counts[j][r] for r in range(2, height + 1) for j in range(r - 1, 0, -1)}


def _drop_unmatched(rows, i):
    """Move every ball of row i+1 unmatched against row i down, in place;
    return how many moved.  rows is a list of row masks, bottom row first."""
    opens, _ = _match_rows(rows[i], rows[i - 1])
    rows[i] ^= opens
    rows[i - 1] |= opens
    return opens.bit_count()


def _lift_unmatched(rows, i, k):
    """Move the k rightmost balls of row i unmatched against row i+1 up, in
    place (all of them if there are fewer); rows as in ``_drop_unmatched``."""
    _, closes = _match_rows(rows[i], rows[i - 1])
    up = _high_bits(closes, k)
    rows[i - 1] ^= up
    rows[i] |= up


def _row_masks(m):
    """The rows of m as masks, bottom row first."""
    return [_mask(row) for row in m.rows]


def _from_masks(n, rows):
    """The queue on n columns whose rows are the masks rows; their bits
    must lie in 1..n, as they do for masks moved between rows of a queue."""
    return MultilineQueue._of(n, tuple(map(_columns, rows)))


def drop(m: MultilineQueue, i: int) -> MultilineQueue:
    """Move the leftmost ball of row i+1 that is unmatched above to row i."""
    _check_row_pair(m, i)
    rows = _row_masks(m)
    opens, _ = _match_rows(rows[i], rows[i - 1])
    first = opens & -opens
    rows[i] ^= first
    rows[i - 1] |= first
    return _from_masks(m.n, rows)


def lift(m: MultilineQueue, i: int) -> MultilineQueue:
    """Move the rightmost ball of row i that is unmatched below to row i+1."""
    _check_row_pair(m, i)
    rows = _row_masks(m)
    _lift_unmatched(rows, i, 1)
    return _from_masks(m.n, rows)


def drop_all(m: MultilineQueue, i: int) -> MultilineQueue:
    """Move every ball of row i+1 unmatched above down to row i; idempotent."""
    _check_row_pair(m, i)
    rows = _row_masks(m)
    _drop_unmatched(rows, i)
    return _from_masks(m.n, rows)


def collapse(m: MultilineQueue) -> CollapseResult:
    """Collapse bottom-to-top by ``_sweep``: returns the nonwrapping queue
    and the recording tableau whose entries r mark where the balls of row r
    settled, from which ``CollapseResult.drop_counts`` reads the drops."""
    _check_instance(m, MultilineQueue)
    rows, recorder = _sweep(_row_masks(m))
    return CollapseResult(_from_masks(m.n, rows), Tableau._of(recorder))


def _sweep(sources):
    """Collapse the rows given as masks in sources, bottom row first, without
    decoding them; return (the collapsed row masks, the recorder rows).

    Sweep r drops row r onto the collapsed rows 1..r-1, whose nonempty rows
    are exactly 1..top (a nonempty row above an empty one would be
    unmatched against it).  Fall: row r is unmatched against the empty rows
    top+1..r-1, so it lands on row top+1 in one move.  Stop: once a step
    drops nothing, rows 1..j are unchanged and collapsed, so no lower step
    is matched.  Check: the sweep changed only the rows from the stop step
    + 1 up to the landing row, so only their adjacent pairs are matched
    again (see ``mlq._is_collapsed``), the stop step's own pair, matched
    with nothing moved, aside.  So after every sweep the prefix is
    collapsed, or InvariantError is raised.
    """
    rows = []
    tableau_rows = []
    top = 0
    for r, source in enumerate(sources, start=1):
        rows.append(0)
        tableau_rows.append([])
        arrived = source.bit_count()  # balls that entered row j+1 in this sweep
        land = top + 1
        rows[top] = source
        j = top
        while j and arrived:
            moved = _drop_unmatched(rows, j)
            tableau_rows[j].extend([r] * (arrived - moved))
            arrived = moved
            j -= 1
        tableau_rows[j].extend([r] * arrived)  # the last arrivals stay
        # a stop step (nothing arrived) has just matched rows[j + 1] fully
        for i in range(j + 1 if arrived else j + 2, land):
            if _match_rows(rows[i], rows[i - 1])[0]:
                raise InvariantError(f"collapsed prefix moved at row {i}")
        top = land if rows[top] else top
    # rows of the recorder increase by construction, since sweep r appends
    # r; its shape is the queue's row sizes, straight by the check above;
    # that its columns increase strictly is the theorem, so it is checked
    recorder = tuple(tuple(row) for row in tableau_rows if row)
    for below, above in pairwise(recorder):
        if any(x >= y for x, y in zip(below, above)):
            raise InvariantError(f"recorder columns not strict: {below} under {above}")
    return rows, recorder


def _prefix_counts(recorder, height):
    """Item j counts the entries of recorder rows 1..j by value, for every
    j < height (entries are at most height).  At index r > j that is the
    drops of sweep r from row j+1 to row j (``CollapseResult.drop_counts``),
    and so the lifts that undo them."""
    counts = [[0] * (height + 1)]
    for row in recorder:
        now = counts[-1][:]
        for r in row:
            now[r] += 1
        counts.append(now)
    return counts + counts[-1:] * (height - len(counts))


def _check_has_rows(m):
    """ParseError unless m is a queue, OutOfRange for a queue without rows:
    its quarter turn would have no columns."""
    _check_instance(m, MultilineQueue)
    if not m.num_rows:
        raise OutOfRange(f"{m.to_text()} has no rows, so no quarter turn")


def rotate90(m: MultilineQueue) -> MultilineQueue:
    """Quarter turn counterclockwise: ball (r, c) goes to (c, L - r + 1)."""
    _check_has_rows(m)
    rows = [[] for _ in range(m.n)]
    # reading the rows top down makes each new row increase
    for new_c, row in enumerate(reversed(m.rows), start=1):
        for c in row:
            rows[c - 1].append(new_c)
    return MultilineQueue._of(m.num_rows, tuple(map(tuple, rows)))


def rotate270(m: MultilineQueue) -> MultilineQueue:
    """Quarter turn clockwise, the inverse of ``rotate90``: ball (r, c) goes
    to (n - c + 1, r)."""
    _check_has_rows(m)
    rows = [[] for _ in range(m.n)]
    for r, row in enumerate(m.rows, start=1):
        for c in row:
            rows[m.n - c].append(r)
    return MultilineQueue._of(m.num_rows, tuple(map(tuple, rows)))


def rotate180(m: MultilineQueue) -> MultilineQueue:
    """Half turn: ball (r, c) goes to (L - r + 1, n - c + 1).  Unlike two
    quarter turns it keeps a queue without rows as it is."""
    _check_instance(m, MultilineQueue)
    return MultilineQueue._of(
        m.n, tuple(tuple(m.n + 1 - c for c in reversed(row)) for row in reversed(m.rows))
    )


def collapse_left(m: MultilineQueue) -> MultilineQueue:
    """Collapse toward column 1: rotate, collapse down, rotate back."""
    return rotate270(collapse(rotate90(m)).queue)


def _check_collapsed(m):
    """The row masks of m, which ``mlq._is_collapsed`` parks; ParseError
    unless m is a queue, NotNonwrapping unless it is a collapse fixed point,
    the domain of every inverse map here."""
    _check_instance(m, MultilineQueue)
    rows = _row_masks(m)
    if not _is_collapsed(rows):
        raise NotNonwrapping(m.to_text())
    return rows


def collapse_inverse(queue: MultilineQueue, recorder: Tableau, height=None) -> MultilineQueue:
    """Rebuild the matrix whose collapse is (queue, recorder).

    Letters are undone from the largest down: letter r lifts row j, for
    j = 1..r-1 and lowest row first, once per ball that sweep r dropped
    from row j+1, the entries r in recorder rows 1..j (``_prefix_counts``);
    a batch of 0 lifts is skipped.
    Lifting row j k times moves its k rightmost balls unmatched against row
    j+1: a lifted ball opens a bracket that nothing to its right closes, so
    the other unmatched balls stay unmatched.  Each batch is one
    ``_lift_unmatched`` on row masks, which takes the k highest bits of the
    unmatched closes.  The queue must be collapsed (NotNonwrapping
    otherwise).  height is the number of rows rebuilt: an int at least the
    largest recorder entry (OutOfRange otherwise), by default queue.num_rows
    or that entry if it is larger.  It bounds the ball rows too: they are
    1..k for k recorder rows, and recorder row k has entries >= k.
    """
    rows = _check_collapsed(queue)
    _check_instance(recorder, Tableau)
    _check_recorder_shape(queue, recorder)
    min_height = recorder.entry_max()
    if height is None:
        height = max(min_height, queue.num_rows)
    elif not _is_count(height) or height < min_height:
        raise OutOfRange(
            f"height {height!r} is not an int >= {min_height}, the largest "
            "recorder entry"
        )
    return _uncollapse(queue.n, rows, recorder.rows, height)


def _check_recorder_shape(queue, recorder):
    """ShapeMismatch unless the recorder's row lengths are the queue's
    nonempty row sizes (the recorder shape conjugates the queue shape)."""
    sizes = tuple(filter(None, queue.row_sizes()))
    if recorder.shape() != sizes:
        raise ShapeMismatch(f"recorder shape {recorder.shape()} vs queue row sizes {sizes}")


def _uncollapse(n, rows, recorder, height):
    """``collapse_inverse`` on checked input: rows the masks of a collapsed
    queue on n columns, recorder the rows of a tableau of its shape, height
    at least its largest entry; the lift batches are its prefix counts."""
    rows = rows[:height] + [0] * (height - len(rows))
    counts = _prefix_counts(recorder, height)
    for r in range(height, 1, -1):
        for j in range(1, r):
            if counts[j][r]:
                _lift_unmatched(rows, j, counts[j][r])
    return _from_masks(n, rows)


def mrsk(m: MultilineQueue):
    """Pair of orthogonal collapses (downward, leftward-as-rotated).

    The second component is the rotation of the leftward collapse, a genuine
    nonwrapping queue over the original row count; the two shapes are
    conjugate.  It is the downward collapse's recorder transposed, the
    queue form of RSK symmetry: row c of the leftward queue holds L + 1 - r
    for the entries r of recorder column c, where L = m.num_rows, and its
    rows past the recorder's width are empty.  So one collapse does the
    work of two.  Why it holds: ``mrsk_inverse`` reads a recorder off left
    this way and uncollapses down with it, and uncollapsing down is
    injective in the recorder, so ``mrsk_inverse . mrsk = id`` for the
    leftward collapse already forces the recorder read off it to equal
    ``collapse(m).recorder``.  A queue without rows is OutOfRange, as its
    quarter turn is.  Needing only masks and recorder rows, it runs ``_sweep``.
    """
    _check_has_rows(m)
    rows, recorder = _sweep(_row_masks(m))
    flip = m.num_rows + 1
    left = [[] for _ in range(m.n)]
    # recorder columns increase strictly, so taken from the last row back
    # their flips increase
    for row in reversed(recorder):
        for c, r in enumerate(row):
            left[c].append(flip - r)
    return _from_masks(m.n, rows), MultilineQueue._of(m.num_rows, tuple(map(tuple, left)))


def mrsk_inverse(down: MultilineQueue, left: MultilineQueue) -> MultilineQueue:
    """Inverse of mrsk on collapsed queues: the left one gives the recorder.

    Both queues must be collapsed (NotNonwrapping), of transposed sizes,
    left.n == down.num_rows and left.num_rows == down.n (ColumnMismatch),
    and of conjugate shapes (ShapeMismatch).  Recorder column c is row c of
    left with each entry x read as left.n + 1 - x, in increasing order: the
    transposition identity of ``mrsk``.  Its entries are at most left.n, so
    left.n rows are always enough.  The columns always form a tableau: a
    collapsed left parks each row c + 1 into row c without a wrap, so every
    suffix of columns holds at least as many balls of row c as of row c + 1
    (``_match_rows``).  The flip x -> left.n + 1 - x turns suffixes into
    prefixes, so recorder columns c and c + 1 satisfy C_c[i] <= C_{c+1}[i]:
    rows weakly increase, columns strictly increase and column lengths
    weakly decrease.  So the recorder rows go to ``_uncollapse`` unchecked,
    with the masks of down that its check matched, and their shape, the
    conjugate of left's, is tested once against down's.
    """
    _check_collapsed(left)
    rows = _check_collapsed(down)
    if left.n != down.num_rows or left.num_rows != down.n:
        raise ColumnMismatch(
            f"left is {left.num_rows} rows on {left.n} columns, not the "
            f"transpose of down's {down.num_rows} rows on {down.n} columns"
        )
    # both are collapsed, so straight: compare left's shape with down's sizes
    if _conjugate(left.row_sizes()) != tuple(filter(None, down.row_sizes())):
        raise ShapeMismatch(f"{left.shape()} is not conjugate to {down.shape()}")
    flip = left.n + 1
    # a collapsed queue's empty rows are its top ones, the trailing columns
    columns = [tuple(flip - x for x in reversed(row)) for row in left.rows if row]
    return _uncollapse(down.n, rows, _rows_of_columns(columns), left.n)


def flip_up(m: MultilineQueue) -> MultilineQueue:
    """Collapse after a half turn; bijection reversing the column content."""
    _check_collapsed(m)
    return collapse(rotate180(m)).queue


def twisted_collapse(m: MultilineQueue, sigma_word) -> MultilineQueue:
    """Conjugate the collapse by a row-swapping word.

    sigma_word lists reflection indices applied right to left, so the inverse
    twist applies them left to right.  The untwisted queue must have weakly
    decreasing row sizes.
    """
    _check_instance(m, MultilineQueue)
    sigma_word = _as_tuple(sigma_word, "a sigma word")
    untwisted = m
    for i in sigma_word:
        untwisted = sigma(untwisted, i)
    if not untwisted.is_straight():
        raise BadSigmaWord(f"row sizes {untwisted.row_sizes()} after untwisting")
    collapsed = collapse(untwisted).queue
    for i in reversed(sigma_word):
        collapsed = sigma(collapsed, i)
    return collapsed


def mlq_of_tableau(t: Tableau, n=None) -> MultilineQueue:
    """Nonwrapping queue of the tableau on n columns (default: its largest
    entry); inverse of tab_of_mlq.

    Collapses the queue whose rows are the columns of t, last column at the
    bottom: one row per column, not one per entry.  Its row word is the
    reversed column reading word of t, whose column insertion is t; since
    tab_of_mlq(collapse(m).queue) == column_insert(row_word(m)), the
    collapsed queue maps back to t.  An explicit n must be a positive int
    (ParseError otherwise); the empty tableau's default is one column.  One
    pass ORs t's rows into column masks for ``_sweep``; the collapsed queue
    has shape t's, so its rows, one per column of t, are all nonempty.
    """
    _check_instance(t, Tableau)
    top = t.entry_max()
    n = max(top, 1) if n is None else _check_count(n, 1)
    if top > n:
        raise AlphabetTooSmall(f"entries up to {top}, n={n}")
    columns = [0] * (len(t.rows[0]) if t.rows else 0)
    for row in t.rows:
        for c, v in enumerate(row):
            columns[c] |= 1 << v
    rows, _ = _sweep(columns[::-1])
    return _from_masks(n, rows)


def tab_of_mlq(m: MultilineQueue) -> Tableau:
    """Column insertion of the row word, whose letters are ball columns, so
    unchecked (``tableaux._column_insert``); inverse of mlq_of_tableau."""
    _check_collapsed(m)
    return _column_insert(row_word(m))


def insert_into_mlq(m: MultilineQueue, k: int):
    """Insert a ball at column k: new top row, then collapse."""
    _check_instance(m, MultilineQueue)
    if not (_is_count(k) and 1 <= k <= m.n):
        raise OutOfRange(f"column {k!r} outside 1..{m.n}")
    _check_collapsed(m)
    stacked = m.with_rows(list(m.trimmed().rows) + [(k,)])
    return collapse(stacked).queue.trimmed()


def mult_mlq(m1: MultilineQueue, m2: MultilineQueue):
    """Stack m2 on top of m1 and collapse."""
    _check_instance(m1, MultilineQueue)
    _check_instance(m2, MultilineQueue)
    if m1.n != m2.n:
        raise ColumnMismatch(f"{m1.n} vs {m2.n} columns")
    stacked = m1.with_rows(list(m1.rows) + list(m2.rows))
    return collapse(stacked)


@dataclass(frozen=True)
class BicoloredMLQ:
    """Nonwrapping queue whose first skew_columns columns are the skew part."""

    base: object
    skew_columns: int

    def skew_word(self):
        return tuple(
            c for c in row_word(self.base) if c <= self.skew_columns
        )

    def straight_part(self):
        k = self.skew_columns
        rows = [
            [c - k for c in row if c > k] for row in self.base.rows
        ]
        return MultilineQueue(max(self.base.n - k, 1), rows).trimmed()


def skew_to_mlq(t: SkewTableau, n=None) -> BicoloredMLQ:
    """Bicolored queue of a skew tableau via its straightening; an explicit
    n must be a positive int (ParseError otherwise)."""
    hat, ell = straighten(t)
    alphabet = max((v for r in t.rows for v in r), default=0)
    n = alphabet if n is None else _check_count(n, 1)
    if alphabet > n:
        raise AlphabetTooSmall(f"entries up to {alphabet}, n={n}")
    # an empty filling gets one column, as mlq_of_tableau's default does
    base = mlq_of_tableau(hat, n=max(n + ell, 1))
    out = BicoloredMLQ(base, ell)
    if not is_lattice(out.skew_word()):
        raise InvariantError(f"skew word {out.skew_word()} is not lattice")
    return out


def rectify_by_mlq(t: SkewTableau) -> Tableau:
    """Rectification read off the straight columns of the bicolored queue."""
    _check_instance(t, SkewTableau)
    if t.is_straight():
        return Tableau([r for r in t.rows if r])
    return tab_of_mlq(skew_to_mlq(t).straight_part())


def lr_coefficient_by_mlq(lam, mu, nu) -> int:
    """The Littlewood-Richardson coefficient c^lam_{mu,nu} of
    ``tableaux.lr_coefficient``, counted by skew extensions of a fixed queue.

    Counts the bicolored nonwrapping queues of shape lam with ell = len(mu)
    skew columns, lattice skew word, and straight part equal to the queue of
    a fixed tableau of shape nu.  For the superstandard tableau that queue,
    ``mlq_of_tableau(superstandard(nu), len(nu))``, is the left-justified
    ``canonical_mlq(nu, len(nu))``, so straight row r holds columns
    ell+1..ell+nu'_r and no collapse runs.  Row r has room lam'_r - nu'_r
    for skew balls.  Skew column j puts mu_j balls in distinct rows that
    still have room, and a pick that leaves some room above ell - j is
    skipped, since the later columns add at most one ball to a row.  So
    every candidate has row sizes lam'; it is built through the public
    constructor and kept if it is collapsed and its skew word is lattice.
    """
    lam, mu, nu = (check_partition(p) for p in (lam, mu, nu))
    if sum(lam) != sum(mu) + sum(nu):
        raise SizeMismatch(f"|{lam}| != |{mu}| + |{nu}|")
    if _inner_of(lam, mu) is None:
        return 0
    if not nu:
        return 1 if lam == mu else 0
    ell = len(mu)
    nu_cols = _conjugate(nu)
    room = [a - b for a, b in zip_longest(_conjugate(lam), nu_cols, fillvalue=0)]
    if min(room) < 0:  # nu does not fit inside lam, as when nu_1 > lam_1
        return 0
    rows = [list(range(ell + 1, ell + k + 1)) for k in nu_cols]
    rows += [[] for _ in range(len(room) - len(rows))]

    def place(j, room):
        if j > ell:
            cand = MultilineQueue(len(nu) + ell, rows)
            collapsed = _is_collapsed(_row_masks(cand))
            return int(collapsed and is_lattice(BicoloredMLQ(cand, ell).skew_word()))
        total = 0
        for picked in combinations([r for r, k in enumerate(room) if k], mu[j - 1]):
            left = list(room)
            for r in picked:
                left[r] -= 1
            if max(left) <= ell - j:
                for r in picked:
                    rows[r].append(j)
                total += place(j + 1, left)
                for r in picked:
                    rows[r].pop()
        return total

    return place(1, room)
