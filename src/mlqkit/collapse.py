"""Collapsing of binary matrices onto nonwrapping multiline queues.

Dropping a row means moving every ball that is unmatched against the row
below it down by one.  Sweeping the drops bottom-to-top collapses any matrix
to a nonwrapping queue together with a recording tableau; collapsing in two
orthogonal directions gives a Robinson-Schensted-style bijection for
matrices.
"""

from dataclasses import dataclass

from .core import conjugate
from .errors import (
    BadRowIndex,
    BadSigmaWord,
    InvariantError,
    NotNonwrapping,
    ShapeMismatch,
)
from .matching import _two_row_match
from .mlq import MultilineQueue, is_nonwrapping, sigma
from .tableaux import Tableau, tableau_from_crw


@dataclass(frozen=True)
class CollapseResult:
    queue: MultilineQueue
    recorder: Tableau
    drop_counts: dict

    def __iter__(self):
        return iter((self.queue, self.recorder))


def _unmatched_above(rows, i):
    """Columns of row i+1 (1-based) unmatched against row i."""
    _, opens, _, _ = _two_row_match(rows[i], rows[i - 1])
    return opens


def _drop_unmatched(rows, i):
    """Move every ball of row i+1 unmatched against row i down, in place;
    return how many moved."""
    opens = _unmatched_above(rows, i)
    for c in opens:
        rows[i].remove(c)
        rows[i - 1].add(c)
    return len(opens)


def _lift_unmatched(rows, i, k):
    """Move the k rightmost balls of row i unmatched against row i+1 up, in
    place (all of them if there are fewer)."""
    _, _, closes, _ = _two_row_match(rows[i], rows[i - 1])
    for c in closes[::-1][:k]:
        rows[i - 1].remove(c)
        rows[i].add(c)


def drop(m: MultilineQueue, i: int) -> MultilineQueue:
    """Move the leftmost ball of row i+1 that is unmatched above to row i."""
    if not 1 <= i < m.num_rows:
        raise BadRowIndex(f"i={i} with {m.num_rows} rows")
    rows = [set(r) for r in m.rows]
    opens = _unmatched_above(rows, i)
    if opens:
        rows[i].remove(opens[0])
        rows[i - 1].add(opens[0])
    return m.with_rows(rows)


def lift(m: MultilineQueue, i: int) -> MultilineQueue:
    """Move the rightmost ball of row i that is unmatched below to row i+1."""
    if not 1 <= i < m.num_rows:
        raise BadRowIndex(f"i={i} with {m.num_rows} rows")
    rows = [set(r) for r in m.rows]
    _lift_unmatched(rows, i, 1)
    return m.with_rows(rows)


def drop_all(m: MultilineQueue, i: int) -> MultilineQueue:
    """Move every ball of row i+1 unmatched above down to row i; idempotent."""
    if not 1 <= i < m.num_rows:
        raise BadRowIndex(f"i={i} with {m.num_rows} rows")
    rows = [set(r) for r in m.rows]
    _drop_unmatched(rows, i)
    return m.with_rows(rows)


def collapse(m: MultilineQueue) -> CollapseResult:
    """Collapse bottom-to-top: returns the nonwrapping queue, the recording
    tableau whose entries r mark where the balls of row r settled, and the
    per-sweep drop counts {(r, j): drops from row j+1 to row j}."""
    rows = []
    tableau_rows = []
    drop_counts = {}
    for r, source in enumerate(m.rows, start=1):
        rows.append(set(source))
        before = [len(x) for x in rows]
        for j in range(r - 1, 0, -1):
            drop_counts[(r, j)] = _drop_unmatched(rows, j)
        for level in range(r):
            gained = len(rows[level]) - (before[level] if level < r - 1 else 0)
            if level >= len(tableau_rows):
                tableau_rows.append([])
            tableau_rows[level].extend([r] * gained)
        for j in range(1, r):
            if _unmatched_above(rows, j):
                raise InvariantError(f"collapsed prefix moved at row {j}")
    queue = MultilineQueue(m.n, rows)
    recorder = Tableau([row for row in tableau_rows if row])
    return CollapseResult(queue, recorder, drop_counts)


def collapse_top_down(m: MultilineQueue) -> MultilineQueue:
    """Equivalent collapse order: full sweeps from the top, then shorter."""
    rows = [set(r) for r in m.rows]
    top = len(rows)
    for start in range(1, top + 1):
        for j in range(top - 1, start - 1, -1):
            _drop_unmatched(rows, j)
    return m.with_rows(rows)


def labelled_collapse(m: MultilineQueue) -> Tableau:
    """Recording tableau read off from label-tracked collapsing.

    Every ball starts labelled by its row.  At each drop step the matched
    balls of the lower row claim, left to right, the smallest still-free
    label sitting weakly to their left in the upper row; each claim lands on
    the claimer's partner, and the unclaimed labels travel down with the
    dropping balls in carrier order.
    """
    rows = [dict.fromkeys(source, r) for r, source in enumerate(m.rows, start=1)]
    for r in range(2, len(rows) + 1):
        for j in range(r - 1, 0, -1):
            _labelled_drop(rows, j)
    out = [sorted(row.values()) for row in rows if row]
    return Tableau(out)


def _labelled_drop(rows, j):
    upper, lower = rows[j], rows[j - 1]
    pairs, opens, _, _ = _two_row_match(upper, lower)
    if not opens:
        return
    partner = {close: open_ for open_, close in pairs}
    free = sorted(upper.items())  # (column, label) pool in carrier order
    new_upper = {}
    for b in sorted(lower):
        if b not in partner:
            continue
        choices = [t for t in range(len(free)) if free[t][0] <= b]
        if not choices:
            raise InvariantError(f"matched ball {b} with no label weakly left")
        k = min(choices, key=lambda t: free[t][1])
        new_upper[partner[b]] = free.pop(k)[1]
    for c, (_, lab) in zip(opens, free):
        lower[c] = lab
    for c in opens:
        del upper[c]
    upper.update(new_upper)


def rotate90(m: MultilineQueue) -> MultilineQueue:
    """Quarter turn counterclockwise: ball (r, c) goes to (c, L - r + 1)."""
    height = m.num_rows
    rows = [[] for _ in range(m.n)]
    for r in range(1, height + 1):
        for c in m.row(r):
            rows[c - 1].append(height - r + 1)
    return MultilineQueue(max(height, 1), rows)


def rotate270(m: MultilineQueue) -> MultilineQueue:
    return rotate90(rotate90(rotate90(m)))


def rotate180(m: MultilineQueue) -> MultilineQueue:
    return rotate90(rotate90(m))


def collapse_left(m: MultilineQueue) -> MultilineQueue:
    """Collapse toward column 1: rotate, collapse down, rotate back."""
    return rotate270(collapse(rotate90(m)).queue)


def collapse_inverse(queue: MultilineQueue, recorder: Tableau, height=None) -> MultilineQueue:
    """Rebuild the matrix whose collapse is (queue, recorder).

    The entry multiplicities of the recorder prescribe how many times each
    lift is applied, lowest row first, one batch per recorder letter.
    Lifting row j k times moves its k rightmost balls unmatched against row
    j+1: a lifted ball opens a bracket that nothing to its right closes, so
    the other unmatched balls stay unmatched.  Each batch is one
    ``_lift_unmatched``.
    """
    sizes = tuple(s for s in queue.row_sizes() if s > 0)
    if recorder.shape() != sizes:  # recorder shape conjugates the queue shape
        raise ShapeMismatch(
            f"recorder shape {recorder.shape()} vs queue row sizes {sizes}"
        )
    if height is None:
        height = max(recorder.entry_max(), queue.num_rows, 1)
    rows = [set(queue.row(r)) if r <= queue.num_rows else set()
            for r in range(1, height + 1)]
    for r in range(height, 1, -1):
        multiplicity = [
            sum(1 for v in row if v == r) for row in recorder.rows
        ] + [0] * height
        phi = 0
        for j in range(1, r):
            phi += multiplicity[j - 1]
            _lift_unmatched(rows, j, phi)
    return MultilineQueue(queue.n, rows)


def mrsk(m: MultilineQueue):
    """Pair of orthogonal collapses (downward, leftward-as-rotated).

    The second component is the rotation of the leftward collapse, a genuine
    nonwrapping queue over the original row count; the two shapes are
    conjugate.
    """
    down = collapse(m).queue
    left = collapse(rotate90(m)).queue
    return down, left


def mrsk_inverse(down: MultilineQueue, left: MultilineQueue) -> MultilineQueue:
    """Inverse of mrsk: recover the recorder from the left collapse."""
    from .mlq import column_word

    shape_down = down.trimmed().shape()
    shape_left = left.trimmed().shape()
    if shape_left != conjugate(shape_down):
        raise ShapeMismatch(f"{shape_left} is not conjugate to {shape_down}")
    recorder = tableau_from_crw(column_word(rotate270(left)))
    return collapse_inverse(down, recorder, height=left.n)


def flip_up(m: MultilineQueue) -> MultilineQueue:
    """Collapse after a half turn; bijection reversing the column content."""
    if not is_nonwrapping(m):
        raise NotNonwrapping(m.to_text())
    return collapse(rotate180(m)).queue


def twisted_collapse(m: MultilineQueue, sigma_word) -> MultilineQueue:
    """Conjugate the collapse by a row-swapping word.

    sigma_word lists reflection indices applied right to left, so the inverse
    twist applies them left to right.  The untwisted queue must have weakly
    decreasing row sizes.
    """
    untwisted = m
    for i in sigma_word:
        untwisted = sigma(untwisted, i)
    if not untwisted.is_straight():
        raise BadSigmaWord(f"row sizes {untwisted.row_sizes()} after untwisting")
    collapsed = collapse(untwisted).queue
    for i in reversed(sigma_word):
        collapsed = sigma(collapsed, i)
    return collapsed
