"""Parenthesis matching on words and on pairs of queue rows.

For a fixed letter i, every i+1 in a word is an open parenthesis and every i
a closed one; the signature rule matches open/close pairs that are adjacent
or separated only by matched pairs.  The cylindrical variant additionally
matches the remaining opens to the remaining closes around the circle.

The same rule on two queue rows reads the balls of the upper row as opens
and those of the lower row as closes, in column order, an open before a
close in the same column.  ``_match_rows`` runs it on rows held as int
bitmasks, bit c standing for column c; it is the one matching kernel of
queue rows: collapse, its check and its inverse, the drops and lifts,
``sigma``, and the parking test of ``mlq._is_collapsed``.  The word
operators below match positions on their own.
"""

from dataclasses import dataclass

from .core import _check_count, _check_letters


@dataclass(frozen=True)
class MatchData:
    """Outcome of matching letters i+1 (opens) against i (closes).

    All positions are 1-based word positions; letters other than i and i+1
    never appear.  In cyclic mode min(#unmatched opens, #unmatched closes)
    is zero and the extra pairs are recorded in wrapping_pairs.
    """

    matched_pairs: tuple
    unmatched_opens: tuple
    unmatched_closes: tuple
    wrapping_pairs: tuple = ()


def match_brackets(events):
    """Run the signature rule over (position, is_open) events in word order.

    Returns (matched_pairs, unmatched_opens, unmatched_closes), each pair
    being (open_position, close_position).
    """
    stack = []
    pairs = []
    closes = []
    for pos, is_open in events:
        if is_open:
            stack.append(pos)
        elif stack:
            pairs.append((stack.pop(), pos))
        else:
            closes.append(pos)
    return pairs, stack, closes


def bracket_match(w, i: int, cyclic: bool = False) -> MatchData:
    """Match the letters i+1 against the letters i of w; ParseError unless
    w is a word and i a positive count."""
    _check_count(i, 1)
    events = [
        (pos, letter == i + 1)
        for pos, letter in enumerate(_check_letters(w), start=1)
        if letter in (i, i + 1)
    ]
    pairs, opens, closes = match_brackets(events)
    # cyclic completion: trailing opens pair with leading closes, outside in
    k = min(len(opens), len(closes)) if cyclic else 0
    wrapping = [(opens[-1 - t], closes[t]) for t in range(k)]
    opens, closes = opens[: len(opens) - k], closes[k:]
    return MatchData(
        matched_pairs=tuple(pairs),
        unmatched_opens=tuple(opens),
        unmatched_closes=tuple(closes),
        wrapping_pairs=tuple(wrapping),
    )


def _match_rows(upper, lower):
    """Match the balls of row mask ``upper`` (opens) against those of row
    mask ``lower`` (closes); return (unmatched opens, unmatched closes) as
    masks.

    The close of a column that also holds an open takes that open: the
    open comes just before it, and no close of a lower column reaches it.
    Removing that pair, adjacent in column order, leaves every other match
    as it was, so the columns of ``upper & lower`` leave both rows up front.
    Then one pass over the balls of ``lower``, lowest column first: the
    close at bit b takes the highest unmatched open below b, the top of the
    bracket stack.  The pass stops as soon as either side is empty: the
    closes left are then unmatched, and so are the opens left.  An
    unmatched open is never a column of ``lower`` and an unmatched close
    never one of ``upper``, so moving either set to the other row is an xor
    on one row and an or on the other.

    No open stays unmatched exactly when the balls of ``upper`` park into
    ``lower`` without a wrap, each on a free ball weakly right of it: both
    say every suffix of columns holds at least as many balls of ``lower``
    as of ``upper``, since first-fit parking succeeds or fails whatever
    order the cars arrive in.  So it depends only on the two ball sets.
    """
    shared = upper & lower
    opens = upper ^ shared
    lower ^= shared
    closes = 0
    while lower and opens:
        low = lower & -lower
        avail = opens & (low - 1)
        if avail:
            opens ^= 1 << (avail.bit_length() - 1)
        else:
            closes |= low
        lower ^= low
    return opens, closes | lower


def _mask(columns):
    """The bitmask of a set of ball columns."""
    out = 0
    for c in columns:
        out |= 1 << c
    return out


def _columns(mask):
    """The ball columns of a bitmask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _high_bits(mask, k):
    """The k highest bits of mask (all of them if it has fewer)."""
    out = 0
    while k > 0 and mask:
        top = 1 << (mask.bit_length() - 1)
        out |= top
        mask ^= top
        k -= 1
    return out


def _replace(w, positions, letter):
    out = list(w)
    for pos in positions:
        out[pos - 1] = letter
    return tuple(out)


def raising(w, i: int):
    """Change the leftmost unmatched i+1 to an i (identity if none)."""
    w = _check_letters(w)
    return _replace(w, bracket_match(w, i).unmatched_opens[:1], i)


def lowering(w, i: int):
    """Change the rightmost unmatched i to an i+1 (identity if none)."""
    w = _check_letters(w)
    return _replace(w, bracket_match(w, i).unmatched_closes[-1:], i + 1)


def raise_all(w, i: int):
    """Change every unmatched i+1 to an i; idempotent."""
    w = _check_letters(w)
    return _replace(w, bracket_match(w, i).unmatched_opens, i)


def reflect(w, i: int):
    """Swap the roles of unmatched i's and i+1's (an involution).

    The a unmatched i's and b unmatched i+1's form, in position order, the
    pattern i^a (i+1)^b; it is replaced by i^b (i+1)^a.
    """
    w = _check_letters(w)
    m = bracket_match(w, i)
    slots = sorted(m.unmatched_closes + m.unmatched_opens)
    b = len(m.unmatched_opens)
    return _replace(_replace(w, slots[:b], i), slots[b:], i + 1)
