"""Parenthesis matching on words and the word operators it induces.

For a fixed letter i, every i+1 in a word is an open parenthesis and every i
a closed one; the signature rule matches open/close pairs that are adjacent
or separated only by matched pairs.  The cylindrical variant additionally
matches the remaining opens to the remaining closes around the circle.
"""

from dataclasses import dataclass


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


def _wrap(opens, closes):
    """Cyclic completion: trailing unmatched opens pair with leading
    unmatched closes, outside in.  Returns (opens left, closes left,
    wrapping_pairs)."""
    k = min(len(opens), len(closes))
    wrapping = [(opens[-1 - t], closes[t]) for t in range(k)]
    return opens[: len(opens) - k], closes[k:], wrapping


def bracket_match(w, i: int, cyclic: bool = False) -> MatchData:
    """Match the letters i+1 against the letters i of w."""
    events = [
        (pos, letter == i + 1)
        for pos, letter in enumerate(w, start=1)
        if letter in (i, i + 1)
    ]
    pairs, opens, closes = match_brackets(events)
    wrapping = []
    if cyclic:
        opens, closes, wrapping = _wrap(opens, closes)
    return MatchData(
        matched_pairs=tuple(pairs),
        unmatched_opens=tuple(opens),
        unmatched_closes=tuple(closes),
        wrapping_pairs=tuple(wrapping),
    )


def _two_row_match(upper, lower, cyclic=False):
    """Match an upper row (opens) against a lower row (closes), column order.

    Within a column the upper symbol precedes the lower one, matching the
    top-down column reading.  Returns (pairs, unmatched_opens,
    unmatched_closes, wrapping_pairs) as column lists.
    """
    events = []
    for c in sorted(set(upper) | set(lower)):
        if c in upper:
            events.append((c, True))
        if c in lower:
            events.append((c, False))
    pairs, opens, closes = match_brackets(events)
    if not cyclic:
        return pairs, opens, closes, []
    return (pairs, *_wrap(opens, closes))


def _replace(w, position, letter):
    out = list(w)
    out[position - 1] = letter
    return tuple(out)


def raising(w, i: int):
    """Change the leftmost unmatched i+1 to an i (identity if none)."""
    m = bracket_match(w, i)
    if not m.unmatched_opens:
        return tuple(w)
    return _replace(w, m.unmatched_opens[0], i)


def lowering(w, i: int):
    """Change the rightmost unmatched i to an i+1 (identity if none)."""
    m = bracket_match(w, i)
    if not m.unmatched_closes:
        return tuple(w)
    return _replace(w, m.unmatched_closes[-1], i + 1)


def raise_all(w, i: int):
    """Change every unmatched i+1 to an i; idempotent."""
    m = bracket_match(w, i)
    out = list(w)
    for pos in m.unmatched_opens:
        out[pos - 1] = i
    return tuple(out)


def reflect(w, i: int):
    """Swap the roles of unmatched i's and i+1's (an involution).

    The a unmatched i's and b unmatched i+1's form, in position order, the
    pattern i^a (i+1)^b; it is replaced by i^b (i+1)^a.
    """
    m = bracket_match(w, i)
    slots = sorted(m.unmatched_closes + m.unmatched_opens)
    b = len(m.unmatched_opens)
    out = list(w)
    for k, pos in enumerate(slots):
        out[pos - 1] = i if k < b else i + 1
    return tuple(out)
