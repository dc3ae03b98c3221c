"""Independent reference routes that the package's fast routes are checked
against.

The enumerate-and-sum routes visit every queue one at a time, so they are
exponential in the number of rows; the package computes the same quantities
over label-word states.  ``label_mlq_by_matching`` labels a straight queue by
iterated cylindrical matching, independently of the pairing rule
``mlq._label_row`` that every labelling in the package uses.
"""

from mlqkit.core import conjugate
from mlqkit.matching import _two_row_match
from mlqkit.mlq import _check_straight, enumerate_gmlq, enumerate_mlq, maj_g, projection
from mlqkit.poly import QXPolynomial, _x_key


def label_mlq_by_matching(m):
    """Labels of a straight queue computed by iterated cylindrical matching.

    Returns the label map {(row, col): label} of the balls and the wrap
    counts {(label, row): count} of cylindrically-but-not-classically
    matched balls per label and row.
    """
    _check_straight(m)
    labels = {}
    wraps = {}
    for r in range(m.num_rows, 1, -1):
        for c in m.row(r):
            labels.setdefault((r, c), r)
        for lab in range(m.num_rows, r - 1, -1):
            upper = [c for c in m.row(r) if labels[(r, c)] == lab]
            lower = [c for c in m.row(r - 1) if (r - 1, c) not in labels]
            if not upper:
                continue
            pairs, opens, _, wrapping = _two_row_match(upper, lower, cyclic=True)
            assert not opens, "straight queue must match all balls"
            for _, c in pairs + wrapping:
                labels[(r - 1, c)] = lab
            if wrapping:
                wraps[(lab, r)] = len(wrapping)
    if m.num_rows:
        for c in m.row(1):
            labels.setdefault((1, c), 1)
    return labels, wraps


def maj(m) -> int:
    """Major index from the matching labelling: a wrap of label l from row r
    adds l - r + 1."""
    _, wraps = label_mlq_by_matching(m)
    return sum(k * (lab - r + 1) for (lab, r), k in wraps.items())


def q_whittaker_mlq(lam, n: int) -> QXPolynomial:
    """q^maj x^M summed over all queues of shape lam."""
    if conjugate(lam) and conjugate(lam)[0] > n:
        return QXPolynomial.zero(n)
    return QXPolynomial(n, (
        ((maj(m), _x_key(m.column_content())), 1) for m in enumerate_mlq(lam, n)
    ))


def q_whittaker_gmlq(alpha, n: int) -> QXPolynomial:
    """q^maj_g x^M summed over all queues with row sizes alpha."""
    if any(a > n for a in alpha):
        return QXPolynomial.zero(n)
    return QXPolynomial(n, (
        ((maj_g(m), _x_key(m.column_content())), 1) for m in enumerate_gmlq(alpha, n)
    ))


def stationary_counts(lam, n: int) -> dict:
    """Tally of projection over all queues of shape lam."""
    counts = {}
    for m in enumerate_mlq(lam, n):
        state = projection(m)
        counts[state] = counts.get(state, 0) + 1
    return counts
