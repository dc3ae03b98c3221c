"""Independent reference routes that the package's fast routes are checked
against.

The enumerate-and-sum routes visit every queue one at a time, so they are
exponential in the number of rows; the package computes the same quantities
over label-word states.  ``label_mlq_by_matching`` labels a straight queue by
iterated cylindrical matching, independently of the pairing rule
``mlq._label_row`` that every labelling in the package uses.  The Schur and
Kostka-Foulkes routes here are the paper's theorems: Schur polynomials sum
over nonwrapping queues, and Kostka-Foulkes polynomials weigh nonwrapping
queues by the major index of their quarter turn.  ``coquinv_free_fillings``
tries every arrangement of every row, so it shows that the filling the
package builds by pairing is the only coquinv-free one.
"""

from itertools import permutations, product

from mlqkit.collapse import rotate90
from mlqkit.core import conjugate
from mlqkit.errors import SizeMismatch
from mlqkit.fillings import ColumnFilling, coquinv
from mlqkit.matching import _two_row_match
from mlqkit.mlq import (
    _check_straight,
    enumerate_gmlq,
    enumerate_mlq,
    is_nonwrapping,
    maj_g,
    projection,
)
from mlqkit.poly import QXPolynomial, _x_key
from mlqkit.tableaux import enumerate_ssyt


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


def schur(lam, n: int) -> QXPolynomial:
    """x^M summed over the nonwrapping queues of shape lam."""
    if conjugate(lam) and conjugate(lam)[0] > n:
        return QXPolynomial.zero(n)
    return QXPolynomial(n, (
        ((0, _x_key(m.column_content())), 1)
        for m in enumerate_mlq(lam, n)
        if is_nonwrapping(m)
    ))


def schur_by_ssyt(lam, n: int) -> QXPolynomial:
    """x^content summed over semistandard tableaux of shape lam."""
    return QXPolynomial(n, (
        ((0, _x_key(t.content())), 1) for t in enumerate_ssyt(lam, max_entry=n)
    ))


def kostka_foulkes_rotated(lam, mu) -> QXPolynomial:
    """K_{lam,mu}(q) over the nonwrapping queues of shape lam with column
    content mu, each weighted by the major index of its quarter turn."""
    if sum(lam) != sum(mu):
        raise SizeMismatch(f"|{lam}| != |{mu}|")
    n = len(mu) if mu else 1
    if conjugate(lam) and conjugate(lam)[0] > n:
        return QXPolynomial.zero(0)
    return QXPolynomial(0, (
        ((maj(rotate90(m).trimmed()), ()), 1)
        for m in enumerate_mlq(lam, n)
        if m.column_content()[: len(mu)] == tuple(mu) and is_nonwrapping(m)
    ))


def coquinv_free_fillings(m) -> list:
    """Every filling with the row contents of a straight queue, in any
    order within each row, that has no cyclically decreasing triple."""
    shape = m.shape()
    contents = [row for row in m.rows if row]
    fillings = (
        ColumnFilling(shape, rows, m.n)
        for rows in product(*(permutations(row) for row in contents))
    )
    return [tau for tau in fillings if coquinv(tau) == 0]
