"""Enumerate-and-sum routes, kept as references for the row-by-row sweep.

Each sums over every queue one at a time, so it is exponential in the number
of rows; the package computes the same quantities over label-word states.
"""

from mlqkit.core import conjugate
from mlqkit.mlq import enumerate_gmlq, enumerate_mlq, maj, maj_g, projection
from mlqkit.poly import QXPolynomial, _x_key


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
