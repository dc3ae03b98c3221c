"""Exact combinatorics of multiline queues.

Multiline queues with their labelling statistics (``mlq``), semistandard
tableaux (``tableaux``), the collapsing maps onto nonwrapping queues with
the bijections and Littlewood-Richardson counts that collapsing gives
(``collapse``), column fillings (``fillings``), and exact polynomial
identities (``poly``: q-Whittaker, Schur, skew Schur, Kostka-Foulkes, dual
Cauchy).
Modules import each other at module level and without cycles: ``core``,
``errors``, ``matching`` and ``charge`` come first, ``tableaux`` and ``mlq``
build on them, and ``collapse``, ``fillings`` and ``poly`` on those.

Each quantity has one route here, and one engine builds every tableau:
chains of horizontal strips (``tableaux._strip_chains``) from one strip
kernel (``tableaux._strips``).  One sweep of them per shape
(``tableaux._kostka_sweep``) counts the Kostka numbers that take Schur and
skew Schur polynomials to monomials, and, with the psi weight that the
kernel builds for each strip, sums q-Whittaker polynomials by the t = 0
branching rule
(``q_whittaker_mlq``); the generalized form, rows in any order, is the same
polynomial (sigma-invariance).  The stationary counts sum over label-word
states, one per rotation class.  LR coefficients, in skew and product form
(``lr_coefficient``), are the paper's count of bicolored queues, searched
row by row on masks (``collapse.lr_coefficient_by_mlq``), and
Kostka-Foulkes polynomials sum the fermionic formula of Kirillov and
Reshetikhin (``charge._fermionic_sum``), which also gives the
Schur basis of the charge formula (``q_whittaker_schur``), one shape at a
time.  The other routes the paper proves equal are reference
implementations that the tests check them against (``tests/oracles.py``,
which lists them).
"""

from .core import (
    conjugate,
    content,
    dominance_leq,
    is_lattice,
    n_stat,
    partitions,
    sort_to_partition,
)
from .charge import (
    charge,
    charge_g,
    charge_permutation,
    charge_subwords,
    cocharge,
)
from .matching import bracket_match, lowering, raise_all, raising, reflect
from .mlq import (
    MultilineQueue,
    biwords,
    canonical_mlq,
    column_word,
    enumerate_gmlq,
    enumerate_mlq,
    is_nonwrapping,
    label_gmlq,
    label_mlq,
    maj,
    maj_g,
    parse_mlq,
    projection,
    row_word,
    sigma,
    stationary_counts,
)
from .tableaux import (
    SkewTableau,
    Tableau,
    column_insert,
    column_reading_word,
    enumerate_skew_ssyt,
    enumerate_ssyt,
    parse_tableau,
    row_reading_word,
    straighten,
    superstandard,
    tableau_charge,
)
from .collapse import (
    BicoloredMLQ,
    CollapseResult,
    collapse,
    collapse_inverse,
    collapse_left,
    drop,
    drop_all,
    flip_up,
    insert_into_mlq,
    lift,
    lr_coefficient,
    lr_coefficient_by_mlq,
    mlq_of_tableau,
    mrsk,
    mrsk_inverse,
    mult_mlq,
    rectify_by_mlq,
    rotate90,
    rotate180,
    rotate270,
    skew_to_mlq,
    tab_of_mlq,
    twisted_collapse,
)
from .fillings import (
    ColumnFilling,
    coquinv,
    enumerate_coquinv_free,
    filling_of_mlq,
    maj_filling,
    mlq_of_filling,
)
from .poly import (
    QXPolynomial,
    dual_cauchy_check,
    is_symmetric,
    kostka_foulkes,
    q_whittaker_charge_expansion,
    q_whittaker_coquinv,
    q_whittaker_gmlq,
    q_whittaker_mlq,
    q_whittaker_schur,
    schur,
    skew_schur,
)

__version__ = "0.1.0"
