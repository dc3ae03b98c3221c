"""Exact combinatorics of multiline queues.

Multiline queues with their labelling statistics (``mlq``), semistandard
tableaux (``tableaux``), the collapsing maps onto nonwrapping queues and the
bijections with tableaux that collapsing gives (``collapse``), column
fillings (``fillings``), and exact polynomial identities (``poly``:
q-Whittaker, Schur, Kostka-Foulkes, dual Cauchy, Littlewood-Richardson).
Modules import each other at module level and without cycles: ``core``,
``errors``, ``matching`` and ``charge`` come first, ``tableaux`` and ``mlq``
build on them, and ``collapse``, ``fillings`` and ``poly`` on those.

Each quantity has one route here, and one engine builds every tableau:
chains of horizontal strips (``tableaux._strip_chains``).  q-Whittaker
polynomials are the charge formula in the Schur basis, read off one
traversal of the tableaux of a content (``q_whittaker_schur``), and in the
monomial basis through Kostka numbers (``q_whittaker_mlq``, also named
``q_whittaker_charge_expansion``); the generalized form, with the rows in
any order, is the same polynomial (sigma-invariance), so it takes that
route.  The stationary counts sum over label-word states row by row, one
state per rotation class.  One expansion takes every Schur-basis sum to
monomials through Kostka numbers (``poly._monomial_form``): q-Whittaker,
Schur and skew Schur polynomials share it.  Schur polynomials are the
weight sums of nonwrapping queues, which collapsing sends to tableaux, and
skew Schur polynomials the content sums of skew tableaux, so one sweep of
strip chains from the inner shape to the outer counts their Kostka numbers
(``tableaux._kostka_sweep``).
LR coefficients count the strip chains that the lattice rule prunes, and
Kostka-Foulkes polynomials sum the fermionic formula of Kirillov and
Reshetikhin over configurations, each q-binomial product counting many
tableaux at once (``charge._fermionic_sum``).  The other routes the paper
proves equal are reference implementations in the test suite
(``tests/oracles.py``), which checks that they agree: the charge sum over
tableaux, the fermionic formula with every partition tried at every level,
enumerating every
queue (and keeping the nonwrapping ones for Schur polynomials), the Schur
expansion one shape at a time, tableaux filled cell by cell (and the skew
tableau sum and lattice filter on them), the LR expansion of skew Schur
polynomials, row insertion of the column word and label-tracked collapsing
(both give the recorder), collapsing one ball per letter, top-down
collapsing, jeu de taquin, charge by matching, enumerating the queues with
the rows in a given order, the label-word sweep with one state per word and
the energy of the indicator levels (which equals ``maj_g``).
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
    lr_coefficient,
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
