"""Exact combinatorics of multiline queues.

Multiline queues with their labelling statistics, the collapsing maps onto
nonwrapping queues, the bijections with semistandard tableaux, and exact
polynomial identities (q-Whittaker, Schur, Kostka-Foulkes, dual Cauchy,
Littlewood-Richardson).  Each quantity has one route here: the generating
functions and Schur polynomials sum over label-word states row by row, and
Kostka-Foulkes polynomials are charge sums over tableaux.  The other routes
the paper proves equal, such as enumerating every queue, are reference
implementations in the test suite, which checks that they agree.
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
    charge_by_matching,
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
    energy_h,
    energy_levels,
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
from .collapse import (
    CollapseResult,
    collapse,
    collapse_inverse,
    collapse_left,
    collapse_top_down,
    drop,
    drop_all,
    flip_up,
    labelled_collapse,
    lift,
    mrsk,
    mrsk_inverse,
    rotate90,
    rotate180,
    rotate270,
    twisted_collapse,
)
from .tableaux import (
    SkewTableau,
    Tableau,
    column_insert,
    column_reading_word,
    enumerate_skew_ssyt,
    enumerate_ssyt,
    insert_into_mlq,
    jdt_rectify,
    lr_coefficient,
    lr_coefficient_by_mlq,
    mlq_of_tableau,
    mult_mlq,
    parse_tableau,
    rectify_by_mlq,
    row_insert,
    row_reading_word,
    skew_to_mlq,
    straighten,
    superstandard,
    tab_of_mlq,
    tableau_charge,
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
    schur,
    skew_schur,
)

__version__ = "0.1.0"
