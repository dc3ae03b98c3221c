"""Independent reference routes that the package's fast routes are checked
against.

The enumerate-and-sum routes visit every queue one at a time, so they are
exponential in the number of rows; the package computes the same quantities
over label-word states (the stationary counts) or chains of horizontal
strips (the q-Whittaker polynomials).  ``label_mlq_by_matching`` labels a straight
queue by iterated cylindrical matching, independently of the pairing rule
that the package runs in ``mlq._label_layer``.  ``label_row_by_scan`` runs
that rule one row and one site at a time and reads each wrap off its own
walk, with no class filled in and no matching, so both the kernel's labels
and the wrap lists that ``mlq._wrap_lists`` matches out of them are checked
against it, and ``stationary_counts_by_sweep`` labels through it alone,
so the sweep's check does not run the kernel it checks.  The Schur and
Kostka-Foulkes routes here are the paper's theorems: Schur polynomials sum
over nonwrapping queues, and Kostka-Foulkes polynomials weigh nonwrapping
queues by the major index of their quarter turn.  ``coquinv_free_fillings``
tries every arrangement of every row, so it shows that the filling the
package builds by pairing is the only coquinv-free one; it counts the
triples cell by cell (``coquinv_by_cells``), not by the package's
``fillings.coquinv``, which reads the rows pairwise.
``collapse_full_sweep`` runs every collapse sweep down to row 1 and then
re-matches every settled pair, so it does not rely on the fall and stop
rules that ``collapse`` uses.  It counts every drop as it moves the balls,
so the drop counts that ``collapse`` reads off its recorder
(``CollapseResult.drop_counts``) are checked against a count of their own.

``_two_row_match`` is the bracket rule on two rows held as sets: it lists
the column events and runs a stack over them, returning every matched pair.
The package matches rows as bitmasks (``matching._match_rows``), so the
collapse oracles here and ``sigma_by_sets`` drop, lift and swap balls
through this matcher, not through the package's kernel.
``all_binary_matrices`` lists every generalized queue of a size, for the
exhaustive tests.

The second routes below each pin one theorem against the package's route:

- ``row_insert``: row insertion of the column word gives the recording
  tableau of ``collapse`` (collapsing is an insertion procedure).
- ``mlq_of_tableau_by_letters``: collapsing one ball per letter of the
  reversed column word gives the queue that ``mlq_of_tableau`` gets by
  collapsing one row per column.
- ``labelled_collapse``: collapsing with every ball carrying its source row
  as a label reads off the same recording tableau.
- ``mrsk_by_two_collapses`` / ``mrsk_inverse_by_crw``: collapsing the
  quarter turn gives the leftward queue that ``mrsk`` reads off the
  recorder of the one downward collapse, and ``recorder_of_left_by_crw``,
  the tableau whose column reading word is the leftward queue turned back,
  is the recorder that ``mrsk_inverse`` reads off its rows (the queue form
  of RSK symmetry).  ``tableau_from_crw`` rebuilds a tableau from its
  column reading word, and ``ls_action`` reflects that word.
- ``collapse_top_down``: sweeping the drops from the top gives the same
  collapsed queue (the drop operators satisfy the braid relations).
- ``jdt_rectify``: jeu de taquin rectifies a skew tableau to the tableau that
  ``rectify_by_mlq`` reads off the straight part of its bicolored queue.
- ``q_whittaker_gmlq``: the sum over the queues with the rows in the given
  order equals the straight sum (sigma-invariance), which is what the
  package computes for every order (``poly.q_whittaker_gmlq``).
- ``stationary_counts_by_sweep``: the label-word sweep with one state per
  word gives the counts that ``stationary_counts`` gets with one state per
  rotation class, splitting each class total over its rotations at the end
  (rotating every row of a queue rotates its bottom-row labels).
- ``charge_by_matching``: charge computed by classical and cylindrical
  matching alone equals the charge of the charge subwords.
- ``energy_levels`` / ``energy_h``: the wraps of the indicator levels of each
  row's labels against the row below sum to ``maj_g``.
- ``ssyt_rows_by_cells``: filling the cells of a (skew) shape one at a time
  gives the semistandard tableaux that the package builds as chains of
  horizontal strips (``tableaux._strip_chains``); ``schur_by_ssyt`` and
  ``skew_schur_by_tableaux`` sum their contents.
- ``lr_coefficient_by_filter``: the skew tableaux of content nu, filled cell
  by cell and kept when their reverse reading word is a lattice word, are
  as many as the package counts by a sweep over the strips that the
  kernel keeps under the lattice rule (``lr_coefficient``).
- ``lr_coefficient_by_mlq_unpruned``: the collapsing route as the paper
  states it, with every choice of rows for every skew column and the
  straight part collapsed from the superstandard tableau, keeping the
  candidates of row sizes lam'; the package fills only the rows that still
  need skew balls and lays the straight part out left-justified
  (``lr_coefficient_by_mlq``).
- ``skew_schur_by_tableaux``: the content sum over the skew tableaux filled
  cell by cell gives the skew Schur polynomial that the package expands
  through skew Kostka numbers, swept from inner to outer (``skew_schur``);
  so does the sum over nu of c^lam_{mu,nu} times ``schur_by_ssyt``, the LR
  expansion, which is a theorem here and no route of the package.
- ``kostka_foulkes_by_charge``: the Lascoux-Schutzenberger charge sum over
  SSYT(lam, mu), which collapsing gives, equals the fermionic formula that
  the package sums over configurations (``poly.kostka_foulkes``);
  ``kostka_foulkes_by_configurations`` sums that formula term by term over
  ``rigged_configurations``, found by trying every partition at every
  level, with q-binomials counted as subsets (``q_binomial_by_subsets``),
  so neither the package's pruning, its memo of level pairs nor its packed
  q-Pascal table (``charge._q_binomials``) is used.  The tests check that
  table, and the psi weights that the strip kernel reads from it, against
  the subset count too.
- ``hall_littlewood``: the Hall-Littlewood polynomials at t = q, built from
  ``kostka_foulkes`` by the unitriangular recursion, for the q-deformed
  dual Cauchy identity that ties them to the q-Whittaker polynomials.
- ``tasep_law``: the stationary law of the ring TASEP solved exactly over
  Fractions, unique or None, against the normalised ``stationary_counts``.
- ``q_whittaker_schur`` / ``q_whittaker_charge_expansion``: the Schur
  expansion built one lam at a time, the charge sum over SSYT(lam', mu')
  (``kostka_foulkes_by_charge``) times ``schur_by_ssyt``, gives the
  coefficients that the package sums by the fermionic formula, one per
  dominating lam' (``q_whittaker_schur``), and the polynomial
  that the package sums by the t = 0 branching rule, one psi-weighted
  sweep of strip chains (``q_whittaker_mlq``).  No package route charges a
  tableau, so the charge traversal of the paper lives here.
"""

import operator
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product

from mlqkit import poly
from mlqkit.collapse import (
    BicoloredMLQ,
    CollapseResult,
    _row_masks,
    collapse,
    collapse_inverse,
    mlq_of_tableau,
    rotate90,
    rotate270,
)
from mlqkit.core import (
    _check_letters,
    check_partition,
    conjugate,
    content,
    is_lattice,
    is_partition,
    partitions,
)
from mlqkit.errors import (
    InvariantError,
    NonPartitionContent,
    NotNonwrapping,
    ParseError,
    ShapeMismatch,
    SizeMismatch,
)
from mlqkit.fillings import ColumnFilling
from mlqkit.matching import bracket_match, reflect
from mlqkit.mlq import (
    MultilineQueue,
    _check_straight,
    _is_collapsed,
    column_word,
    enumerate_gmlq,
    enumerate_mlq,
    is_nonwrapping,
    label_gmlq,
    maj_g,
    projection,
)
from mlqkit.poly import QXPolynomial
from mlqkit.tableaux import (
    SkewTableau,
    Tableau,
    _inner_of,
    _rows_of_columns,
    column_reading_word,
    enumerate_ssyt,
    superstandard,
    tableau_charge,
)


def _x_key(counts):
    """Sparse x exponent vector of a content vector (counts[i-1] for x_i)."""
    return tuple((i + 1, e) for i, e in enumerate(counts) if e)


def all_binary_matrices(num_rows: int, n: int):
    """Every generalized queue on num_rows rows and n columns."""
    cells = [(r, c) for r in range(1, num_rows + 1) for c in range(1, n + 1)]
    for mask in range(1 << len(cells)):
        rows = [[] for _ in range(num_rows)]
        for k, (r, c) in enumerate(cells):
            if mask >> k & 1:
                rows[r - 1].append(c)
        yield MultilineQueue(n, rows)


def _two_row_match(upper, lower, cyclic=False):
    """Match an upper row (opens) against a lower row (closes), column order.

    Within a column the upper symbol precedes the lower one, matching the
    top-down column reading.  Returns (pairs, unmatched_opens,
    unmatched_closes, wrapping_pairs) as column lists; in cyclic mode the
    trailing unmatched opens pair with the leading unmatched closes, outside
    in.
    """
    stack, pairs, closes = [], [], []
    for c in sorted(set(upper) | set(lower)):
        if c in upper:
            stack.append(c)
        if c in lower:
            if stack:
                pairs.append((stack.pop(), c))
            else:
                closes.append(c)
    if not cyclic:
        return pairs, stack, closes, []
    k = min(len(stack), len(closes))
    wrapping = [(stack[-1 - t], closes[t]) for t in range(k)]
    return pairs, stack[: len(stack) - k], closes[k:], wrapping


def _unmatched_above(rows, i):
    """Columns of row i+1 (1-based) unmatched against row i; rows are sets."""
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


def sigma_by_sets(m, i):
    """``mlq.sigma`` by the set matcher: rows i and i+1 exchange the balls
    that the cylindrical matching leaves unmatched."""
    _, opens, closes, _ = _two_row_match(m.row(i + 1), m.row(i), cyclic=True)
    rows = [set(r) for r in m.rows]
    for c in opens:
        rows[i].remove(c)
        rows[i - 1].add(c)
    for c in closes:
        rows[i - 1].remove(c)
        rows[i].add(c)
    return m.with_rows(rows)


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


def label_row_by_scan(word, row):
    """(labels, wrapping particle labels, wrapping anti-particle labels) of
    ball set ``row`` (columns 1..n) under a row labelled ``word``, one site
    at a time.

    Sources pair in decreasing label, ties left to right: the s first, s
    the number of balls, each to the first free particle weakly right of
    it, the rest, lowest priority first, each to the first free
    anti-particle weakly left of it, with the label decremented; both scans
    wrap cyclically.
    """
    n = len(word)
    particle = [c + 1 in row for c in range(n)]
    s = sum(particle)
    order = sorted(range(n), key=word.__getitem__, reverse=True)
    out = [None] * n
    plus, minus = [], []
    for src in order[:s]:
        t = src
        while not particle[t] or out[t] is not None:
            t = t + 1 if t + 1 < n else 0
        out[t] = word[src]
        if t < src:
            plus.append(word[src])
    for src in reversed(order[s:]):
        t = src
        while particle[t] or out[t] is not None:
            t = t - 1 if t else n - 1
        out[t] = word[src] - 1
        if t > src:
            minus.append(word[src])
    return tuple(out), plus, minus


def q_whittaker_schur(mu, n: int) -> dict:
    """{lam: K_{lam',mu'}(q)}, each the charge sum over SSYT(lam', mu')
    (``kostka_foulkes_by_charge``).

    s_lam is 0 on n variables when lam has more than n parts, so those lam
    are skipped before their tableaux are charged.
    """
    out = {}
    for lam in partitions(sum(mu)):
        if len(lam) <= n:
            coeff = kostka_foulkes_by_charge(conjugate(lam), conjugate(mu))
            if not coeff.is_zero():
                out[lam] = coeff
    return out


def q_whittaker_charge_expansion(mu, n: int) -> QXPolynomial:
    """Sum over lam of K_{lam',mu'}(q) times s_lam, one lam at a time, each
    s_lam from tableaux filled cell by cell."""
    terms = Counter()
    for lam, coeff in q_whittaker_schur(mu, n).items():
        s_lam = schur_by_ssyt(lam, n)
        for (q, _), k in coeff.terms.items():
            for (_, x), count in s_lam.terms.items():
                terms[(q, x)] += k * count
    return QXPolynomial(n, terms)


def stationary_counts(lam, n: int) -> dict:
    """Tally of projection over all queues of shape lam."""
    counts = {}
    for m in enumerate_mlq(lam, n):
        state = projection(m)
        counts[state] = counts.get(state, 0) + 1
    return counts


def tasep_law(word, hop=operator.lt):
    """The stationary law of the ring process on the rearrangements of
    word, solved exactly, or None unless it is unique.  Across each cyclic
    bond (a, a+1) the two labels swap at rate 1 when hop(w_a, w_{a+1}); the
    default is the multispecies TASEP in which larger labels hop left over
    smaller ones and 0 is a hole.

    The balance equations pi Q = 0 sum to zero, so one of them is replaced
    by sum(pi) = 1, and Gauss-Jordan elimination over Fractions finds a
    pivot in every column exactly when the law is unique.
    """
    states = sorted(set(permutations(word)))
    index = {w: i for i, w in enumerate(states)}
    size, n = len(states), len(word)
    rows = [[Fraction(0)] * (size + 1) for _ in range(size)]  # row j: balance at j
    for w, i in index.items():
        for a in range(n):
            b = (a + 1) % n
            if hop(w[a], w[b]):
                v = list(w)
                v[a], v[b] = w[b], w[a]
                rows[index[tuple(v)]][i] += 1
                rows[i][i] -= 1
    rows[-1] = [Fraction(1)] * (size + 1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(size):
            f = rows[r][col]
            if r != col and f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return {w: rows[i][size] for w, i in index.items()}


def stationary_counts_by_sweep(lam, n: int) -> dict:
    """The label-word sweep with one state per word, not per rotation
    class: from the constant word L..L above the top row, each word of a
    layer labels every ball set of the next row through
    ``label_row_by_scan``, one site at a time, so it shares no code with
    the kernel that ``stationary_counts`` runs."""
    alpha = conjugate(lam)
    layer = {(len(alpha),) * n: 1}
    for s in reversed(alpha):
        rows = list(combinations(range(1, n + 1), s))
        below = Counter()
        for word, count in layer.items():
            for row in rows:
                below[label_row_by_scan(word, row)[0]] += count
        layer = below
    return dict(layer)


def schur(lam, n: int) -> QXPolynomial:
    """x^M summed over the nonwrapping queues of shape lam."""
    if conjugate(lam) and conjugate(lam)[0] > n:
        return QXPolynomial.zero(n)
    return QXPolynomial(n, (
        ((0, _x_key(m.column_content())), 1)
        for m in enumerate_mlq(lam, n)
        if is_nonwrapping(m)
    ))


def ssyt_rows_by_cells(outer, inner=(), max_entry=None, weight=None):
    """The filled rows, bottom row first, of every semistandard filling of
    outer/inner with entries at most max_entry or content weight; none
    unless inner lies inside outer.

    Cells are filled one at a time, row by row from the bottom and left to
    right in each row, each with every value from the least its row and
    column allow upward; the bounds are trusted.
    """
    outer = check_partition(outer)
    inner = _inner_of(outer, check_partition(inner))
    if inner is None:
        return
    top = max_entry if weight is None else len(weight)
    remaining = None if weight is None else list(weight)
    if remaining is not None and sum(remaining) != sum(outer) - sum(inner):
        return
    cells = [(r, c) for r in range(len(outer)) for c in range(inner[r], outer[r])]
    grid = [[0] * k for k in outer]

    def fill(k):
        if k == len(cells):
            yield tuple(tuple(row[i:]) for row, i in zip(grid, inner))
            return
        r, c = cells[k]
        low = grid[r][c - 1] if c > inner[r] else 1
        if r and c >= inner[r - 1]:  # the cell below is filled
            low = max(low, grid[r - 1][c] + 1)
        for v in range(low, top + 1):
            if remaining is not None:
                if remaining[v - 1] == 0:
                    continue
                remaining[v - 1] -= 1
            grid[r][c] = v
            yield from fill(k + 1)
            if remaining is not None:
                remaining[v - 1] += 1

    yield from fill(0)


def skew_schur_by_tableaux(outer, inner, n: int) -> QXPolynomial:
    """x^content summed over the skew tableaux of outer/inner with entries
    at most n, filled cell by cell."""
    return QXPolynomial(n, (
        ((0, _x_key(content([v for r in rows for v in r]))), 1)
        for rows in ssyt_rows_by_cells(outer, inner, max_entry=n)
    ))


def schur_by_ssyt(lam, n: int) -> QXPolynomial:
    """x^content summed over semistandard tableaux of shape lam, filled cell
    by cell."""
    return skew_schur_by_tableaux(lam, (), n)


def skew_rev_reading_word(t) -> tuple:
    """Rows bottom to top, each read right to left (the lattice-rule word)."""
    return tuple(v for row in t.rows for v in reversed(row))


def lr_coefficient_by_filter(lam, mu, nu) -> int:
    """c^lam_{mu,nu}: the skew tableaux of lam/mu with content nu, filled
    cell by cell, whose reverse reading word is a lattice word."""
    if sum(lam) != sum(mu) + sum(nu):
        raise SizeMismatch(f"|{lam}| != |{mu}| + |{nu}|")
    inner = _inner_of(lam, mu)
    return sum(
        1
        for rows in ssyt_rows_by_cells(lam, mu, weight=nu)
        if is_lattice(skew_rev_reading_word(SkewTableau(lam, inner, rows)))
    )


def lr_coefficient_by_mlq_unpruned(lam, mu, nu) -> int:
    """c^lam_{mu,nu}: the bicolored nonwrapping queues of shape lam with
    len(mu) skew columns, lattice skew word and straight part the queue of
    the superstandard tableau of shape nu, found among every way to put the
    mu_j balls of each skew column j in distinct rows."""
    lam, mu, nu = (check_partition(p) for p in (lam, mu, nu))
    if sum(lam) != sum(mu) + sum(nu):
        raise SizeMismatch(f"|{lam}| != |{mu}| + |{nu}|")
    if _inner_of(lam, mu) is None:
        return 0
    if not nu:
        return 1 if lam == mu else 0
    ell = len(mu)
    straight = mlq_of_tableau(superstandard(nu), n=len(nu))
    lam_cols = conjugate(lam)
    height = len(lam_cols)
    if straight.num_rows > height:
        return 0
    fixed_rows = [[c + ell for c in row] for row in straight.rows]
    fixed_rows += [[]] * (height - straight.num_rows)
    per_column = [list(combinations(range(1, height + 1), k)) for k in mu]
    total = 0
    for choice in product(*per_column):
        rows = [list(r) for r in fixed_rows]
        for j, picked in enumerate(choice, start=1):
            for r in picked:
                rows[r - 1].append(j)
        if tuple(len(r) for r in rows) != lam_cols:
            continue
        cand = MultilineQueue(len(nu) + ell, rows)
        if _is_collapsed(_row_masks(cand)) and is_lattice(BicoloredMLQ(cand, ell).skew_word()):
            total += 1
    return total


def kostka_foulkes_rotated(lam, mu) -> QXPolynomial:
    """K_{lam,mu}(q) over the nonwrapping queues of shape lam with column
    content mu, each weighted by the major index of its quarter turn."""
    if sum(lam) != sum(mu):
        raise SizeMismatch(f"|{lam}| != |{mu}|")
    if not lam:  # the empty queue has no quarter turn; its maj is 0
        return QXPolynomial(0, [((0, ()), 1)])
    n = len(mu)
    if conjugate(lam)[0] > n:
        return QXPolynomial.zero(0)
    return QXPolynomial(0, (
        ((maj(rotate90(m).trimmed()), ()), 1)
        for m in enumerate_mlq(lam, n)
        if m.column_content()[: len(mu)] == tuple(mu) and is_nonwrapping(m)
    ))


def kostka_foulkes_by_charge(lam, mu) -> QXPolynomial:
    """K_{lam,mu}(q) as the Lascoux-Schutzenberger charge sum over
    SSYT(lam, mu)."""
    if sum(lam) != sum(mu):
        raise SizeMismatch(f"|{lam}| != |{mu}|")
    charges = Counter(tableau_charge(t) for t in enumerate_ssyt(lam, weight=mu))
    return QXPolynomial(0, [((q, ()), k) for q, k in charges.items()])


def _q_count(n, rho) -> int:
    """Q_n(rho), the sum of min(n, rho_i)."""
    return sum(min(n, part) for part in rho)


def rigged_configurations(lam, mu) -> list:
    """The admissible configurations (nu(1), ..., nu(L-1)) of the fermionic
    formula, L = len(lam), found by trying every partition of every size
    |nu(k)| = lam_{k+1} + ... + lam_L; nu(0) = mu and nu(L) = ().  Each
    level holds its vacancy numbers
    Q_n(nu(k-1)) - 2 Q_n(nu(k)) + Q_n(nu(k+1)) >= 0 at its parts n."""
    sizes = [sum(lam[k:]) for k in range(1, len(lam))]
    found = []
    for middle in product(*(list(partitions(size)) for size in sizes)):
        levels = (tuple(mu),) + middle + ((),)
        if all(
            _q_count(n, levels[k - 1]) - 2 * _q_count(n, levels[k]) + _q_count(n, levels[k + 1]) >= 0
            for k in range(1, len(levels) - 1)
            for n in levels[k]
        ):
            found.append(middle)
    return found


def q_binomial_by_subsets(a, b) -> Counter:
    """[a choose b]_q as {e: count}: the b-subsets of 1..a by their sum
    less b(b + 1)/2."""
    return Counter(sum(s) - b * (b + 1) // 2 for s in combinations(range(1, a + 1), b))


def kostka_foulkes_by_configurations(lam, mu) -> QXPolynomial:
    """K_{lam,mu}(q) by the fermionic formula term by term: q^c(nu) times
    the product of [P_n(k) + m_n choose m_n]_q over the levels k < L and
    the distinct parts n of nu(k), summed over ``rigged_configurations``,
    with c(nu) the sum over k = 1..L and n of d(d - 1)/2, d = nu(k-1)'_n -
    nu(k)'_n.  No level is pruned early and no pair of levels is shared."""
    total = Counter()
    for middle in rigged_configurations(lam, mu):
        levels = (tuple(mu),) + middle + ((),)
        c = 0
        for upper, lower in zip(levels, levels[1:]):
            a, b = conjugate(upper), conjugate(lower)
            for n in range(max(len(a), len(b))):
                d = (a[n] if n < len(a) else 0) - (b[n] if n < len(b) else 0)
                c += d * (d - 1) // 2
        weight = Counter({c: 1})
        for k in range(1, len(levels) - 1):
            for n, m in Counter(levels[k]).items():
                vacancy = (_q_count(n, levels[k - 1]) - 2 * _q_count(n, levels[k])
                           + _q_count(n, levels[k + 1]))
                product_weight = Counter()
                for e, x in weight.items():
                    for f, y in q_binomial_by_subsets(vacancy + m, m).items():
                        product_weight[e + f] += x * y
                weight = product_weight
        total.update(weight)
    return QXPolynomial(0, [((q, ()), k) for q, k in total.items()])


def hall_littlewood(size, n: int) -> dict:
    """{mu: P_mu(y_1..y_n; q)} over the partitions mu of size, the
    Hall-Littlewood polynomials at t = q on n variables.

    Macdonald III (2.6), s_mu = sum over nu of K_{mu,nu}(q) P_nu with
    K_{mu,mu} = 1 and K_{mu,nu} = 0 unless nu <= mu in dominance, gives the
    unitriangular recursion P_mu = s_mu - sum over nu < mu of K_{mu,nu}(q)
    P_nu in the Schur basis, run from ``poly.kostka_foulkes``.  Reverse
    lexicographic order extends dominance, so the partitions are taken from
    last to first.  Each s_rho is ``schur_by_ssyt``.
    """
    in_schur = {}  # mu: {rho: the coefficient of s_rho, a polynomial in q}
    for mu in reversed(list(partitions(size))):
        coeffs = {mu: QXPolynomial.one(0)}
        for nu, p_nu in in_schur.items():
            k = poly.kostka_foulkes(mu, nu)
            for rho, a in p_nu.items():
                coeffs[rho] = coeffs.get(rho, QXPolynomial.zero(0)) - k * a
        in_schur[mu] = {rho: a for rho, a in coeffs.items() if not a.is_zero()}
    out = {}
    for mu, coeffs in in_schur.items():
        terms = Counter()
        for rho, a in coeffs.items():
            s_rho = schur_by_ssyt(rho, n)
            for (qa, _), ca in a.terms.items():
                for (qs, xs), cs in s_rho.terms.items():
                    terms[qa + qs, xs] += ca * cs
        out[mu] = QXPolynomial(n, terms)
    return out


def shifted(p, total, offset) -> QXPolynomial:
    """p with x_i renamed x_{i + offset}, in a ring of total variables."""
    return QXPolynomial(total, {
        (q, tuple((i + offset, e) for i, e in xs)): c for (q, xs), c in p.terms.items()
    })


def _cyclically_decreasing(x, y, z) -> bool:
    """Counterclockwise decrease for the triple (above, below, right-of-below)."""
    return (x > y >= z) or (y >= z >= x) or (z >= x > y)


def coquinv_by_cells(tau) -> int:
    """``fillings.coquinv`` one cell triple at a time: for each row r and
    columns i < j both reaching row r-1, test the triple of entry(r, i),
    entry(r-1, i) and entry(r-1, j), or only the last two when column i
    ends at row r-1."""
    shape = tau.shape
    total = 0
    for r in range(2, (shape[0] if shape else 0) + 2):
        for i in range(1, len(shape) + 1):
            if shape[i - 1] < r - 1:
                break
            for j in range(i + 1, len(shape) + 1):
                if shape[j - 1] < r - 1:
                    break
                y = tau.entry(r - 1, i)
                z = tau.entry(r - 1, j)
                if shape[i - 1] >= r:
                    if _cyclically_decreasing(tau.entry(r, i), y, z):
                        total += 1
                elif y >= z:
                    total += 1
    return total


def coquinv_free_fillings(m) -> list:
    """Every filling with the row contents of a straight queue, in any
    order within each row, that has no cyclically decreasing triple."""
    shape = m.shape()
    contents = [row for row in m.rows if row]
    fillings = (
        ColumnFilling(shape, rows, m.n)
        for rows in product(*(permutations(row) for row in contents))
    )
    return [tau for tau in fillings if coquinv_by_cells(tau) == 0]


def collapse_full_sweep(m):
    """Collapse with every sweep run down to row 1 and every settled pair
    re-matched after it: the same result as ``collapse``, and the counted
    drops {(r, j): balls that sweep r moved from row j+1 to row j}."""
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
    return CollapseResult(queue, recorder), drop_counts


def row_insert(word) -> Tableau:
    """Classical row insertion of a word into the empty tableau."""
    rows = []
    for letter in word:
        x = letter
        for row in rows:
            bump = next((k for k, v in enumerate(row) if v > x), None)
            if bump is None:
                row.append(x)
                x = None
                break
            row[bump], x = x, row[bump]
        if x is not None:
            rows.append([x])
    return Tableau(rows)


def mlq_of_tableau_by_letters(t, n) -> MultilineQueue:
    """Nonwrapping queue of t on n columns: collapse the queue with one ball
    per row, the letters of the reversed column reading word bottom up."""
    word = reversed(column_reading_word(t))
    return collapse(MultilineQueue(max(n, 1), [[v] for v in word])).queue.trimmed()


def mrsk_by_two_collapses(m):
    """``mrsk`` by two collapses: m, and its quarter turn."""
    return collapse(m).queue, collapse(rotate90(m)).queue


def tableau_from_crw(word) -> Tableau:
    """Rebuild a tableau from its column reading word; ParseError unless
    the word is the column reading word of a tableau.

    Columns are the maximal strictly decreasing runs of the word.
    """
    cols = []
    for v in _check_letters(word):
        if cols and cols[-1][-1] > v:
            cols[-1].append(v)
        else:
            cols.append([v])
    rows = _rows_of_columns([c[::-1] for c in cols])
    if rows is None:
        raise ParseError("columns do not form a tableau")
    return Tableau(rows)


def ls_action(t: Tableau, i: int) -> Tableau:
    """Reflection on tableaux: reflect the column word, write it back."""
    return tableau_from_crw(reflect(column_reading_word(t), i))


def recorder_of_left_by_crw(left) -> Tableau:
    """The recorder of a leftward queue: turned back, its column word is the
    column reading word of the recorder; ParseError unless it is one."""
    return tableau_from_crw(column_word(rotate270(left)))


def mrsk_inverse_by_crw(down, left) -> MultilineQueue:
    """``mrsk_inverse`` through ``recorder_of_left_by_crw``, with the same
    checks in the same order, on queues of transposed sizes."""
    for q in (left, down):
        if not _is_collapsed(_row_masks(q)):
            raise NotNonwrapping(q.to_text())
    if left.shape() != conjugate(down.shape()):
        raise ShapeMismatch(f"{left.shape()} is not conjugate to {down.shape()}")
    return collapse_inverse(down, recorder_of_left_by_crw(left), height=left.n)


def collapse_top_down(m) -> MultilineQueue:
    """Equivalent collapse order: full sweeps from the top, then shorter."""
    rows = [set(r) for r in m.rows]
    top = len(rows)
    for start in range(1, top + 1):
        for j in range(top - 1, start - 1, -1):
            _drop_unmatched(rows, j)
    return m.with_rows(rows)


def labelled_collapse(m) -> Tableau:
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


def jdt_rectify(t) -> Tableau:
    """Jeu-de-taquin rectification of a skew tableau."""
    outer = list(t.outer)
    inner = list(t.inner)
    grid = {}
    for r in range(len(outer)):
        for k, v in enumerate(t.rows[r]):
            grid[(r, inner[r] + k)] = v
    while any(inner):
        r = next(
            i
            for i in range(len(outer))
            if inner[i]
            and (i + 1 >= len(outer) or inner[i + 1] < inner[i])
        )
        hole = (r, inner[r] - 1)
        while True:
            north = (hole[0] + 1, hole[1])
            east = (hole[0], hole[1] + 1)
            has_n, has_e = north in grid, east in grid
            if not has_n and not has_e:
                break
            if has_n and (not has_e or grid[north] <= grid[east]):
                grid[hole] = grid.pop(north)
                hole = north
            else:
                grid[hole] = grid.pop(east)
                hole = east
        outer[hole[0]] -= 1
        inner[r] -= 1
    rows = []
    for r in range(len(outer)):
        if outer[r]:
            rows.append([grid[(r, c)] for c in range(outer[r])])
    return Tableau(rows)


def charge_by_matching(w) -> int:
    """Charge computed through classical and cylindrical matching alone.

    The word is peeled into layers: for r from the largest part of the
    content down to 1, the letters r of the current layer seed a subword
    which is grown downward one letter value at a time, keeping the letters
    k that match cylindrically against the already-selected k+1's.  Each
    letter that matches only by wrapping contributes r - k.
    """
    lam = content(w)
    if not is_partition(lam):
        raise NonPartitionContent(f"content {lam}")
    if not lam:
        return 0
    total = 0
    layer = list(range(len(w)))  # positions still to be assigned
    for r in range(len(lam), 0, -1):  # subword lengths run down from max(w)
        selected = {p for p in layer if w[p] == r}
        for k in range(r - 1, 0, -1):
            # drop letters above k that were not selected for this layer
            sub = [p for p in layer if w[p] <= k or p in selected]
            word_k = tuple(w[p] for p in sub)
            m = bracket_match(word_k, k, cyclic=True)
            matched_closes = {c for _, c in m.matched_pairs}
            wrapped_closes = {c for _, c in m.wrapping_pairs}
            total += len(wrapped_closes) * (r - k)
            for pos1 in matched_closes | wrapped_closes:
                selected.add(sub[pos1 - 1])
        layer = [p for p in layer if p not in selected]
    return total


def _indicator_sets(word, top):
    """Nested supports {c : word_c >= j} for j = 1..top."""
    return [
        {c for c, v in enumerate(word, start=1) if v >= j} for j in range(1, top + 1)
    ]


def energy_levels(m) -> dict:
    """Wrapping counts per adjacent row pair and indicator level.

    Entry (r, j) counts the wrapping pairings of the level-j indicator of the
    labels of row r against the queue at row r-1.
    """
    labels, _, _ = label_gmlq(m)
    L = m.num_rows
    table = {}
    for r in range(2, L + 1):
        word = [labels[(r, c)] for c in range(1, m.n + 1)]
        below = set(m.row(r - 1))
        for j, support in enumerate(_indicator_sets(word, L), start=1):
            _, _, _, wrapping = _two_row_match(support, below, cyclic=True)
            table[(r, j)] = len(wrapping)
    return table


def energy_h(m) -> int:
    """Total energy: sum of all wrapping counts in the level table."""
    return sum(energy_levels(m).values())
