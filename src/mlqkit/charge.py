"""Charge and cocharge statistics on permutations and words, and their
generating function over tableaux, the Kostka-Foulkes polynomial, by the
fermionic formula (``_fermionic_sum``).  Every q-weighted sum of the
package packs its q-polynomials into ints at q = 2^width, with Gaussian
binomials from one packed q-Pascal table (``_q_binomials``)."""

from bisect import bisect_left
from itertools import accumulate, pairwise
from math import factorial, prod
from operator import mul

from .core import _as_tuple, _check_letters, _conjugate, content
from .errors import NonPartitionContent, NotAPermutation
from .matching import reflect


def charge_permutation(perm) -> int:
    """Charge of a permutation of 1..n in one-line notation; ParseError
    unless its letters are positive ints, NotAPermutation unless they are
    1..n."""
    perm = _check_letters(perm)
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise NotAPermutation(f"{perm}")
    chosen = [0] * n
    for p, v in enumerate(perm):
        chosen[n - v] = p
    return _charge_of_positions(chosen)


def _charge_of_positions(chosen):
    """Charge of the permutation of 1..n whose letter n - k stands at
    position chosen[k]: each letter i with i + 1 to its right adds n - i."""
    return sum(k for k in range(1, len(chosen)) if chosen[k] < chosen[k - 1])


def charge_subwords(w):
    """Split a partition-content word into its charge subwords."""
    w = _check_letters(w)
    return [tuple(w[p] for p in sorted(chosen)) for chosen in _subword_positions(w)]


def _subword_positions(w):
    """For each charge subword of w, the positions of its letters, largest
    letter first; ParseError unless the letters are positive ints and
    NonPartitionContent unless the content is a partition.

    The content is checked on the lists of positions that the extraction
    needs anyway: spots[k] holds the positions of letter k, and the content
    is a partition exactly when their lengths weakly decrease from k = 1
    (the largest letter occurs, so no letter below it is missing).

    Each subword is extracted by scanning cyclically for the largest
    remaining letter, then the next smaller one, and so on down to 1; the
    scan resumes after each found letter and wraps around the word.  Every
    letter keeps its remaining positions in a sorted list, so each step is
    one bisection from the cursor.
    """
    w = _check_letters(w)
    largest = max(w, default=0)
    spots = [[] for _ in range(largest + 1)]
    for p, letter in enumerate(w):
        spots[letter].append(p)
    if any(len(a) < len(b) for a, b in pairwise(spots[1:])):
        raise NonPartitionContent(f"content {tuple(map(len, spots[1:]))}")
    while largest:
        chosen = []
        cursor = 0
        for needed in range(largest, 0, -1):
            left = spots[needed]
            i = bisect_left(left, cursor)
            p = left.pop(i if i < len(left) else 0)
            chosen.append(p)
            cursor = p + 1
        yield chosen
        # the content left is still a partition, so letters run out from the top
        while largest and not spots[largest]:
            largest -= 1


def charge(w) -> int:
    """Charge of a word with partition content; ParseError unless its
    letters are positive ints, NonPartitionContent unless the content is a
    partition.

    Both checks run once, in ``_subword_positions``, on the letter positions
    that the subword extraction builds.  Each subword is a permutation by
    construction, so it is charged from its positions without the check of
    ``charge_permutation``.
    """
    return sum(map(_charge_of_positions, _subword_positions(w)))


def cocharge(w) -> int:
    """Cocharge: n(content) minus charge.  ``charge`` checks the letters and
    the content mu, and n(mu) is the sum of (i - 1) mu_i: each letter v of
    the word adds v - 1."""
    w = _as_tuple(w, "a word")
    c = charge(w)
    return sum(w) - len(w) - c


def sorting_reflections(alpha):
    """Indices i so that applying s_i right-to-left sorts alpha decreasingly.

    Stable selection sort pulling the largest part leftmost; transpositions
    between equal parts are skipped.  Returned in application order.
    """
    alpha = list(alpha)
    ops = []
    for start in range(len(alpha)):
        best = max(range(start, len(alpha)), key=lambda j: (alpha[j], -j))
        for j in range(best - 1, start - 1, -1):
            if alpha[j] != alpha[j + 1]:
                ops.append(j + 1)  # 1-based reflection index
                alpha[j], alpha[j + 1] = alpha[j + 1], alpha[j]
    return ops


def straighten_word(w):
    """Apply reflections until the content is a partition."""
    w = _check_letters(w)
    for i in sorting_reflections(content(w)):
        w = reflect(w, i)
    return w


def charge_g(w) -> int:
    """Generalized charge: straighten the content, then take the charge."""
    return charge(straighten_word(w))


def _q_binomials(table, top, width) -> list:
    """table, extended in place to table[b][a] = [a choose b]_q packed at
    q = 2^width for all a, b <= top (0 where b > a); table is [] or an
    earlier result at the same width.  Row b grows from row b - 1 by the
    q-Pascal rule [a choose b] = [a - 1 choose b - 1] + q^b [a - 1 choose
    b], one add and one shift per entry: packing evaluates at q = 2^width,
    where the rule holds too, so every entry is exact whatever the carries.
    """
    for b in range(top + 1):
        if b == len(table):
            table.append([1] if b == 0 else [0])
        row, shift = table[b], b * width
        above = table[b - 1] if b else [0] * top  # row -1 is all 0
        for a in range(len(row), top + 1):
            row.append(above[a - 1] + (row[a - 1] << shift))
    return table


def _unpacked(value, width) -> list:
    """The coefficients, lowest degree first, of a q-polynomial packed at
    q = 2^width from coefficients below 2^width; a zero keeps its degree."""
    mask = (1 << width) - 1
    out = []
    while value:
        out.append(value & mask)
        value >>= width
    return out


def _fermionic_sum(lam, mu) -> list:
    """The coefficients of K_{lam,mu}(q), lowest degree first, by the
    fermionic formula of Kirillov and Reshetikhin (see Kirillov, "Ubiquity
    of Kostka polynomials", arXiv:math/9912094); lam and mu are partitions
    of one size, unchecked.

    Let L = len(lam).  A configuration is nu = (nu1, ..., nu(L-1)) with
    nu(k) a partition of lam_{k+1} + ... + lam_L; nu(0) = mu and
    nu(L) = ().  With Q_n(rho) the sum of min(n, rho_i), the vacancy
    numbers are P_n(k) = Q_n(nu(k-1)) - 2 Q_n(nu(k)) + Q_n(nu(k+1)), and
    nu is admissible when P_n(k) >= 0 for every part n of every nu(k).
    K_{lam,mu}(q) is the sum over admissible nu of q^c(nu) times the
    product over k < L and the distinct parts n of nu(k) of
    [P_n(k) + m_n choose m_n]_q, m_n the multiplicity of n in nu(k), where
    c(nu) sums d(d - 1)/2 over k = 1..L and n >= 1, with d the number of
    parts >= n of nu(k-1) less that of nu(k).

    Level k's factors depend on nu(k-1), nu(k) and nu(k+1) alone, and c(nu)
    is a sum over adjacent levels, so everything below a pair
    (nu(k-1), nu(k)) is summed once per call (``below``, memoised by the
    pair).  Each nu(k+1) is generated under the vacancy bounds
    (``_next_levels``), not drawn from every partition of its size, and
    within two more bounds that every admissible nu meets:

    - P_p(k+1) >= 0 at the largest part p of nu(k+1), with
      Q_p(nu(k+2)) <= |nu(k+2)|, leaves nu(k) at most lam_{k+1} - lam_{k+2}
      cells beyond column p.  From nu(L-1), a partition of lam_L, up, every
      part of nu(k) is then at most lam_{k+1} (``tops``).
    - P_m(k) >= 0 at the smallest part m of nu(k), with Q_m(nu(k)) =
      m len(nu(k)) and Q_m(rho) <= m len(rho), makes the lengths convex:
      len(nu(k-1)) + len(nu(k+1)) >= 2 len(nu(k)).  As nu(L) = () follows
      a nonempty nu(L-1), each level is at least one part shorter than the
      level above it, so nu(k+1) has at most len(nu(k)) - 1 parts and at
      least L - k - 1 and 2 len(nu(k)) - len(nu(k-1)).

    The sums are packed, evaluated at q = 2^width, with the factors from
    one table (``_q_binomials``, grown to the largest P + m met), so every
    sum and product is exact as an int.  The total unpacks as 2^width is
    above K_{lam,mu}(1), the number of tableaux of shape lam and content
    mu, and so above every coefficient: it is at most |mu|! / prod mu_i!,
    the number of words of content mu, and at most f^lam = |lam|! / prod of
    the hook lengths, the number of standard tableaux of shape lam, into
    which standardizing maps them one to one.
    """
    # sizes[k] = |nu(k)|, with one 0 past nu(L) for the bound below it
    sizes = list(accumulate(reversed(lam), initial=0))[::-1] + [0]
    tops = lam[1:] + (0,)  # tops[k] bounds the parts of nu(k+1)
    shapes = {}  # rho: (rho', Q(rho) as [Q_0, Q_1, ..., Q_{rho_1}], sum of rho'_n^2)
    memo = {}  # (nu(k-1), nu(k)): q^C(nu(k-1), nu(k)) times the sum below
    cols = _conjugate(lam)
    hooks = prod(row - j + cols[j] - i - 1 for i, row in enumerate(lam) for j in range(row))
    words = factorial(sum(mu)) // prod(map(factorial, mu))
    width = min(words, factorial(sum(lam)) // hooks).bit_length()
    binomials = []  # binomials[m][P + m] = [P + m choose m]_q packed, grown on demand

    def shape(rho):
        got = shapes.get(rho)
        if got is None:
            cols = _conjugate(rho)
            got = shapes[rho] = cols, list(accumulate(cols, initial=0)), sum(map(mul, cols, cols))
        return got

    def below(k, prev, cur):
        """q^C(prev, cur) times the sum over nu(k+1), ..., nu(L-1) of level
        k's factors onwards, for nu(k-1) = prev (None at k = 0, which has
        neither factors nor C) and nu(k) = cur."""
        cols, q_cur, squares = shape(cur)
        shift, parts, slacks, mults = 0, [], [], []
        if prev is not None:
            prev_cols, q_prev, prev_squares = shape(prev)
            # C(prev, cur) is the sum of d(d - 1)/2 over d = prev'_n - cur'_n,
            # and the d sum to |prev| - |cur|
            dot = sum(map(mul, prev_cols, cols))
            shift = (prev_squares - 2 * dot + squares - q_prev[-1] + q_cur[-1]) // 2
            # P_n(k) >= 0 asks Q_n(nu(k+1)) >= 2 Q_n(cur) - Q_n(prev)
            for n in sorted(set(cur)):
                parts.append(n)
                slacks.append(sizes[k + 1] - 2 * q_cur[n] + q_prev[min(n, len(q_prev) - 1)])
                mults.append(cols[n - 1] - (cols[n] if n < len(cols) else 0))
        if k == len(lam):
            return 1 << shift * width
        total = 0
        shortest = len(lam) - k - 1
        if prev is not None:
            shortest = max(shortest, 2 * len(cur) - len(prev))
        levels = _next_levels(
            sizes[k + 1], tops[k], (shortest, len(cur) - 1), q_cur, sizes[k + 2], parts, slacks,
        )
        for nxt, vacancies in levels:
            key = cur, nxt
            rest = memo.get(key)
            if rest is None:
                rest = memo[key] = below(k + 1, cur, nxt)
            if not rest:
                continue
            for p, m in zip(vacancies, mults):
                if p + m >= len(binomials):
                    _q_binomials(binomials, p + m, width)
                rest *= binomials[m][p + m]
            total += rest
        return total << shift * width

    return _unpacked(below(0, None, mu), width)


def _next_levels(size, top, lengths, q_cur, bound, parts, slacks) -> list:
    """The list of (nu(k+1), [P_n(k) for the n in parts]) over the
    partitions nu(k+1) of size with parts at most top, a number of parts
    in the closed range lengths, P_n(k) >= 0 for the distinct parts n of
    nu(k) (parts), and 2 Q_p(nu(k+1)) <= Q_p(nu(k)) + bound for each part
    p of nu(k+1).  P_p(k+1) >= 0 needs the last, as Q_p(nu(k+2)) is at
    most bound = |nu(k+2)|.  q_cur[n] is Q_n(nu(k)) for n up to the
    largest part of nu(k), and P_n(k) is slacks[i] less the excess of
    nu(k+1) over n = parts[i], the sum of max(0, part - n), which is
    size - Q_n(nu(k+1)).

    The parts are placed largest first.  A part p placed after count parts,
    with left cells still to place, p's included, bounds every later part,
    so Q_p(nu(k+1)) = p * count + left is known at once, and the parts from
    p on number between left / p and left - p + 1.  An excess only grows as
    parts are added, so a partial partition whose excess passes its slack
    ends there.
    """
    out = []
    placed = []
    top_q = q_cur[-1]
    shortest, longest = lengths

    def grow(left, top, excess):
        count = len(placed)
        for p in range(min(top, left, count + 1 + left - shortest), 0, -1):
            if p * (longest - count) < left:
                break
            if 2 * (left + p * count) > (q_cur[p] if p < len(q_cur) else top_q) + bound:
                continue
            new = [e + p - n if p > n else e for e, n in zip(excess, parts)]
            if any(map(int.__gt__, new, slacks)):
                continue
            placed.append(p)
            if p == left:
                out.append((tuple(placed), list(map(int.__sub__, slacks, new))))
            else:
                grow(left - p, p, new)
            placed.pop()

    if size:
        grow(size, top, [0] * len(parts))
    elif min(slacks, default=0) >= 0:
        out.append(((), slacks))
    return out
