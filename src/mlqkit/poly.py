"""Exact sparse polynomials in q and x_1..x_n, and the generating functions.

Terms map (q exponent, sparse x exponent vector) to integer coefficients;
all identity checks are structural equalities of canonical forms.  The
symmetric results ``schur``, ``skew_schur``, ``q_whittaker_mlq`` and
``q_whittaker_gmlq`` keep their m-basis form (``QXPolynomial._m``) and
write terms only when read; ``+`` and ``* int`` keep that form, and
neither ``==`` nor ``is_zero`` expands it.  Each is one sweep of strip
chains (``tableaux._kostka_sweep``) that grows each shape once, by every
strip at once (``tableaux._strips``): unweighted, it counts the skew Kostka
numbers of ``schur`` and ``skew_schur``; with the psi weight that the strip
kernel multiplies in row by row, it sums the t = 0 branching rule of
``q_whittaker_mlq``, and ``q_whittaker_gmlq`` is that of the partition its
row sizes rearrange, by sigma-invariance.  ``kostka_foulkes`` sums the
fermionic formula over configurations (``charge._fermionic_sum``), and
``q_whittaker_schur``, the Schur basis, is one fermionic sum per dominating
shape.  No route here charges a tableau.
"""

import json
from collections import Counter
from itertools import accumulate, combinations, repeat, takewhile
from math import factorial, perm, prod

from .charge import _fermionic_sum
from .core import (
    _check_count, _check_instance, _check_terms, _conjugate, _is_count, _partitions,
    check_partition, conjugate, is_lattice, partitions, sort_to_partition,
)
from .errors import SizeMismatch, VariableCountMismatch
from .fillings import enumerate_coquinv_free, maj_filling
from .mlq import enumerate_gmlq, maj, row_word
from .tableaux import _inner_of, _kostka_sweep


class QXPolynomial:
    """Polynomial in q and x_1..x_n with integer coefficients.

    ``terms`` maps a canonical key (q exponent, ((i, e), ...) with i
    increasing and every e > 0) to a nonzero coefficient.  The public
    constructor takes a count n and a dict or a sequence of (key,
    coefficient) pairs with canonical keys on n variables (ParseError
    otherwise), adds the coefficients of equal keys and drops zeros.  ``_of``
    is the engine's trusted constructor for a dict that is already
    zero-free; it copies and checks nothing.

    A symmetric polynomial may instead hold its m-basis form ``_m``
    {(q, nu): c}, the coefficients of the monomial symmetric functions m_nu
    (``_of_m``); ``_m`` is None for a full polynomial.  Its ``terms`` are
    written on first read.  ``+`` and ``* int`` of two m-basis forms stay
    m-basis forms, and neither ``==`` nor ``is_zero`` expands one.  Every
    other operation reads ``terms``.
    """

    __slots__ = ("n", "terms", "_m")

    def __init__(self, n: int, terms=()):
        self.n = _check_count(n)
        self._m = None
        self.terms = {}
        for key, coeff in _check_terms(terms, n):
            self.terms[key] = self.terms.get(key, 0) + coeff
        self.terms = {k: v for k, v in self.terms.items() if v}

    @classmethod
    def _of(cls, n, terms):
        """The polynomial with fields n and terms, unchecked: terms must be a
        dict of canonical keys and nonzero coefficients, owned by the result."""
        self = object.__new__(cls)
        self.n = n
        self._m = None
        self.terms = terms
        return self

    @classmethod
    def _of_m(cls, n, m):
        """The symmetric polynomial sum of c q^e m_nu over the items
        ((e, nu), c) of m, unchecked: each nu a partition with at most n
        parts, each c nonzero, and m owned by the result."""
        self = object.__new__(cls)
        self.n = n
        self._m = m
        return self

    def __getattr__(self, name):
        # only an unset slot gets here: the terms of an m-basis form, each
        # nu rearranged once and its list dropped before the next nu (lists
        # kept to the end more than doubled the cyclic collector's time)
        if name != "terms":
            raise AttributeError(name)
        by_nu = {}
        for (q, nu), c in self._m.items():
            by_nu.setdefault(nu, []).append((q, c))
        terms = {}
        for nu, coeffs in by_nu.items():
            xs = _rearrangements(nu, self.n)
            for q, c in coeffs:
                terms.update(zip(zip(repeat(q), xs), repeat(c)))
        # rearrangements differ, so each key is set once
        self.terms = terms
        return terms

    @staticmethod
    def zero(n: int):
        return QXPolynomial(n)

    @staticmethod
    def one(n: int):
        return QXPolynomial(n, {(0, ()): 1})

    def _check(self, other):
        _check_instance(other, QXPolynomial)
        if self.n != other.n:
            raise VariableCountMismatch(f"{self.n} != {other.n}")

    def __add__(self, other):
        self._check(other)
        if self._m is not None and other._m is not None:
            return QXPolynomial._of_m(self.n, _summed(self._m, other._m))
        return QXPolynomial._of(self.n, _summed(self.terms, other.terms))

    def __sub__(self, other):
        self._check(other)
        return QXPolynomial._of(self.n, _summed(self.terms, other.terms, -1))

    def __mul__(self, other):
        if _is_count(other):
            if self._m is not None:
                m = {k: v * other for k, v in self._m.items() if other}
                return QXPolynomial._of_m(self.n, m)
            terms = {k: v * other for k, v in self.terms.items() if other}
            return QXPolynomial._of(self.n, terms)
        self._check(other)
        out = {}
        for (q1, x1), c1 in self.terms.items():
            e1 = dict(x1)
            for (q2, x2), c2 in other.terms.items():
                merged = dict(e1)
                for i, e in x2:
                    merged[i] = merged.get(i, 0) + e
                key = (q1 + q2, tuple(sorted(merged.items())))
                out[key] = out.get(key, 0) + c1 * c2
        # the keys are canonical by construction; only zeros are dropped
        return QXPolynomial._of(self.n, {k: v for k, v in out.items() if v})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, QXPolynomial) or self.n != other.n:
            return False
        if self._m is None:
            if other._m is None:
                return self.terms == other.terms
            self, other = other, self
        elif other._m is not None:
            return self._m == other._m
        # self is an m-basis form and other is full: each key of other must
        # carry the coefficient of its sorted exponents, and the key counts
        # agree, n! / ((n - len(nu))! prod m_i(nu)!) for each (q, nu)
        get = self._m.get
        for (q, xs), c in other.terms.items():
            if get((q, tuple(sorted([e for _, e in xs], reverse=True)))) != c:
                return False
        return len(other.terms) == sum(
            perm(self.n, len(nu)) // prod(map(factorial, Counter(nu).values()))
            for _, nu in self._m
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def is_zero(self):
        # an m-basis form holds no zero coefficient
        return not (self.terms if self._m is None else self._m)

    def swap_vars(self, i: int, j: int):
        """Exchange x_i and x_j.  For ints i, j in 1..n this maps canonical
        keys one to one onto canonical keys, so the result is unchecked."""
        swap = [
            ((qe, tuple(sorted((j if v == i else i if v == j else v, e) for v, e in xs))), c)
            for (qe, xs), c in self.terms.items()
        ]
        if all(_is_count(v) and 1 <= v <= self.n for v in (i, j)):
            return QXPolynomial._of(self.n, dict(swap))
        return QXPolynomial(self.n, swap)

    def _sorted_terms(self):
        # by total degree, then by key
        items = self.terms.items()
        return sorted(items, key=lambda t: (t[0][0] + sum(e for _, e in t[0][1]), t[0]))

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (qe, xs), coeff in self._sorted_terms():
            factors = []
            if qe:
                factors.append("q" if qe == 1 else f"q^{qe}")
            for i, e in xs:
                factors.append(f"x{i}" if e == 1 else f"x{i}^{e}")
            if coeff != 1 or not factors:
                factors.insert(0, str(coeff))
            parts.append("*".join(factors))
        return " + ".join(parts)

    def to_json(self) -> str:
        items = [
            {"coeff": coeff, "q": qe, "x": {str(i): e for i, e in xs}}
            for (qe, xs), coeff in self._sorted_terms()
        ]
        return json.dumps({"n": self.n, "terms": items})

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"QXPolynomial({self.n}, {self.to_text()!r})"


def _summed(a, b, sign=1) -> dict:
    """a + sign * b for dicts of coefficients, as a new dict without zeros."""
    out = dict(a)
    for key, coeff in b.items():
        out[key] = out.get(key, 0) + sign * coeff
    return {k: v for k, v in out.items() if v}


def schur(lam, n: int) -> QXPolynomial:
    """Schur polynomial s_lam on n variables, sum over nu of K_{lam,nu} m_nu.

    Collapsing sends the nonwrapping queues of shape lam bijectively to the
    semistandard tableaux of shape lam, so their weight sum is the monomial
    form of s_lam, which one unweighted sweep of strip chains counts
    (``tableaux._kostka_sweep``).  It is 0 when lam has more than n parts:
    no partition with at most n parts lies below such a lam in dominance.
    """
    _check_count(n, 1)
    lam = check_partition(lam)
    return QXPolynomial._of_m(n, _kostka_sweep(lam, (), n))


def q_whittaker_schur(mu, n: int) -> dict:
    """The q-Whittaker polynomial of mu on n variables in the Schur basis:
    {lam: K_{lam',mu'}(q)} over every lam with at most n parts and a
    nonzero coefficient.

    Collapsing gives the Lascoux-Schutzenberger charge formula
    P_mu(x; q, 0) = sum over lam of K_{lam',mu'}(q) s_lam, and s_lam is 0 on
    n variables when lam has more than n parts, that is when lam' has a
    part above n.  K_{lam',mu'} is nonzero exactly when lam' dominates mu',
    which needs lam'_1 >= mu'_1 = len(mu): so nothing when len(mu) > n, and
    only the shapes lam' with first part from len(mu) to n are generated,
    each checked by prefix sums and summed by one fermionic formula.
    """
    mu = check_partition(mu)
    _check_count(n, 1)
    if len(mu) > n:
        return {}
    dual = _conjugate(mu)
    floors = list(accumulate(dual))
    # reverse lexicographic, so the first parts only fall
    shapes = takewhile(lambda shape: shape[:1] >= dual[:1], _partitions(sum(mu), n))
    return {
        _conjugate(shape): _kostka_foulkes(shape, dual)
        for shape in shapes
        if all(map(int.__ge__, accumulate(shape), floors))
    }


def q_whittaker_mlq(lam, n: int) -> QXPolynomial:
    """Weight generating function q^maj x^M over all queues of shape lam,
    P_lam(x_1..x_n; q, 0), in its m-basis form, by the branching rule at
    t = 0 (Macdonald VI (7.13')): the coefficient of m_nu sums, over the
    chains of horizontal strips of sizes nu_1, nu_2, ... from () to lam,
    the product of their weights psi, which the strip kernel
    (``tableaux._strips``) builds as it grows each strip.  One weighted
    sweep (``tableaux._kostka_sweep``) charges no tableau."""
    _check_count(n, 1)
    lam = check_partition(lam)
    return QXPolynomial._of_m(n, _kostka_sweep(lam, (), n, weighted=True))


# The charge expansion P_lam = sum over rho of K_{rho',lam'}(q) s_rho is the
# same polynomial, so both names are one function.
q_whittaker_charge_expansion = q_whittaker_mlq


def _rearrangements(nu, n: int):
    """Sparse x exponent vectors of the distinct rearrangements of nu padded
    with zeros to n: the columns of the nonzero entries, times the distinct
    orders of the parts of nu.  The orders are built one distinct part at a
    time: each order so far gets the copies of the part inserted at every
    set of final slots, lowest slot first."""
    orders = [()]
    for part, mult in Counter(nu).items():
        slots = list(combinations(range(len(orders[0]) + mult), mult))
        longer = []
        for order in orders:
            for chosen in slots:
                new = list(order)
                for i in chosen:
                    new.insert(i, part)
                longer.append(tuple(new))
        orders = longer
    return [
        tuple(zip(cols, order))
        for cols in combinations(range(1, n + 1), len(nu))
        for order in orders
    ]


def q_whittaker_gmlq(alpha, n: int) -> QXPolynomial:
    """The m-basis form of q^maj_g x^M over the queues with row sizes alpha.

    The paper's theorem for generalized queues (sigma-invariance): every
    order alpha of the row sizes lam', with empty rows anywhere, gives the
    same sum as the straight order, P_lam(x; q, 0).  So this is
    ``q_whittaker_mlq`` of lam; ``tests/oracles.py`` sums over the queues
    with the rows in the given order.
    """
    return q_whittaker_mlq(_conjugate(sort_to_partition(alpha)), n)


def kostka_foulkes(lam, mu) -> QXPolynomial:
    """Kostka-Foulkes polynomial K_{lam,mu}(q), the charge sum over
    SSYT(lam, mu), by the fermionic formula of Kirillov and Reshetikhin: a
    sum over admissible configurations of q-binomial products, each of
    which counts many tableaux at once (``charge._fermionic_sum``).  The
    charge sum itself is a route in ``tests/oracles.py``."""
    lam, mu = check_partition(lam), check_partition(mu)
    if sum(lam) != sum(mu):
        raise SizeMismatch(f"|{lam}| != |{mu}|")
    return _kostka_foulkes(lam, mu)


def _kostka_foulkes(lam, mu) -> QXPolynomial:
    """``kostka_foulkes`` of two partitions of one size, unchecked."""
    coeffs = _fermionic_sum(lam, mu)
    return QXPolynomial._of(0, {(q, ()): k for q, k in enumerate(coeffs) if k})


def kostka_foulkes_lattice(lam, mu) -> QXPolynomial:
    """Reference route for ``kostka_foulkes``: the maj sum over queues with
    row content mu, column content lam' and lattice row word.

    It walks every queue with row sizes mu, so only the tests call it; it
    stays in the package because the benchmark's layer tracer names it.
    """
    lam, mu = check_partition(lam), check_partition(mu)
    if sum(lam) != sum(mu):
        raise SizeMismatch(f"|{lam}| != |{mu}|")
    target = conjugate(lam)
    n = lam[0] if lam else 1
    if mu and mu[0] > n:
        return QXPolynomial.zero(0)
    return QXPolynomial(0, (
        ((maj(m), ()), 1)
        for m in enumerate_gmlq(tuple(mu), n)
        if m.column_content()[: len(target)] == target
        and not any(m.column_content()[len(target):])
        and is_lattice(row_word(m))
    ))


def q_whittaker_coquinv(lam, n: int) -> QXPolynomial:
    """Weight sum over coquinv-free fillings."""
    lam = check_partition(lam)
    _check_count(n, 1)
    if conjugate(lam) and conjugate(lam)[0] > n:
        return QXPolynomial.zero(n)

    def weight(tau):
        content = Counter(v for row in tau.rows for v in row)
        return maj_filling(tau), tuple(sorted(content.items()))

    return QXPolynomial(n, ((weight(tau), 1) for tau in enumerate_coquinv_free(lam, n)))


def is_symmetric(p: QXPolynomial) -> bool:
    """Invariance under every adjacent swap of the x variables."""
    _check_instance(p, QXPolynomial)
    return all(p.swap_vars(i, i + 1) == p for i in range(1, p.n))


def dual_cauchy_check(n: int, length: int):
    """Both sides of the dual Cauchy identity in n + length variables.

    Returns (left, right); x variables are 1..n and y variables are
    n+1..n+length; both counts must be positive ints.
    """
    _check_count(n, 1)
    _check_count(length, 1)
    total = n + length
    terms = Counter()
    for size in range(0, n * length + 1):
        for lam in (p for p in partitions(size, length) if len(p) <= n):
            s_x = _shift_schur(lam, n, total, 0)
            s_y = _shift_schur(conjugate(lam), length, total, n)
            terms.update((s_x * s_y).terms)
    left = QXPolynomial(total, terms)
    right = QXPolynomial.one(total)
    for i in range(1, n + 1):
        for j in range(n + 1, total + 1):
            right = right * QXPolynomial(
                total, {(0, ()): 1, (0, ((i, 1), (j, 1))): 1}
            )
    return left, right


def _shift_schur(lam, vars_inner, total, offset) -> QXPolynomial:
    """Schur polynomial in vars offset+1..offset+vars_inner, in a larger ring."""
    return QXPolynomial(total, {
        (qe, tuple((i + offset, e) for i, e in xs)): coeff
        for (qe, xs), coeff in schur(lam, vars_inner).terms.items()
    })


def skew_schur(outer, inner, n: int) -> QXPolynomial:
    """The skew Schur polynomial s_{outer/inner} on n variables, the sum
    over nu of K_{outer/inner,nu} m_nu; zero unless inner lies inside outer.

    The skew Kostka numbers count the chains of horizontal strips from
    inner to outer, so one ``tableaux._kostka_sweep`` counts them.
    """
    _check_count(n, 1)
    outer, inner = check_partition(outer), check_partition(inner)
    if _inner_of(outer, inner) is None:
        return QXPolynomial._of_m(n, {})
    return QXPolynomial._of_m(n, _kostka_sweep(outer, inner, n))
