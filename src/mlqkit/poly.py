"""Exact sparse polynomials in q and x_1..x_n, and the generating functions.

Terms map (q exponent, sparse x exponent vector) to integer coefficients;
all identity checks are structural equalities of canonical forms.
"""

import json
from collections import Counter

from .core import check_partition, conjugate, is_lattice, partitions
from .errors import SizeMismatch, VariableCountMismatch
from .fillings import enumerate_coquinv_free, maj_filling
from .mlq import _check_columns, _label_word_sweep, enumerate_gmlq, maj, row_word
from .tableaux import enumerate_skew_ssyt, enumerate_ssyt, tableau_charge


class QXPolynomial:
    """Polynomial in q and x_1..x_n with integer coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for key, coeff in (terms.items() if isinstance(terms, dict) else terms):
                if coeff:
                    self.terms[key] = self.terms.get(key, 0) + coeff
            self.terms = {k: v for k, v in self.terms.items() if v}

    @staticmethod
    def zero(n: int):
        return QXPolynomial(n)

    @staticmethod
    def one(n: int):
        return QXPolynomial(n, {(0, ()): 1})

    @staticmethod
    def monomial(n: int, q_exp=0, x_exps=(), coeff=1):
        """x_exps is a map or item list {variable (1-based): exponent}."""
        items = x_exps.items() if isinstance(x_exps, dict) else x_exps
        key = tuple(sorted((i, e) for i, e in items if e))
        return QXPolynomial(n, {(q_exp, key): coeff})

    def _check(self, other):
        if self.n != other.n:
            raise VariableCountMismatch(f"{self.n} != {other.n}")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, 0) + coeff
        return QXPolynomial(self.n, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, 0) - coeff
        return QXPolynomial(self.n, out)

    def __mul__(self, other):
        if isinstance(other, int):
            return QXPolynomial(self.n, {k: v * other for k, v in self.terms.items()})
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
        return QXPolynomial(self.n, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, QXPolynomial)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    def num_terms(self):
        return len(self.terms)

    def swap_vars(self, i: int, j: int):
        out = {}
        for (qe, xs), coeff in self.terms.items():
            swapped = tuple(
                sorted((j if v == i else i if v == j else v, e) for v, e in xs)
            )
            out[(qe, swapped)] = out.get((qe, swapped), 0) + coeff
        return QXPolynomial(self.n, out)

    def _sorted_terms(self):
        def grade(item):
            (qe, xs), _ = item
            total = qe + sum(e for _, e in xs)
            return (total, qe, xs)

        return sorted(self.terms.items(), key=grade)

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
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            else:
                parts.append("*".join([str(coeff)] + factors))
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


def _x_key(counts):
    """Sparse x exponent vector of a content vector (counts[i-1] for x_i)."""
    return tuple((i + 1, e) for i, e in enumerate(counts) if e)


def schur(lam, n: int) -> QXPolynomial:
    """Schur polynomial as the weight sum over nonwrapping queues.

    On straight queues maj >= 0, with equality exactly on the nonwrapping
    ones, so this is the q^0 part of ``q_whittaker_mlq``.
    """
    return QXPolynomial(n, (
        (key, count) for key, count in q_whittaker_mlq(lam, n).terms.items()
        if key[0] == 0
    ))


def q_whittaker_mlq(lam, n: int) -> QXPolynomial:
    """Weight generating function q^maj x^M over all queues of shape lam.

    Computed as the generalized form over the row sizes lam', where maj_g
    equals maj.
    """
    return q_whittaker_gmlq(conjugate(check_partition(lam)), n)


def q_whittaker_gmlq(alpha, n: int) -> QXPolynomial:
    """The generalized-queue form q^maj_g x^M over row sizes alpha.

    Sums over label-word states row by row (``_label_word_sweep``) instead
    of over queues.  A weight is {(q exponent, packed content): count},
    where the packed content holds x_c's exponent as the digit of
    base^(c-1); a column has at most one ball per row, so base = rows + 1.
    """
    alpha = tuple(alpha)
    base = len(alpha) + 1

    def carry(acc, value, row, dq):
        code = sum(base ** (c - 1) for c in row)
        if acc is None:
            acc = {}
        for (q, x), count in value.items():
            key = (q + dq, x + code)
            acc[key] = acc.get(key, 0) + count
        return acc

    terms = {}
    for value in _label_word_sweep(alpha, n, {(0, 0): 1}, carry).values():
        for key, count in value.items():
            terms[key] = terms.get(key, 0) + count
    return QXPolynomial(n, (
        ((q, _x_key(x // base ** i % base for i in range(n))), count)
        for (q, x), count in terms.items()
    ))


def kostka_foulkes(lam, mu) -> QXPolynomial:
    """Kostka-Foulkes polynomial K_{lam,mu}(q) as the charge sum over
    SSYT(lam, mu)."""
    lam, mu = check_partition(lam), check_partition(mu)
    if sum(lam) != sum(mu):
        raise SizeMismatch(f"|{lam}| != |{mu}|")
    return QXPolynomial(0, (
        ((tableau_charge(t), ()), 1) for t in enumerate_ssyt(lam, weight=mu)
    ))


def kostka_foulkes_lattice(lam, mu) -> QXPolynomial:
    """Reference route for ``kostka_foulkes``: the maj sum over queues with
    row content mu, column content lam' and lattice row word.

    It walks every queue with row sizes mu, so only the tests call it; it
    stays in the package because the benchmark's layer tracer names it.
    """
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


def q_whittaker_charge_expansion(mu, n: int) -> QXPolynomial:
    """Schur expansion: sum over lam of K_{lam',mu'}(q) times s_lam."""
    mu_conj = conjugate(check_partition(mu))
    terms = Counter()
    for lam in partitions(sum(mu)):
        coeff = kostka_foulkes(conjugate(lam), mu_conj)
        if not coeff.is_zero():
            terms.update((QXPolynomial(n, coeff.terms) * schur(lam, n)).terms)
    return QXPolynomial(n, terms)


def q_whittaker_coquinv(lam, n: int) -> QXPolynomial:
    """Weight sum over coquinv-free fillings."""
    lam = check_partition(lam)
    _check_columns(n)
    if conjugate(lam) and conjugate(lam)[0] > n:
        return QXPolynomial.zero(n)

    def weight(tau):
        content = Counter(v for row in tau.rows for v in row)
        return maj_filling(tau), tuple(sorted(content.items()))

    return QXPolynomial(n, ((weight(tau), 1) for tau in enumerate_coquinv_free(lam, n)))


def is_symmetric(p: QXPolynomial) -> bool:
    """Invariance under every adjacent swap of the x variables."""
    for i in range(1, p.n):
        if p.swap_vars(i, i + 1) != p:
            return False
    return True


def dual_cauchy_check(n: int, length: int):
    """Both sides of the dual Cauchy identity in n + length variables.

    Returns (left, right); x variables are 1..n and y variables are
    n+1..n+length.
    """
    total = n + length
    terms = Counter()
    for size in range(0, n * length + 1):
        for lam in partitions(size):
            if len(lam) > n or (lam and lam[0] > length):
                continue
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
    inner = schur(lam, vars_inner)
    out = {}
    for (qe, xs), coeff in inner.terms.items():
        shifted = tuple(sorted((i + offset, e) for i, e in xs))
        out[(qe, shifted)] = coeff
    return QXPolynomial(total, out)


def skew_schur(outer, inner, n: int) -> QXPolynomial:
    """Content sum over skew semistandard tableaux with entries at most n;
    zero unless inner lies inside outer."""
    _check_columns(n)
    return QXPolynomial(n, (
        ((0, _x_key(t.content())), 1)
        for t in enumerate_skew_ssyt(outer, inner, max_entry=n)
    ))
