"""Recompute references.json through routes other than the timed ones.

Run from the repository root:  python3 bench/make_references.py

- q_whittaker_mlq (and q_whittaker_gmlq for every row order): the charge
  expansion and the coquinv-free fillings, which must agree.
- stationary_counts: bottom-row labels from label_mlq instead of label_gmlq.
- q_whittaker_charge_expansion: q_whittaker_mlq and the coquinv-free
  fillings, which must agree.
- kostka_foulkes(lam, mu): the coefficient of s_{lam'} in the Schur
  expansion of q_whittaker_mlq(mu', lam_1).
- lr_coefficient(lam, mu, nu): the coefficient of s_lam in s_mu * s_nu.

The script stops without writing if two routes disagree or a reference
differs from what the timed route returns now.
"""

import json
import sys
from math import comb
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as w  # noqa: E402
from mlqkit import (  # noqa: E402
    QXPolynomial,
    conjugate,
    enumerate_mlq,
    kostka_foulkes,
    label_mlq,
    lr_coefficient,
    lr_coefficient_by_mlq,
    partitions,
    q_whittaker_charge_expansion,
    q_whittaker_coquinv,
    q_whittaker_mlq,
    schur,
    stationary_counts,
)


def agree(label, *values):
    if any(v != values[0] for v in values[1:]):
        sys.exit(f"routes disagree on {label}")
    return values[0]


def stationary_by_label_mlq(lam, n):
    counts = {}
    for m in enumerate_mlq(lam, n):
        labels, _ = label_mlq(m)
        state = tuple(labels.get((1, c), 0) for c in range(1, n + 1))
        counts[state] = counts.get(state, 0) + 1
    expected_total = 1
    for k in conjugate(lam):
        expected_total *= comb(n, k)
    agree(f"queue count {lam}/{n}", sum(counts.values()), expected_total)
    return counts


def schur_coefficients(p: QXPolynomial, size: int) -> dict:
    """Schur expansion {partition: q-polynomial} of a symmetric p.

    Partitions come in reverse lexicographic order, which extends dominance,
    so the monomial x^rho of what is left comes from s_rho alone.
    """
    n = p.n
    rest = p
    out = {}
    for rho in partitions(size):
        if len(rho) > n:
            continue
        leading = tuple(enumerate(rho, start=1))
        coeff = {(q, ()): c for (q, xs), c in rest.terms.items() if xs == leading}
        if coeff:
            out[rho] = QXPolynomial(n, coeff)
            rest = rest - out[rho] * schur(rho, n)
    if not rest.is_zero():
        sys.exit(f"not a Schur-positive expansion: {rest}")
    return out


def kostka_by_whittaker(lam, mu):
    whittaker = q_whittaker_mlq(conjugate(mu), lam[0])
    coeff = schur_coefficients(whittaker, sum(mu)).get(conjugate(lam))
    return QXPolynomial(0, dict(coeff.terms) if coeff else {})


def lr_by_product(lam, mu, nu):
    n = len(lam)
    coeff = schur_coefficients(schur(mu, n) * schur(nu, n), sum(lam)).get(tuple(lam))
    return sum(coeff.terms.values()) if coeff else 0


def dump(out) -> str:
    """JSON with one line per reference."""
    lines = []
    for section, value in out.items():
        if not isinstance(value, dict):
            lines.append(f"{json.dumps(section)}: {json.dumps(value)}")
            continue
        entries = [f"  {json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                   for k, v in sorted(value.items())]
        lines.append(f"{json.dumps(section)}: {{\n" + ",\n".join(entries) + "\n }")
    return "{\n " + ",\n ".join(lines) + "\n}\n"


def main():
    out = {
        "about": "Written by bench/make_references.py; see its docstring for the routes.",
        "q_whittaker": {},
        "stationary": {},
        "charge_expansion": {},
        "kostka": {},
        "lr": {},
    }
    for lam, n in w.QWHITTAKER_MLQ:
        p = agree(f"q-Whittaker {lam}/{n}", q_whittaker_charge_expansion(lam, n),
                  q_whittaker_coquinv(lam, n))
        agree(f"q_whittaker_mlq {lam}/{n}", q_whittaker_mlq(lam, n), p)
        out["q_whittaker"][w.key(lam, n)] = w.encode_poly(p)
    for lam, n in w.STATIONARY:
        counts = stationary_by_label_mlq(lam, n)
        agree(f"stationary_counts {lam}/{n}", stationary_counts(lam, n), counts)
        out["stationary"][w.key(lam, n)] = w.encode_counts(counts)
    for mu, n in w.CHARGE_EXPANSION:
        p = agree(f"q-Whittaker {mu}/{n}", q_whittaker_mlq(mu, n),
                  q_whittaker_coquinv(mu, n))
        agree(f"charge expansion {mu}/{n}", q_whittaker_charge_expansion(mu, n), p)
        out["charge_expansion"][w.key(mu, n)] = w.encode_poly(p)
    for lam, mu in w.KOSTKA:
        p = kostka_by_whittaker(lam, mu)
        agree(f"kostka_foulkes {lam} {mu}", kostka_foulkes(lam, mu), p)
        out["kostka"][w.key(lam, mu)] = w.encode_poly(p)
    for triple in w.LR:
        c = lr_by_product(*triple)
        agree(f"lr {triple}", lr_coefficient(*triple), lr_coefficient_by_mlq(*triple), c)
        out["lr"][w.key(*triple)] = c
    w.REFERENCES.write_text(dump(out))
    print(f"wrote {w.REFERENCES}")


if __name__ == "__main__":
    main()
