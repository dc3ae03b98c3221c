"""The identities of poly.py."""

import oracles
from mlqkit.core import partitions
from mlqkit.mlq import count_mlq
from mlqkit.poly import (
    dual_cauchy_check,
    is_symmetric,
    kostka_foulkes,
    kostka_foulkes_lattice,
    q_whittaker_charge_expansion,
    q_whittaker_coquinv,
    q_whittaker_mlq,
    schur,
)


def test_q_whittaker_routes_agree():
    for size in range(1, 6):
        for lam in partitions(size):
            for n in range(1, 4):
                p = q_whittaker_mlq(lam, n)
                assert p == q_whittaker_coquinv(lam, n), (lam, n)
                assert p == q_whittaker_charge_expansion(lam, n), (lam, n)
                assert is_symmetric(p)
                if len(lam) <= n:
                    assert sum(p.terms.values()) == count_mlq(lam, n)
                else:
                    assert p.is_zero()


def test_schur_routes_agree():
    for size in range(0, 7):
        for lam in partitions(size):
            for n in range(1, 5):
                s = schur(lam, n)
                assert s == oracles.schur(lam, n) == oracles.schur_by_ssyt(lam, n), (lam, n)
                assert s.is_zero() == (len(lam) > n), (lam, n)


def test_kostka_foulkes_routes_agree():
    for size in range(0, 7):
        for lam in partitions(size):
            for mu in partitions(size):
                k = kostka_foulkes(lam, mu)
                assert kostka_foulkes_lattice(lam, mu) == k, (lam, mu)
                assert oracles.kostka_foulkes_rotated(lam, mu) == k, (lam, mu)


def test_dual_cauchy():
    for n in range(1, 3):
        for length in range(1, 4):
            left, right = dual_cauchy_check(n, length)
            assert left == right, (n, length)
