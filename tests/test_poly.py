"""The identities of poly.py."""

import os
import subprocess
import sys
from pathlib import Path

from mlqkit.core import partitions
from mlqkit.mlq import count_mlq
from mlqkit.poly import (
    dual_cauchy_check,
    is_symmetric,
    kostka_foulkes_charge,
    kostka_foulkes_lattice,
    kostka_foulkes_rotated,
    q_whittaker_charge_expansion,
    q_whittaker_coquinv,
    q_whittaker_mlq,
    schur,
    schur_by_ssyt,
)

SRC = Path(__file__).resolve().parent.parent / "src"


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
    for size in range(0, 6):
        for lam in partitions(size):
            for n in range(1, 4):
                assert schur(lam, n) == schur_by_ssyt(lam, n), (lam, n)


def test_kostka_foulkes_routes_agree():
    for size in range(0, 7):
        for lam in partitions(size):
            for mu in partitions(size):
                charge_route = kostka_foulkes_charge(lam, mu)
                assert kostka_foulkes_lattice(lam, mu) == charge_route, (lam, mu)
                assert kostka_foulkes_rotated(lam, mu) == charge_route, (lam, mu)


def test_dual_cauchy():
    for n in range(1, 3):
        for length in range(1, 4):
            left, right = dual_cauchy_check(n, length)
            assert left == right, (n, length)


def test_kostka_cross_check_survives_optimize():
    # The three-route cross-check raises a typed error, so it still fires
    # when python -O strips asserts.
    script = (
        "import mlqkit.poly as poly\n"
        "from mlqkit.errors import InvariantError\n"
        "poly.kostka_foulkes_lattice = lambda lam, mu: poly.QXPolynomial.zero(0)\n"
        "try:\n"
        "    poly.kostka_foulkes((2, 1), (1, 1, 1))\n"
        "except InvariantError:\n"
        "    print('raised')\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "raised\n"
