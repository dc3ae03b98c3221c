"""The q-Whittaker identities of poly.py."""

from mlqkit.core import partitions
from mlqkit.mlq import count_mlq
from mlqkit.poly import (
    is_symmetric,
    q_whittaker_charge_expansion,
    q_whittaker_coquinv,
    q_whittaker_mlq,
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
