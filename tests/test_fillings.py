import pytest

from mlqkit.core import conjugate, partitions
from mlqkit.errors import NotCoquinvFree, NotStraight, ParseError
from mlqkit.fillings import (
    ColumnFilling,
    coquinv,
    enumerate_coquinv_free,
    filling_of_mlq,
    maj_filling,
    mlq_of_filling,
    parse_filling,
)
from mlqkit.mlq import (
    MultilineQueue,
    canonical_mlq,
    count_mlq,
    enumerate_mlq,
    label_mlq,
    maj,
)

LABEL_EXAMPLE = MultilineQueue(6, [[1, 2, 3, 4], [1, 3, 5, 6], [2, 3], [3, 5]])


def test_single_column_coquinv():
    tau = ColumnFilling((3,), [[2], [1], [3]])
    assert coquinv(tau) == 0


def test_two_cell_degenerate_calibration():
    assert coquinv(ColumnFilling((1, 1), [[3, 2]])) == 1
    assert coquinv(ColumnFilling((1, 1), [[2, 3]])) == 0
    assert coquinv(ColumnFilling((1, 1), [[2, 2]])) == 1


def test_maj_filling_basics():
    assert maj_filling(ColumnFilling((2,), [[1], [1]])) == 0
    assert maj_filling(ColumnFilling((2,), [[1], [2]])) == 1
    assert maj_filling(ColumnFilling((3,), [[1], [2], [1]])) == 2


def test_filling_of_label_example():
    tau = filling_of_mlq(LABEL_EXAMPLE)
    assert coquinv(tau) == 0
    assert maj_filling(tau) == 5 == maj(LABEL_EXAMPLE)
    assert mlq_of_filling(tau) == LABEL_EXAMPLE
    # particles labelled l sit in columns of height l, per row
    labels, _ = label_mlq(LABEL_EXAMPLE)
    shape = LABEL_EXAMPLE.shape()
    for r in range(1, LABEL_EXAMPLE.num_rows + 1):
        for c_idx, value in enumerate(tau.row_content(r), start=1):
            assert labels[(r, value)] == shape[c_idx - 1]


def test_canonical_filling():
    m = canonical_mlq((3, 2), 4)
    tau = filling_of_mlq(m)
    assert tau.rows == tuple(
        tuple(range(1, len(m.row(r)) + 1)) for r in range(1, m.num_rows + 1)
    )
    assert maj_filling(tau) == 0


def test_round_trip_exhaustive():
    for size in range(1, 7):
        for lam in partitions(size):
            for n in range(len(lam), 5):
                if conjugate(lam)[0] > n:
                    continue
                for m in enumerate_mlq(lam, n):
                    tau = filling_of_mlq(m)
                    assert coquinv(tau) == 0
                    assert maj_filling(tau) == maj(m)
                    assert mlq_of_filling(tau).trimmed() == m.trimmed()


def test_not_coquinv_free_rejected():
    tau = ColumnFilling((1, 1), [[3, 2]])
    with pytest.raises(NotCoquinvFree):
        mlq_of_filling(tau)
    with pytest.raises(NotStraight):
        filling_of_mlq(MultilineQueue(3, [[1], [1, 2]]))


def test_enumeration_counts():
    for lam, n in [((1,), 2), ((2, 1), 3), ((2, 2), 3), ((3, 1), 4)]:
        fillings = list(enumerate_coquinv_free(lam, n))
        assert len(fillings) == count_mlq(lam, n)
        assert len(set(f.rows for f in fillings)) == len(fillings)


def test_wrapping_descent_correspondence():
    # descents in row r+1 within height-l columns match wraps of label l
    for m in enumerate_mlq((2, 1), 3):
        tau = filling_of_mlq(m)
        _, pairings = label_mlq(m)
        shape = m.shape()
        for r in range(2, m.num_rows + 1):
            for lab in set(shape):
                descents = sum(
                    1
                    for c in range(1, len(tau.row_content(r)) + 1)
                    if shape[c - 1] == lab
                    and tau.entry(r, c) > tau.entry(r - 1, c)
                )
                wraps = sum(
                    1
                    for rr, ll, delta in pairings
                    if delta and rr == r and ll == lab
                )
                assert descents == wraps


def test_parse_round_trip():
    tau = filling_of_mlq(LABEL_EXAMPLE)
    text = f"{','.join(str(v) for v in tau.shape)};{tau.to_text()}"
    assert parse_filling(text) == tau
    assert parse_filling(tau.to_json()) == tau


def test_alphabet_size_is_kept():
    m = MultilineQueue(4, [[2], [1]])
    tau = filling_of_mlq(m)
    assert tau.n == 4
    assert parse_filling(tau.to_json()) == tau
    assert mlq_of_filling(parse_filling(tau.to_json())) == m
    assert ColumnFilling((2,), [[2], [1]]).n == 2  # default: largest entry
    with pytest.raises(ParseError):
        ColumnFilling((2,), [[2], [1]], n=1)
