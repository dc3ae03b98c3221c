import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
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

SRC = Path(__file__).resolve().parent.parent / "src"

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
                    assert oracles.coquinv_free_fillings(m) == [tau]
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


@st.composite
def straight_queues(draw):
    """Straight queues up to 7 rows and 9 columns, beyond the exhaustive
    range."""
    n = draw(st.integers(1, 9))
    sizes = sorted(draw(st.lists(st.integers(1, n), min_size=1, max_size=7)), reverse=True)
    return MultilineQueue(n, [
        draw(st.sets(st.integers(1, n), min_size=k, max_size=k)) for k in sizes
    ])


@given(straight_queues())
def test_filling_random(m):
    tau = filling_of_mlq(m)
    assert coquinv(tau) == 0
    assert [tuple(sorted(row)) for row in tau.rows] == list(m.rows)
    assert maj_filling(tau) == maj(m)
    assert mlq_of_filling(tau) == m


def test_rejects_non_partition_shape():
    with pytest.raises(ParseError):
        ColumnFilling((1, 2), [[1, 2]])
    with pytest.raises(ParseError):
        parse_filling("1,2;1 2")
    with pytest.raises(ParseError):
        ColumnFilling((2, 0), [[1], [2]])


def test_rejects_non_int_entries():
    # 1.5 and True used to pass as entries and set n=1.5 or n=True
    for bad in (1.5, True, "1", None):
        with pytest.raises(ParseError):
            ColumnFilling((1,), [[bad]])
    with pytest.raises(ParseError):
        ColumnFilling((2, 1), [[1, 2.0], [1]])
    with pytest.raises(ParseError):
        parse_filling('{"shape": [1], "rows": [[1.5]]}')


def test_coquinv_check_survives_optimize():
    # filling_of_mlq checks its result with coquinv and raises a typed
    # error, so the check still fires when python -O strips asserts.
    # Labels rising to the right make the pairing put the bottom row {1, 2}
    # in decreasing order, which is cyclically decreasing under the 1 above.
    script = (
        "import mlqkit.fillings as fillings\n"
        "from mlqkit.errors import InvariantError\n"
        "fillings._label_layer = lambda word, s, rows, prefilled: [tuple(range(len(word)))]\n"
        "try:\n"
        "    fillings.filling_of_mlq(fillings.MultilineQueue(3, [[1, 2], [1]]))\n"
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


def _all_fillings(shape, n):
    """Every filling of the diagram of shape with letters in 1..n."""
    sizes = conjugate(shape)
    for entries in product(range(1, n + 1), repeat=sum(shape)):
        rows, start = [], 0
        for k in sizes:
            rows.append(entries[start:start + k])
            start += k
        yield ColumnFilling(shape, rows, n)


def test_coquinv_matches_cells_exhaustive():
    # 3 718 fillings: every shape of at most 5 cells over 1..3, and of at
    # most 4 cells over 1..4
    count = 0
    for size, n in [(s, 3) for s in range(6)] + [(s, 4) for s in range(5)]:
        for shape in partitions(size):
            for tau in _all_fillings(shape, n):
                assert coquinv(tau) == oracles.coquinv_by_cells(tau), tau
                count += 1
    assert count == 3718


@st.composite
def fillings(draw):
    """Fillings of shapes up to 5 columns of height at most 6, over 1..7."""
    shape = tuple(sorted(draw(st.lists(st.integers(1, 6), max_size=5)), reverse=True))
    n = draw(st.integers(1, 7))
    rows = [
        draw(st.lists(st.integers(1, n), min_size=k, max_size=k)) for k in conjugate(shape)
    ]
    return ColumnFilling(shape, rows, n)


@given(fillings())
def test_coquinv_matches_cells_random(tau):
    assert coquinv(tau) == oracles.coquinv_by_cells(tau)
