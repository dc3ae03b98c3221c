import dataclasses
import importlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from mlqkit.core import conjugate, is_lattice, partitions
from mlqkit.errors import MlqkitError, NotNonwrapping, OutOfRange, ShapeMismatch
from mlqkit.matching import _columns, _mask, lowering, raising, raise_all
from mlqkit.mlq import (
    MultilineQueue,
    _is_collapsed,
    canonical_mlq,
    column_word,
    enumerate_mlq,
    is_nonwrapping,
    maj,
    maj_g,
    parse_mlq,
    row_word,
    sigma,
)
from mlqkit.collapse import (
    CollapseResult,
    _lift_unmatched,
    _row_masks,
    collapse,
    collapse_inverse,
    collapse_left,
    drop,
    drop_all,
    flip_up,
    lift,
    mlq_of_tableau,
    mrsk,
    mrsk_inverse,
    mult_mlq,
    rotate90,
    rotate180,
    rotate270,
    tab_of_mlq,
    twisted_collapse,
)
from mlqkit.tableaux import (
    Tableau,
    column_insert,
    enumerate_ssyt,
    superstandard,
    tableau_charge,
)

SRC = Path(__file__).resolve().parent.parent / "src"

COLLAPSE_EXAMPLE = MultilineQueue(5, [[1, 3, 4], [1, 4, 5], [2, 5], [1, 3], [4]])
MRSK_EXAMPLE = MultilineQueue(6, [[2, 3, 5], [1, 4, 5, 6], [2, 5], [4], [1, 3, 4]])


def test_drop_and_lift_basics():
    b = MultilineQueue(3, [[], [3]])
    dropped = drop(b, 1)
    assert dropped.rows == ((3,), ())
    assert lift(dropped, 1) == b
    stacked = MultilineQueue(3, [[3], [3]])
    assert drop(stacked, 1) == stacked


def test_batched_lift_exhaustive():
    # one batch of k lifts moves the k rightmost unmatched balls
    for size in [(2, 4), (3, 3), (2, 5), (3, 4)]:
        for b in oracles.all_binary_matrices(*size):
            for i in range(1, b.num_rows):
                lifted = b
                for k in range(b.n + 2):
                    rows = [_mask(r) for r in b.rows]
                    _lift_unmatched(rows, i, k)
                    assert b.with_rows(map(_columns, rows)) == lifted
                    lifted = lift(lifted, i)


def test_drop_all_unmatched():
    b = MultilineQueue(3, [[1], [2, 3]])
    # the close at column 1 precedes both opens, so both balls fall
    assert drop_all(b, 1).rows == ((1, 2, 3), ())


def test_word_commutation_exhaustive():
    for b in oracles.all_binary_matrices(2, 3):
        assert column_word(drop(b, 1)) == raising(column_word(b), 1)
        assert column_word(lift(b, 1)) == lowering(column_word(b), 1)
        assert column_word(drop_all(b, 1)) == raise_all(column_word(b), 1)
        if drop(b, 1) != b:
            assert lift(drop(b, 1), 1) == b
        if lift(b, 1) != b:
            assert drop(lift(b, 1), 1) == b


def test_star_algebra_relations():
    for b in oracles.all_binary_matrices(3, 3):
        for i in (1, 2):
            once = drop_all(b, i)
            assert drop_all(once, i) == once
        braid_a = drop_all(drop_all(drop_all(b, 1), 2), 1)
        braid_b = drop_all(drop_all(drop_all(b, 2), 1), 2)
        assert braid_a == braid_b


def test_collapse_worked_example():
    result = collapse(COLLAPSE_EXAMPLE)
    assert result.queue.trimmed().shape() == (4, 3, 2, 2)
    assert result.queue.trimmed().rows == (
        (1, 3, 4, 5),
        (1, 2, 4, 5),
        (3, 4),
        (1,),
    )
    assert result.recorder.rows == (
        (1, 1, 1, 2),
        (2, 2, 3, 5),
        (3, 4),
        (4,),
    )
    assert tableau_charge(result.recorder) == 4
    assert maj(COLLAPSE_EXAMPLE) == 4


def test_collapse_canonical_fixed_point():
    for lam in [(2, 1), (3, 2), (2, 2, 1)]:
        m = canonical_mlq(lam, len(lam) + 1)
        result = collapse(m)
        assert result.queue == m
        assert result.recorder == superstandard(conjugate(lam))
        assert tableau_charge(result.recorder) == 0


def test_collapse_proof_example():
    result = collapse(MRSK_EXAMPLE)
    assert result.recorder.rows == (
        (1, 1, 1, 2, 2),
        (2, 2, 3, 5),
        (3, 5),
        (4,),
        (5,),
    )


def test_top_down_agrees():
    assert (
        oracles.collapse_top_down(COLLAPSE_EXAMPLE).trimmed()
        == collapse(COLLAPSE_EXAMPLE).queue.trimmed()
    )
    one_row = MultilineQueue(3, [[1, 3]])
    assert oracles.collapse_top_down(one_row) == one_row
    for b in oracles.all_binary_matrices(3, 3):
        assert oracles.collapse_top_down(b) == collapse(b).queue


def test_labelled_collapse():
    assert oracles.labelled_collapse(COLLAPSE_EXAMPLE).rows == (
        (1, 1, 1, 2),
        (2, 2, 3, 5),
        (3, 4),
        (4,),
    )
    assert oracles.labelled_collapse(MultilineQueue(3, [[1, 3]])).rows == ((1, 1),)
    for b in oracles.all_binary_matrices(3, 3):
        assert oracles.labelled_collapse(b) == collapse(b).recorder


def test_collapse_inverse_round_trip():
    result = collapse(COLLAPSE_EXAMPLE)
    back = collapse_inverse(result.queue, result.recorder)
    assert back.trimmed() == COLLAPSE_EXAMPLE.trimmed()
    lam = (2, 1)
    m = canonical_mlq(lam, 3)
    assert collapse_inverse(m, superstandard(conjugate(lam))).trimmed() == m
    with pytest.raises(ShapeMismatch):
        collapse_inverse(m, superstandard((3,)))


def test_collapse_inverse_rejects_non_count_height():
    # height=0 used to return a queue with no rows
    with pytest.raises(OutOfRange):
        collapse_inverse(MultilineQueue(3, [[1, 2]]), Tableau([[1, 1]]), height=0)
    m = canonical_mlq((2, 1), 3)
    recorder = superstandard(conjugate((2, 1)))
    for height in (-1, True, 2.0, "2"):
        with pytest.raises(OutOfRange):
            collapse_inverse(m, recorder, height=height)


def test_collapse_inverse_rejects_height_below_queue():
    # a ball above an empty row is not collapsed, so it is refused at every
    # height; height=3 used to return the queue, whose collapse is 1|1| with
    # recorder 1 / 3, not 1 / 2
    queue = MultilineQueue(3, [[1], [], [1]])
    recorder = Tableau([[1], [2]])
    for height in (2, 3, None):
        with pytest.raises(NotNonwrapping):
            collapse_inverse(queue, recorder, height=height)


def test_collapse_inverse_rejects_height_below_recorder():
    # height=2 used to rebuild the wrong matrix 1,2|3
    m = MultilineQueue(3, [[1], [2], [3]])
    result = collapse(m)
    with pytest.raises(OutOfRange):
        collapse_inverse(result.queue, result.recorder, height=2)
    assert collapse_inverse(result.queue, result.recorder, height=3) == m


def test_collapse_inverse_skips_empty_lifts(monkeypatch):
    # lifts undo drops: from the largest letter r down, row j is lifted once
    # per ball that sweep r dropped from row j+1 (the full sweep's count),
    # lowest row first, and a batch of 0 lifts moves nothing, so it is not
    # matched at all
    module = importlib.import_module("mlqkit.collapse")
    batches = []
    real = module._lift_unmatched

    def recording(rows, i, k):
        batches.append((i, k))
        return real(rows, i, k)

    monkeypatch.setattr(module, "_lift_unmatched", recording)
    for size in [(3, 3), (3, 4), (4, 3), (2, 5)]:
        for b in oracles.all_binary_matrices(*size):
            _, drops = oracles.collapse_full_sweep(b)
            result = collapse(b)
            batches.clear()
            assert collapse_inverse(result.queue, result.recorder, height=b.num_rows) == b
            assert batches == [
                (j, drops[(r, j)])
                for r in range(b.num_rows, 1, -1) for j in range(1, r) if drops[(r, j)]
            ], b


def assert_same_collapse(m):
    fast = collapse(m)
    full, drops = oracles.collapse_full_sweep(m)
    assert fast == full
    # the drops the full sweep counted are the ones read off the recorder,
    # with the same dense keys in the same order
    assert list(fast.drop_counts.items()) == list(drops.items())
    # the identity that drop_counts reads: sweep r drops from row j+1 to
    # row j the entries r of recorder rows 1..j
    assert drops == {
        (r, j): sum(row.count(r) for row in full.recorder.rows[:j])
        for r in range(2, m.num_rows + 1) for j in range(1, r)
    }


def test_collapse_matches_full_sweep_exhaustive():
    for size in [(3, 3), (3, 4), (4, 3), (2, 5)]:
        for b in oracles.all_binary_matrices(*size):
            assert_same_collapse(b)
            assert _is_collapsed(_row_masks(b)) == (collapse(b).queue == b)


def test_collapse_result_keeps_queue_and_recorder():
    # the recorder is the one record of the drops: drop_counts is derived
    # from it, so the result holds two fields and hashes by them
    assert [f.name for f in dataclasses.fields(CollapseResult)] == ["queue", "recorder"]
    first, again = collapse(COLLAPSE_EXAMPLE), collapse(COLLAPSE_EXAMPLE)
    assert first == again and hash(first) == hash(again)
    assert len({first, again, collapse(MRSK_EXAMPLE)}) == 2
    queue, recorder = first
    assert (queue, recorder) == (first.queue, first.recorder)


def test_drop_counts_are_dense():
    # every (r, j) with 1 <= j < r <= num_rows, zeros included, in the order
    # r up, then j down; a queue without rows has none
    assert collapse(MultilineQueue(2, [])).drop_counts == {}
    assert list(collapse(parse_mlq("n=2;1||")).drop_counts.items()) == [
        ((2, 1), 0), ((3, 2), 0), ((3, 1), 0),
    ]
    m1, m2 = parse_mlq("n=3;1,2|3"), parse_mlq("n=3;2|1,3")
    stacked = m1.with_rows(list(m1.rows) + list(m2.rows))
    product = mult_mlq(m1, m2)
    assert product == collapse(stacked)
    assert product.drop_counts == oracles.collapse_full_sweep(stacked)[1] == {
        (2, 1): 1, (3, 2): 1, (3, 1): 0, (4, 3): 2, (4, 2): 1, (4, 1): 0,
    }


def test_collapse_check_survives_optimize():
    # collapse checks by matching the pairs each sweep changed and raises a
    # typed error, so the check still fires when python -O strips asserts.
    # A drop that moves only the lowest unmatched ball (rows are bitmasks)
    # leaves row 2 unmatched.
    script = (
        "import importlib\n"
        "from mlqkit.errors import InvariantError\n"
        "from mlqkit.mlq import MultilineQueue\n"
        "module = importlib.import_module('mlqkit.collapse')\n"
        "def first_only(rows, i):\n"
        "    opens, _ = module._match_rows(rows[i], rows[i - 1])\n"
        "    first = opens & -opens\n"
        "    rows[i] ^= first\n"
        "    rows[i - 1] |= first\n"
        "    return first.bit_count()\n"
        "module._drop_unmatched = first_only\n"
        "try:\n"
        "    module.collapse(MultilineQueue(3, [[1], [2, 3]]))\n"
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


def test_collapse_nonwrapping_match_count(monkeypatch):
    # on a collapsed queue every sweep stops at its first step, which is one
    # matching, and checks by matching only the pairs it changed, none of
    # them here, so the matchings are at most the number of rows L; a sweep
    # down to row 1 with a full re-check costs L(L-1)
    rng = random.Random(5)
    queues = [canonical_mlq((8, 6, 3, 1), 4)]
    for rows, n in [(8, 5), (10, 6), (12, 4)]:
        m = MultilineQueue(n, [
            [c for c in range(1, n + 1) if rng.random() < 0.5] for _ in range(rows)
        ])
        queues.append(collapse(m).queue)
    module = importlib.import_module("mlqkit.collapse")
    calls = []
    real = module._match_rows

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, "_match_rows", counting)
    for q in queues:
        assert is_nonwrapping(q)
        calls.clear()
        assert collapse(q).queue == q
        assert len(calls) <= q.num_rows


def test_collapse_bijection_exhaustive():
    for b in oracles.all_binary_matrices(4, 3):
        result = collapse(b)
        back = collapse_inverse(result.queue, result.recorder, height=4)
        assert back == b
        # weight preservation
        assert result.queue.column_content() == b.column_content()
        again = collapse(back)
        assert again.queue == result.queue
        assert again.recorder == result.recorder


def test_maj_equals_recorder_charge():
    for size in range(1, 6):
        for lam in partitions(size):
            n = max(3, len(lam))
            if conjugate(lam)[0] > n:
                continue
            for m in enumerate_mlq(lam, n):
                assert maj(m) == tableau_charge(collapse(m).recorder)


def left_justified(m):
    return all(row == tuple(range(1, len(row) + 1)) for row in m.rows)


def test_lattice_condition():
    for lam in [(2, 1), (2, 2), (3, 1)]:
        for m in enumerate_mlq(lam, 3):
            assert left_justified(collapse(m).queue) == is_lattice(row_word(m))


def test_rotations():
    b = MultilineQueue(3, [[2], [1, 3]])
    assert rotate90(rotate90(rotate90(rotate90(b)))) == b
    assert rotate270(rotate90(b)) == b
    assert rotate90(b).row_sizes() == (1, 1, 1)
    assert rotate180(b).rows == ((1, 3), (2,))


def test_rotations_are_repeated_quarter_turns_exhaustive():
    for rows in range(1, 4):
        for n in range(1, 5):
            for b in oracles.all_binary_matrices(rows, n):
                assert rotate180(b) == rotate90(rotate90(b))
                assert rotate270(b) == rotate90(rotate90(rotate90(b)))
                assert rotate270(rotate90(b)) == b == rotate90(rotate270(b))


def test_queue_without_rows():
    # a quarter turn of a queue without rows used to invent a column, so
    # four turns gave one row; the half turn keeps it
    empty = MultilineQueue(3, [])
    for turn in (rotate90, rotate270):
        with pytest.raises(OutOfRange):
            turn(empty)
    assert rotate180(empty) == empty
    # the default height is the queue's row count, not at least 1
    assert collapse_inverse(*collapse(empty)) == empty
    assert collapse_inverse(*collapse(MultilineQueue(3, [[]]))) == MultilineQueue(3, [[]])


def test_collapse_left_preserves_maj():
    left = collapse_left(MRSK_EXAMPLE)
    assert left.row_sizes() == MRSK_EXAMPLE.row_sizes()
    for size in range(1, 6):
        for lam in partitions(size):
            n = max(3, len(lam))
            if conjugate(lam)[0] > n:
                continue
            for m in enumerate_mlq(lam, n):
                assert maj_g(collapse_left(m)) == maj_g(m)
    justified = canonical_mlq((3, 1), 3)
    assert collapse_left(justified) == justified


def test_mrsk_worked_example():
    down, left = mrsk(MRSK_EXAMPLE)
    assert down.trimmed().shape() == (5, 3, 2, 2, 1)
    assert left.trimmed().shape() == conjugate((5, 3, 2, 2, 1))
    assert down.trimmed().rows == (
        (2, 3, 4, 5, 6),
        (1, 2, 3, 5),
        (1, 5),
        (4,),
        (4,),
    )
    assert left.trimmed().rows == (
        (1, 2, 3, 4, 5),
        (1, 4, 5),
        (3, 5),
        (1, 4),
        (4,),
    )
    assert mrsk_inverse(down, left) == MRSK_EXAMPLE


def test_mrsk_double_collapse():
    down, left = mrsk(MRSK_EXAMPLE)
    target = canonical_mlq((5, 3, 2, 2, 1), 6).trimmed()
    assert collapse_left(down).trimmed() == target
    assert collapse(collapse_left(MRSK_EXAMPLE)).queue.trimmed() == target


def test_mrsk_bijection_exhaustive():
    seen = set()
    for b in oracles.all_binary_matrices(3, 3):
        down, left = mrsk(b)
        assert down.trimmed().shape() == conjugate(left.trimmed().shape())
        assert down.column_content() == b.column_content()
        assert left.column_content() == tuple(
            len(r) for r in reversed(b.rows)
        )
        pair = (down.trimmed(), left.trimmed())
        assert pair not in seen
        seen.add(pair)
        assert mrsk_inverse(down, left) == b
    assert len(seen) == 512


def _small_matrices(max_cells, max_side):
    """Every matrix with L, n <= max_side and L * n <= max_cells cells."""
    for rows in range(1, max_side + 1):
        for n in range(1, min(max_side, max_cells // rows) + 1):
            yield from oracles.all_binary_matrices(rows, n)


def _outcome(function, *args):
    """The value of the call, or the type of the package error it raised."""
    try:
        return function(*args)
    except MlqkitError as error:
        return type(error)


def test_mrsk_equals_two_collapses_exhaustive():
    # 9 418 matrices: L, n <= 4 and at most 12 cells
    count = 0
    for m in _small_matrices(12, 4):
        assert mrsk(m) == oracles.mrsk_by_two_collapses(m)
        count += 1
    assert count == 9418


def test_mrsk_inverse_equals_crw_route_exhaustive():
    # every (down, left) pair of transposed sizes with L * n <= 6: the same
    # queue or the same error type as reading the recorder off the column
    # word of the turned-back left queue; the pairs it accepts are the 394
    # images of mrsk, one per matrix of these sizes
    accepted = 0
    for rows in range(1, 7):
        for n in range(1, 6 // rows + 1):
            lefts = list(oracles.all_binary_matrices(n, rows))
            for down in oracles.all_binary_matrices(rows, n):
                for left in lefts:
                    back = _outcome(mrsk_inverse, down, left)
                    assert back == _outcome(oracles.mrsk_inverse_by_crw, down, left)
                    if isinstance(back, MultilineQueue):
                        assert mrsk(back) == (down, left)
                        accepted += 1
    assert accepted == 394


def assert_left_rows_read_as_a_recorder(left):
    # mrsk_inverse builds its recorder unchecked: row c of a collapsed left,
    # each entry x read as left.n + 1 - x in increasing order, is column c
    # of a tableau whose shape is the conjugate of left's nonempty row sizes
    flip = left.n + 1
    columns = [tuple(flip - x for x in reversed(row)) for row in left.rows if row]
    height = len(columns[0]) if columns else 0
    recorder = Tableau([[col[r] for col in columns if len(col) > r] for r in range(height)])
    for c, col in enumerate(columns, start=1):
        assert recorder.column(c) == col, (left, c)
    assert recorder.shape() == conjugate(tuple(s for s in left.row_sizes() if s)), left


def test_collapsed_rows_read_as_a_recorder_exhaustive():
    collapsed = [m for m in _small_matrices(12, 4) if _is_collapsed(_row_masks(m))]
    for left in collapsed:
        assert_left_rows_read_as_a_recorder(left)
    assert len(collapsed) == 1346  # the fixed points of collapse at these sizes


def test_mrsk_inverse_shape_mismatch_message():
    # both queues collapsed and of transposed sizes, but left's shape is not
    # the conjugate of down's; the message names both shapes
    cases = [
        ("n=2;1,2|", "n=2;1,2|", "(1, 1) is not conjugate to (1, 1)"),
        ("n=3;1,2|1|", "n=3;1,2,3||", "(1, 1, 1) is not conjugate to (2, 1)"),
    ]
    for down, left, message in cases:
        with pytest.raises(ShapeMismatch) as error:
            mrsk_inverse(parse_mlq(down), parse_mlq(left))
        assert str(error.value) == message


def test_mrsk_of_no_rows_is_out_of_range():
    with pytest.raises(OutOfRange):
        mrsk(MultilineQueue(3, []))


def test_collapse_left_columns_are_recorder_columns():
    # ball (r, c) of the leftward collapse for each entry r of recorder
    # column c: the leftward queue is the recorder transposed
    for m in _small_matrices(9, 3):
        left = collapse_left(m)
        recorder = collapse(m).recorder
        for c in range(1, m.n + 1):
            rows = tuple(r for r, row in enumerate(left.rows, start=1) if c in row)
            assert rows == recorder.column(c), (m, c)


def test_flip_reverses_column_content():
    m = canonical_mlq((2, 1), 3)
    flipped = flip_up(m)
    assert flipped.column_content() == tuple(reversed(m.column_content()))
    # bijectivity on nonwrapping queues of a fixed shape
    for n in (2, 3):
        images = {}
        for m in enumerate_mlq((2, 1), n):
            if not is_nonwrapping(m):
                continue
            f = flip_up(m)
            assert is_nonwrapping(f)
            key = f.trimmed()
            assert key not in images
            images[key] = m
            assert f.column_content() == tuple(reversed(m.column_content()))


def test_flip_is_an_involution_on_collapsed_queues():
    collapsed = [
        b
        for size in [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3)]
        for b in oracles.all_binary_matrices(*size)
        if collapse(b).queue == b
    ]
    assert len(collapsed) == 1143
    for m in collapsed:
        assert flip_up(flip_up(m)) == m


def test_flip_maj_identity():
    # the quarter turn of a queue with partition column content is straight
    for lam in [(2, 1), (2, 2), (3, 1)]:
        for m in enumerate_mlq(lam, 3):
            if not is_nonwrapping(m):
                continue
            counts = m.column_content()
            if any(counts[i] < counts[i + 1] for i in range(len(counts) - 1)):
                continue
            flipped = flip_up(m)
            assert maj(rotate90(m).trimmed()) == maj(
                rotate270(flipped).trimmed()
            )


def test_collapse_sigma_invariance():
    for b in oracles.all_binary_matrices(3, 3):
        base = collapse(b)
        for i in (1, 2):
            other = collapse(sigma(b, i))
            assert other.queue == base.queue
            assert other.recorder == oracles.ls_action(base.recorder, i)


def test_twisted_collapse():
    m = canonical_mlq((2, 2, 1), 3)
    b = sigma(m, 1)
    assert twisted_collapse(b, [1]) == sigma(collapse(m).queue, 1)
    assert twisted_collapse(m, []) == collapse(m).queue


def test_orthogonal_drops_commute():
    from mlqkit.collapse import rotate90 as rot

    def drop_left(b, j):
        return rotate270(drop_all(rot(b), j))

    for b in oracles.all_binary_matrices(3, 3):
        for i in (1, 2):
            for j in (1, 2):
                assert drop_left(drop_all(b, i), j) == drop_all(
                    drop_left(b, j), i
                )


@st.composite
def binary_matrices(draw, straight=False, size=6):
    """Matrices up to size x size, beyond the exhaustive range; with
    straight=True, queues with weakly decreasing nonzero row sizes."""
    n = draw(st.integers(1, size))
    sizes = draw(st.lists(st.integers(1 if straight else 0, n), min_size=1, max_size=size))
    if straight:
        sizes.sort(reverse=True)
    return MultilineQueue(n, [
        draw(st.sets(st.integers(1, n), min_size=k, max_size=k)) for k in sizes
    ])


@given(binary_matrices())
def test_bijections_random(m):
    result = collapse(m)
    assert collapse_inverse(result.queue, result.recorder, height=m.num_rows) == m
    assert mrsk_inverse(*mrsk(m)) == m


@given(binary_matrices())
def test_mrsk_equals_two_collapses_random(m):
    assert mrsk(m) == oracles.mrsk_by_two_collapses(m)


@given(binary_matrices(size=8))
def test_collapsed_rows_read_as_a_recorder_random(m):
    assert_left_rows_read_as_a_recorder(collapse(m).queue)


@given(binary_matrices())
def test_maj_g_sigma_invariance_random(m):
    for i in range(1, m.num_rows):
        assert maj_g(sigma(m, i)) == maj_g(m)


@given(binary_matrices(straight=True))
def test_maj_equals_recorder_charge_random(m):
    assert maj(m) == tableau_charge(collapse(m).recorder)


@st.composite
def one_ball_rows(draw):
    """Queues with one ball per row, up to 40 rows: the queues that
    oracles.mlq_of_tableau_by_letters collapses."""
    n = draw(st.integers(1, 10))
    word = draw(st.lists(st.integers(1, n), min_size=1, max_size=40))
    return MultilineQueue(n, [[c] for c in word])


@given(binary_matrices())
def test_collapse_matches_full_sweep_random(m):
    assert_same_collapse(m)


@given(binary_matrices(size=12))
def test_collapse_matches_full_sweep_large_random(m):
    # up to 12x12: the row masks span more bits than any exhaustive size
    assert_same_collapse(m)
    result = collapse(m)
    assert collapse_inverse(result.queue, result.recorder, height=m.num_rows) == m


@given(one_ball_rows())
def test_collapse_matches_full_sweep_one_ball_rows(m):
    assert_same_collapse(m)


@given(binary_matrices())
def test_insertion_oracles_random(m):
    result = collapse(m)
    assert oracles.row_insert(column_word(m)) == result.recorder
    assert tab_of_mlq(result.queue) == column_insert(row_word(m))


def test_mlq_of_tableau_matches_one_ball_per_letter_exhaustive():
    # 10 339 tableaux: every SSYT with at most 7 cells and entries at most
    # n >= 1 (an explicit n of 0 is refused; see test_errors)
    for n in range(1, 6):
        for size in range(8):
            for lam in partitions(size):
                for t in enumerate_ssyt(lam, max_entry=n):
                    assert mlq_of_tableau(t, n) == oracles.mlq_of_tableau_by_letters(t, n)


def test_superstandard_queue_is_left_justified():
    # the lemma behind lr_coefficient_by_mlq's straight part: collapsing the
    # superstandard tableau of shape nu gives row j columns 1..nu'_j
    cases = 0
    for size in range(10):
        for nu in partitions(size):
            for n in range(max(len(nu), 1), len(nu) + 3):
                assert mlq_of_tableau(superstandard(nu), n) == canonical_mlq(nu, n), (nu, n)
                cases += 1
    assert cases == 290  # 97 shapes, three widths each, two for the empty one


def test_mlq_of_empty_tableau_defaults_to_one_column():
    # only an explicit n is refused when it is not a positive int
    assert mlq_of_tableau(Tableau([])) == MultilineQueue(1, [])
    assert mlq_of_tableau(Tableau([]), 2) == MultilineQueue(2, [])


@given(binary_matrices())
def test_mlq_of_tableau_matches_one_ball_per_letter_random(m):
    queue = collapse(m).queue.trimmed()
    t = tab_of_mlq(queue)
    assert mlq_of_tableau(t, m.n) == oracles.mlq_of_tableau_by_letters(t, m.n) == queue
