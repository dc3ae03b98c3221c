import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlqkit.charge import charge
from mlqkit.core import conjugate, is_lattice, partitions
from mlqkit.errors import ShapeMismatch
from mlqkit.matching import lowering, raising, raise_all
from mlqkit.mlq import (
    MultilineQueue,
    all_binary_matrices,
    canonical_mlq,
    column_word,
    enumerate_mlq,
    is_nonwrapping,
    maj,
    maj_g,
    row_word,
    sigma,
)
from mlqkit.collapse import (
    _lift_unmatched,
    collapse,
    collapse_inverse,
    collapse_left,
    collapse_top_down,
    drop,
    drop_all,
    flip_up,
    labelled_collapse,
    lift,
    mrsk,
    mrsk_inverse,
    rotate90,
    rotate180,
    rotate270,
    twisted_collapse,
)
from mlqkit.tableaux import Tableau, superstandard, tableau_charge

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
        for b in all_binary_matrices(*size):
            for i in range(1, b.num_rows):
                lifted = b
                for k in range(b.n + 2):
                    rows = [set(r) for r in b.rows]
                    _lift_unmatched(rows, i, k)
                    assert b.with_rows(rows) == lifted
                    lifted = lift(lifted, i)


def test_drop_all_unmatched():
    b = MultilineQueue(3, [[1], [2, 3]])
    # the close at column 1 precedes both opens, so both balls fall
    assert drop_all(b, 1).rows == ((1, 2, 3), ())


def test_word_commutation_exhaustive():
    for b in all_binary_matrices(2, 3):
        assert column_word(drop(b, 1)) == raising(column_word(b), 1)
        assert column_word(lift(b, 1)) == lowering(column_word(b), 1)
        assert column_word(drop_all(b, 1)) == raise_all(column_word(b), 1)
        if drop(b, 1) != b:
            assert lift(drop(b, 1), 1) == b
        if lift(b, 1) != b:
            assert drop(lift(b, 1), 1) == b


def test_star_algebra_relations():
    for b in all_binary_matrices(3, 3):
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
        collapse_top_down(COLLAPSE_EXAMPLE).trimmed()
        == collapse(COLLAPSE_EXAMPLE).queue.trimmed()
    )
    one_row = MultilineQueue(3, [[1, 3]])
    assert collapse_top_down(one_row) == one_row
    for b in all_binary_matrices(3, 3):
        assert collapse_top_down(b) == collapse(b).queue


def test_labelled_collapse():
    assert labelled_collapse(COLLAPSE_EXAMPLE).rows == (
        (1, 1, 1, 2),
        (2, 2, 3, 5),
        (3, 4),
        (4,),
    )
    assert labelled_collapse(MultilineQueue(3, [[1, 3]])).rows == ((1, 1),)
    for b in all_binary_matrices(3, 3):
        assert labelled_collapse(b) == collapse(b).recorder


def test_collapse_inverse_round_trip():
    result = collapse(COLLAPSE_EXAMPLE)
    back = collapse_inverse(result.queue, result.recorder)
    assert back.trimmed() == COLLAPSE_EXAMPLE.trimmed()
    lam = (2, 1)
    m = canonical_mlq(lam, 3)
    assert collapse_inverse(m, superstandard(conjugate(lam))).trimmed() == m
    with pytest.raises(ShapeMismatch):
        collapse_inverse(m, superstandard((3,)))


def test_collapse_bijection_exhaustive():
    for b in all_binary_matrices(4, 3):
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
    for b in all_binary_matrices(3, 3):
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
    from mlqkit.tableaux import ls_action

    for b in all_binary_matrices(3, 3):
        base = collapse(b)
        for i in (1, 2):
            other = collapse(sigma(b, i))
            assert other.queue == base.queue
            assert other.recorder == ls_action(base.recorder, i)


def test_twisted_collapse():
    m = canonical_mlq((2, 2, 1), 3)
    b = sigma(m, 1)
    assert twisted_collapse(b, [1]) == sigma(collapse(m).queue, 1)
    assert twisted_collapse(m, []) == collapse(m).queue


def test_orthogonal_drops_commute():
    from mlqkit.collapse import rotate90 as rot

    def drop_left(b, j):
        return rotate270(drop_all(rot(b), j))

    for b in all_binary_matrices(3, 3):
        for i in (1, 2):
            for j in (1, 2):
                assert drop_left(drop_all(b, i), j) == drop_all(
                    drop_left(b, j), i
                )


@st.composite
def binary_matrices(draw, straight=False):
    """Matrices up to 6x6, beyond the exhaustive range; with straight=True,
    queues with weakly decreasing nonzero row sizes."""
    n = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1 if straight else 0, n), min_size=1, max_size=6))
    if straight:
        sizes.sort(reverse=True)
    return MultilineQueue(n, [
        draw(st.sets(st.integers(1, n), min_size=k, max_size=k)) for k in sizes
    ])


@settings(deadline=None)
@given(binary_matrices())
def test_bijections_random(m):
    result = collapse(m)
    assert collapse_inverse(result.queue, result.recorder, height=m.num_rows) == m
    assert mrsk_inverse(*mrsk(m)) == m


@settings(deadline=None)
@given(binary_matrices())
def test_maj_g_sigma_invariance_random(m):
    for i in range(1, m.num_rows):
        assert maj_g(sigma(m, i)) == maj_g(m)


@settings(deadline=None)
@given(binary_matrices(straight=True))
def test_maj_equals_recorder_charge_random(m):
    assert maj(m) == tableau_charge(collapse(m).recorder)
