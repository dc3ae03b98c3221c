"""Each typed error is raised where its contract says."""

import inspect

import pytest

import mlqkit
import oracles
from mlqkit.collapse import (
    CollapseResult,
    collapse_inverse,
    drop,
    drop_all,
    flip_up,
    insert_into_mlq,
    lift,
    lr_coefficient,
    mlq_of_tableau,
    mrsk_inverse,
    mult_mlq,
    skew_to_mlq,
    tab_of_mlq,
    twisted_collapse,
)
from mlqkit.charge import (
    charge,
    charge_g,
    charge_permutation,
    charge_subwords,
    cocharge,
)
from mlqkit.core import (
    conjugate,
    content,
    dominance_leq,
    is_lattice,
    parse_partition,
    parse_word,
    partitions,
    sort_to_partition,
)
from mlqkit.errors import (
    AlphabetTooSmall,
    BadRowIndex,
    BadSigmaWord,
    ColumnMismatch,
    MlqkitError,
    NotNonwrapping,
    OutOfRange,
    ParseError,
    ShapeMismatch,
    VariableCountMismatch,
)
from mlqkit.fillings import ColumnFilling, parse_filling
from mlqkit.matching import bracket_match, lowering, raise_all, raising, reflect
from mlqkit.mlq import MultilineQueue, enumerate_gmlq, parse_mlq, sigma, stationary_counts
from mlqkit.poly import (
    QXPolynomial,
    kostka_foulkes,
    kostka_foulkes_lattice,
    q_whittaker_gmlq,
    q_whittaker_mlq,
    schur,
    skew_schur,
)
from mlqkit.tableaux import (
    SkewTableau,
    Tableau,
    column_insert,
    parse_tableau,
    superstandard,
)


def enumerate_gmlq_list(alpha, n):
    """``enumerate_gmlq`` run to the end, since a generator checks its
    arguments only when it starts."""
    return list(enumerate_gmlq(alpha, n))


TWO_ROWS = parse_mlq("n=3;1,2|3")
WRAPPING = parse_mlq("n=2;1|2")
SMALL_TABLEAU = Tableau([[1, 1], [2]])
SMALL_FILLING = ColumnFilling((2, 1), [(1, 2), (1,)])  # rows of 2 and 1 cells


CASES = [
    (BadRowIndex, drop, (TWO_ROWS, 2)),
    (BadRowIndex, lift, (TWO_ROWS, 0)),
    (BadRowIndex, drop_all, (TWO_ROWS, 2)),
    (BadRowIndex, sigma, (TWO_ROWS, 0)),
    (NotNonwrapping, tab_of_mlq, (WRAPPING,)),
    (NotNonwrapping, insert_into_mlq, (WRAPPING, 1)),
    # both used to return a queue the forward map does not send back: 1,2|3
    # collapses to 1,2,3| with recorder 1 1 2, and mrsk of |1|2 is
    # (1,2||, 2|1|)
    (NotNonwrapping, collapse_inverse, (TWO_ROWS, Tableau([[1, 1], [2]]))),
    (NotNonwrapping, mrsk_inverse, (parse_mlq("n=3;1|2|"), parse_mlq("n=3;1,2||"))),
    # a down queue that is not straight used to raise NotStraight instead
    (NotNonwrapping, mrsk_inverse, (parse_mlq("n=3;1|1,2"), parse_mlq("n=3;1,2||"))),
    # sizes that do not transpose used to return a matrix that mrsk does
    # not send back: n=2;1 and n=2;||1, though mrsk(n=2;1) is (n=2;1, n=1;1|)
    (ColumnMismatch, mrsk_inverse, (parse_mlq("n=2;1||"), parse_mlq("n=1;1|"))),
    (ColumnMismatch, mrsk_inverse, (parse_mlq("n=2;1"), parse_mlq("n=3;1|"))),
    (AlphabetTooSmall, mlq_of_tableau, (Tableau([[3]]), 2)),
    (ColumnMismatch, mult_mlq, (TWO_ROWS, WRAPPING)),
    (BadSigmaWord, twisted_collapse, (parse_mlq("n=3;1|1,2"), [])),
    (VariableCountMismatch, QXPolynomial.__add__, (QXPolynomial.one(2), QXPolynomial.one(3))),
    # an operand that is no polynomial used to raise AttributeError on .n
    (ParseError, QXPolynomial.__add__, (QXPolynomial.one(2), "x")),
    (ParseError, QXPolynomial.__sub__, (QXPolynomial.one(2), None)),
    (ParseError, QXPolynomial.__mul__, (QXPolynomial.one(2), "x")),
    # bad balls and rows used to raise a bare TypeError from sorting
    (ParseError, MultilineQueue, (3, [[1, "a"]])),
    (ParseError, MultilineQueue, (3, [5])),
    # a bool is no row index, though True == 1 names a valid pair here
    (BadRowIndex, drop, (TWO_ROWS, True)),
    (BadRowIndex, drop, (TWO_ROWS, 1.5)),
    (BadRowIndex, lift, (TWO_ROWS, True)),
    (BadRowIndex, lift, (TWO_ROWS, 1.5)),
    (BadRowIndex, drop_all, (TWO_ROWS, True)),
    (BadRowIndex, drop_all, (TWO_ROWS, 1.5)),
    (BadRowIndex, sigma, (TWO_ROWS, True)),
    (BadRowIndex, sigma, (TWO_ROWS, 1.5)),
    # the 1-based accessors: row 0 was the top row, -1 and True other rows,
    # column 0 each row's last entry, and entry, height and row_content
    # wrapped around at 0
    (BadRowIndex, MultilineQueue.row, (TWO_ROWS, 0)),
    (BadRowIndex, MultilineQueue.row, (TWO_ROWS, -1)),
    (BadRowIndex, MultilineQueue.row, (TWO_ROWS, True)),
    (BadRowIndex, MultilineQueue.row, (TWO_ROWS, 1.5)),
    (BadRowIndex, MultilineQueue.row, (TWO_ROWS, 3)),
    (OutOfRange, Tableau.column, (SMALL_TABLEAU, 0)),
    (OutOfRange, Tableau.column, (SMALL_TABLEAU, -1)),
    (OutOfRange, Tableau.column, (SMALL_TABLEAU, True)),
    (OutOfRange, Tableau.column, (SMALL_TABLEAU, "1")),
    (BadRowIndex, ColumnFilling.entry, (SMALL_FILLING, 0, 0)),
    (BadRowIndex, ColumnFilling.entry, (SMALL_FILLING, 3, 1)),
    (BadRowIndex, ColumnFilling.entry, (SMALL_FILLING, True, 1)),
    (OutOfRange, ColumnFilling.entry, (SMALL_FILLING, 1, 0)),
    (OutOfRange, ColumnFilling.entry, (SMALL_FILLING, 2, 2)),
    (OutOfRange, ColumnFilling.entry, (SMALL_FILLING, 1, True)),
    (OutOfRange, ColumnFilling.height, (SMALL_FILLING, 0)),
    (OutOfRange, ColumnFilling.height, (SMALL_FILLING, -1)),
    (OutOfRange, ColumnFilling.height, (SMALL_FILLING, 3)),
    (OutOfRange, ColumnFilling.height, (SMALL_FILLING, True)),
    (BadRowIndex, ColumnFilling.row_content, (SMALL_FILLING, 0)),
    (BadRowIndex, ColumnFilling.row_content, (SMALL_FILLING, -1)),
    (BadRowIndex, ColumnFilling.row_content, (SMALL_FILLING, 3)),
    (BadRowIndex, ColumnFilling.row_content, (SMALL_FILLING, True)),
    # reflect used to return (0, 2) and raising the word unchanged
    (ParseError, reflect, ((1, 2), 0)),
    (ParseError, raising, ((1, 2), 1.5)),
    (ParseError, lowering, ((1, 2), True)),
    (ParseError, raise_all, ((1, 2), -1)),
    # partitions(-2) used to yield nothing and partitions(True) [(1,)]
    (ParseError, partitions, (-2,)),
    (ParseError, partitions, (True,)),
    (ParseError, partitions, (1.5,)),
    (ParseError, partitions, (3, -1)),
    (ParseError, sort_to_partition, ((1, "a"),)),
    (ParseError, sort_to_partition, ((2, -1),)),
    # a str letter used to raise a bare TypeError from comparing letters
    (ParseError, column_insert, ((2, 1, "x"),)),
    (ParseError, oracles.tableau_from_crw, ((2, "a"),)),
    (ParseError, column_insert, ((0,),)),
    (ParseError, column_insert, ((True,),)),
    # an explicit n is checked: "x" raised a bare TypeError, and 0 gave a
    # queue on one column
    (ParseError, mlq_of_tableau, (Tableau([[1]]), "x")),
    (ParseError, mlq_of_tableau, (Tableau([]), 0)),
    (ParseError, mlq_of_tableau, (Tableau([[1]]), True)),
    # so is skew_to_mlq's: "x" raised a bare TypeError, and 0 gave a queue
    # for a filling with no entries
    (ParseError, skew_to_mlq, (SkewTableau((1,), (), [(1,)]), "x")),
    (ParseError, skew_to_mlq, (SkewTableau((1,), (1,), [()]), 0)),
    (ParseError, skew_to_mlq, (SkewTableau((1,), (), [(1,)]), True)),
    # a column that is no int used to raise a bare TypeError from comparing
    (OutOfRange, insert_into_mlq, (TWO_ROWS, "a")),
    (OutOfRange, insert_into_mlq, (TWO_ROWS, True)),
    (OutOfRange, insert_into_mlq, (TWO_ROWS, 1.5)),
    # so did a part that is no int
    (ParseError, dominance_leq, ((1, "a"), (2,))),
    (ParseError, dominance_leq, ((2,), (1, "a"))),
    (ParseError, dominance_leq, ((2, -1), (1,))),
    # a float letter used to raise a bare TypeError, and a bool letter to
    # count as 1
    (ParseError, charge_permutation, ((1.0, 2),)),
    (ParseError, charge_permutation, ((True, 2),)),
    # a part that is no int used to raise a bare TypeError, and a
    # composition NotStraight where kostka_foulkes raises ParseError
    (ParseError, kostka_foulkes_lattice, ((1, "a"), (1,))),
    (ParseError, kostka_foulkes_lattice, ((2, 1), (1, 2))),
    # a bool part used to give the tableau with one 1
    (ParseError, superstandard, ((True,),)),
    # a shape that is no sequence used to raise a bare TypeError from tuple()
    (ParseError, conjugate, (5,)),
    (ParseError, schur, (None, 3)),
    (ParseError, q_whittaker_mlq, (2.5, 3)),
    (ParseError, q_whittaker_gmlq, (5, 3)),
    (ParseError, stationary_counts, (None, 3)),
    (ParseError, enumerate_gmlq_list, (5, 3)),
    (ParseError, kostka_foulkes, (5, (1,))),
    (ParseError, kostka_foulkes, ((1,), None)),
    (ParseError, lr_coefficient, (None, (1,), (1,))),
    (ParseError, skew_schur, (2.5, (), 3)),
    (ParseError, skew_schur, ((2,), 5, 3)),
    # a word that is no sequence used to raise a bare TypeError from tuple()
    (ParseError, charge, (5,)),
    (ParseError, charge_g, (5,)),
    (ParseError, cocharge, (5,)),
    (ParseError, charge_permutation, (5,)),
    (ParseError, charge_subwords, (5,)),
    (ParseError, content, (5,)),
    (ParseError, is_lattice, (5,)),
    (ParseError, column_insert, (5,)),
    (ParseError, bracket_match, (5, 1)),
    (ParseError, raising, (5, 1)),
    (ParseError, lowering, (5, 1)),
    (ParseError, raise_all, (5, 1)),
    (ParseError, reflect, (5, 1)),
    # text that is no str used to raise AttributeError from .strip()
    (ParseError, parse_partition, (5,)),
    (ParseError, parse_word, (5,)),
    (ParseError, parse_mlq, (5,)),
    (ParseError, parse_tableau, (5,)),
    (ParseError, parse_filling, (5,)),
    # rows that are no sequence used to raise a bare TypeError
    (ParseError, Tableau, (5,)),
    (ParseError, SkewTableau, ((1,), (), 5)),
    (ParseError, ColumnFilling, ((1,), 5)),
    # terms that are no sequence used to raise a bare TypeError, and an n
    # that is no count was taken as it came
    (ParseError, QXPolynomial, (5, 3)),
    (ParseError, QXPolynomial, ("a",)),
    (ParseError, twisted_collapse, (TWO_ROWS, 5)),
    # charge_g of None, 0 or "" used to return 0
    (ParseError, charge_g, (None,)),
    (ParseError, charge_g, (0,)),
    (ParseError, charge_g, ("",)),
    # malformed pairs and keys raised a bare TypeError or ValueError, built a
    # polynomial that failed in str(), or named a variable past n
    (ParseError, QXPolynomial, (1, [5])),
    (ParseError, QXPolynomial, (1, [((0, ()),)])),
    (ParseError, QXPolynomial, (1, {5: 1})),
    (ParseError, QXPolynomial, (1, {(0, ((2, 1),)): 1})),
]


# (function, its arguments after the word, words it takes); the charge
# statistics take words with a partition content, charge_permutation a
# permutation
WORD_FUNCTIONS = [
    (bracket_match, (1,), ((2, 1, 1, 2), (1, 2, 2))),
    (raising, (1,), ((2, 1), (2, 2, 1, 2))),
    (lowering, (1,), ((2, 1), (1, 2, 1, 1))),
    (raise_all, (1,), ((2, 2, 1, 2),)),
    (reflect, (1,), ((2, 2, 1, 2), (1, 1, 2))),
    (charge_g, (), ((1, 2), (2, 2, 1, 3))),
    (charge, (), ((1, 2), (2, 1, 1, 3, 2, 1))),
    (cocharge, (), ((2, 1, 1, 3, 2, 1),)),
    (charge_subwords, (), ((1, 1, 2), (2, 1, 1, 3, 2, 1))),
    (charge_permutation, (), ((3, 1, 2),)),
    (content, (), ((2, 1, 1, 3),)),
    (is_lattice, (), ((1, 2, 1), (1, 2, 2))),
    (column_insert, (), ((2, 1, 1, 3, 2),)),
]


@pytest.mark.parametrize(
    "function, rest, words", WORD_FUNCTIONS, ids=[f.__name__ for f, _, _ in WORD_FUNCTIONS],
)
def test_word_functions_read_a_one_shot_iterator(function, rest, words):
    # a word is read once, into the tuple that core._check_letters returns
    for w in words:
        assert function(iter(w), *rest) == function(w, *rest), w


# is_nonwrapping holds, since an unpaired ball does not wrap, but collapse
# still moves the ball down, so the queue is no tableau's queue; flip_up used
# to send it to 2|, which flips to 1|
BALL_ABOVE_EMPTY_ROW = MultilineQueue(2, [[], [1]])


@pytest.mark.parametrize("function, args", [
    (tab_of_mlq, (BALL_ABOVE_EMPTY_ROW,)),
    (insert_into_mlq, (BALL_ABOVE_EMPTY_ROW, 1)),
    (flip_up, (BALL_ABOVE_EMPTY_ROW,)),
], ids=["tab_of_mlq", "insert_into_mlq", "flip_up"])
def test_ball_above_empty_row_refused(function, args):
    with pytest.raises(NotNonwrapping):
        function(*args)


def _case_id(k):
    """The function's name, numbered from its second case on."""
    function = CASES[k][1]
    earlier = sum(f is function for _, f, _ in CASES[:k])
    return f"{function.__name__}{earlier + 1}" if earlier else function.__name__


@pytest.mark.parametrize("error, function, args", CASES, ids=map(_case_id, range(len(CASES))))
def test_typed_errors(error, function, args):
    with pytest.raises(error):
        function(*args)


def test_accessors_read_in_range():
    # the checks leave every in-range read as it was, and a column past the
    # width of a tableau is still empty (collapse_left reads such columns)
    assert [TWO_ROWS.row(r) for r in (1, 2)] == [(1, 2), (3,)]
    assert [SMALL_TABLEAU.column(c) for c in (1, 2, 3)] == [(1, 2), (1,), ()]
    assert [SMALL_FILLING.entry(r, c) for r, c in ((1, 1), (1, 2), (2, 1))] == [1, 2, 1]
    assert [SMALL_FILLING.height(c) for c in (1, 2)] == [2, 1]
    assert [SMALL_FILLING.row_content(r) for r in (1, 2)] == [(1, 2), (1,)]


# (error, queue, recorder): a CollapseResult stores its fields unchecked
# (RECORDS), and drop_counts, which raised a bare IndexError on these,
# checks them on access with the error collapse_inverse gives at the
# queue's height
MISFIT_RECORDS = [
    (ShapeMismatch, MultilineQueue(2, []), Tableau([[1]])),
    (ShapeMismatch, MultilineQueue(2, [[1]]), Tableau([[1], [2]])),
    (OutOfRange, MultilineQueue(2, [[1]]), Tableau([[2]])),
]


@pytest.mark.parametrize(
    "error, queue, recorder", MISFIT_RECORDS, ids=["no_rows", "extra_row", "high_entry"],
)
def test_drop_counts_check_the_record(error, queue, recorder):
    result = CollapseResult(queue, recorder)
    with pytest.raises(error):
        result.drop_counts
    with pytest.raises(error):
        collapse_inverse(queue, recorder, queue.num_rows)


# a valid instance of each package class that a public function takes, for
# the object slots not under test
SAMPLES = {
    MultilineQueue: parse_mlq("n=3;1,2|1"),
    Tableau: Tableau([[1, 1], [2]]),
    SkewTableau: SkewTableau((2, 1), (1,), [(1,), (2,)]),
    ColumnFilling: ColumnFilling((2, 1), [(1, 2), (1,)]),
    QXPolynomial: QXPolynomial.one(2),
}
# records the package returns, which store their fields as given
RECORDS = {"CollapseResult", "BicoloredMLQ"}


def _outcome(function, args):
    """What calling function(*args) raised, or None if it returned; a
    generator is run to the end."""
    try:
        result = function(*args)
        if inspect.isgenerator(result):
            list(result)
    except Exception as error:  # the sweep reports every kind it meets
        return error
    return None


def _public_callables():
    """(name, function, its required parameters) for every public callable
    of mlqkit but the records."""
    for name in sorted(set(dir(mlqkit)) - RECORDS):
        function = getattr(mlqkit, name)
        if name.startswith("_") or inspect.ismodule(function) or not callable(function):
            continue
        params = [
            p for p in inspect.signature(function).parameters.values()
            if p.default is p.empty
        ]
        yield name, function, params


def test_no_public_call_raises_a_bare_type_error():
    # every public callable of mlqkit, with 5 or None as its first argument
    # and 3 for each other required one, raises a typed error; 5 is a valid
    # count n, so there only None is tried
    found = []
    for name, function, params in _public_callables():
        for bad in (None,) if params[0].name == "n" else (5, None):
            error = _outcome(function, [bad] + [3] * (len(params) - 1))
            if not isinstance(error, MlqkitError):
                found.append(f"{name}({bad!r}, ...): {error!r}")
    assert not found


def test_every_object_slot_is_checked():
    # each parameter annotated with a queue, tableau, filling or polynomial
    # class, given "x", 5 or None while the other object slots hold valid
    # samples and the rest 3, raises ParseError (core._check_instance)
    assert all(type(sample) is cls for cls, sample in SAMPLES.items())
    found, slots = [], 0
    for name, function, params in _public_callables():
        valid = [SAMPLES.get(p.annotation, 3) for p in params]
        for k, p in enumerate(params):
            if p.annotation not in SAMPLES:
                continue
            slots += 1
            for bad in ("x", 5, None):
                error = _outcome(function, valid[:k] + [bad] + valid[k + 1:])
                if not isinstance(error, ParseError):
                    found.append(f"{name} {p.name}={bad!r}: {error!r}")
    assert not found
    assert slots == 41
