"""The checked twin split inside `char_poly`.

`char_poly` scans the indices in order: an index joins the current run when
its difference from the run's first index is a checked eigenvector, and
leads a new run otherwise.  Each checked eigenvalue splits off, and the same
pass repeats on the leader block.  The result must not depend on which runs
are found, so it is checked against the independent
`char_poly_interpolation` on matrices with planted runs, with those runs
broken by one changed entry, and on the extreme cases; the runs of the first
pass, the eigenvalues split off and the block that reaches the dense engine
are checked against a split done entry by entry.  The speed comes from the
runs, so on the paper's graphs they are checked against the certified
parts, and the recursion must end in a block of order 2 for D and D^Q and
of order 1 for D^L.
"""

from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncgspectra import (
    ALL_KINDS,
    GroupSpec,
    IntMatrix,
    IntPolynomial,
    char_poly,
    complete_multipartite,
    default_grid,
    distance_matrix,
    matrix_of_kind,
    multipartite_distance_charpoly,
    oracle,
)
import ncgspectra.exactalg as exactalg
from ncgspectra.exactalg import char_poly_factors, twin_eigenvalue

from charpoly_reference import char_poly_interpolation
from test_commutation import LARGE_SPECS

ENTRY = st.integers(-6, 6)


@st.composite
def planted_twins(draw, symmetric=None):
    """(rows, planted runs, changed entry or None).

    Entries between two runs depend only on the row and on the column's run,
    so each run's columns agree outside it; a run has one diagonal value and
    one off-diagonal value.  A symmetric matrix also has constant blocks
    between runs, and its changed entry is changed with its mirror image.
    `symmetric` None draws either kind.
    """
    n = draw(st.integers(1, 9))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    runs = [range(a, b) for a, b in zip([0, *cuts], [*cuts, n])]
    run_of = [r for r, run in enumerate(runs) for _ in run]
    k = len(runs)
    inside = [(draw(ENTRY), draw(ENTRY)) for _ in runs]
    if symmetric is None:
        symmetric = draw(st.booleans())
    if symmetric:
        block = [[draw(ENTRY) for _ in range(k)] for _ in range(k)]
        between = [[block[min(a, b)][max(a, b)] for b in range(k)] for a in range(k)]
        outside = [between[run_of[u]] for u in range(n)]
    else:
        outside = [[draw(ENTRY) for _ in range(k)] for _ in range(n)]
    rows = [
        [
            (inside[run_of[u]][u != v] if run_of[u] == run_of[v] else outside[u][run_of[v]])
            for v in range(n)
        ]
        for u in range(n)
    ]
    change = None
    if draw(st.booleans()):
        change = (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)),
                  draw(st.integers(-3, 3).filter(bool)))
        i, j, delta = change
        rows[i][j] += delta
        if symmetric and i != j:
            rows[j][i] += delta
    return rows, runs, change


def reference_twin_runs(rows):
    """(runs, eigenvalues) of one pass of the leader rule, entry by entry.

    Index v joins the current run, led by its first index s, when column v
    minus column s is lambda (e_v - e_s) in every entry, with
    lambda = rows[v][v] - rows[v][s]; that lambda is recorded.  Otherwise v
    leads a new run.
    """
    n = len(rows)
    leaders, lams = [0], []
    for v in range(1, n):
        s = leaders[-1]
        lam = rows[v][v] - rows[v][s]
        if all(rows[u][v] - rows[u][s] == lam * ((u == v) - (u == s)) for u in range(n)):
            lams.append(lam)
        else:
            leaders.append(v)
    bounds = [*leaders, n]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])], lams


def reference_split(rows):
    """(eigenvalues split off, leader block left) by the definition, entry by entry.

    After each pass of `reference_twin_runs` that records an eigenvalue, the
    leader block sums each run's rows over the leader columns, and the pass
    repeats on it.
    """
    found = []
    while True:
        runs, lams = reference_twin_runs(rows)
        if not lams:
            return found, rows
        found += lams
        rows = [[sum(rows[u][c[0]] for u in r) for c in runs] for r in runs]


def first_runs(matrix):
    """The runs of `char_poly_factors`'s first pass, read off its `twin_eigenvalue` calls.

    Each call on the matrix's own columns must compare an index with the
    leader of the current run; an index whose check fails leads the next run.
    """
    cols, check = matrix.columns, exactalg.twin_eigenvalue
    leaders = [0]

    def recording(c, s, v):
        lam = check(c, s, v)
        if c is cols:
            assert s == leaders[-1] < v
            if lam is None:
                leaders.append(v)
        return lam

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactalg, "twin_eigenvalue", recording)
        char_poly_factors(matrix)
    bounds = [*leaders, matrix.n]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def dense_calls(matrix):
    """char_poly(matrix), and (block rows, prime) for each `_hessenberg_mod` call it made."""
    calls = []
    engine = exactalg._hessenberg_mod

    def recording(rows, p):
        calls.append(([list(row) for row in rows], p))
        return engine(rows, p)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactalg, "_hessenberg_mod", recording)
        poly = char_poly(matrix)
    return poly, calls


D, DL, DQ = ALL_KINDS


def multipartite_case(sizes, kind):
    """(rows of `kind` for K_sizes in part-major order, its parts as planted runs, None)."""
    rows = matrix_of_kind(distance_matrix(complete_multipartite(sizes)), kind).rows
    bounds = list(accumulate(sizes, initial=0))
    return [list(row) for row in rows], [range(a, b) for a, b in zip(bounds, bounds[1:])], None


@settings(max_examples=300, deadline=None)
@given(planted_twins())
@example(([[5]], [range(1)], None))
@example(([[3, -2], [-2, 3]], [range(2)], None))
@example(([[3, -2], [4, 3]], [range(2)], (1, 0, 6)))
@example(([[0, 1], [1, 2]], [range(2)], (1, 1, 2)))
@example(([[0, 1, 1], [1, 0, 2], [2, 2, 0]], [range(3)], None))
# Leader blocks that are not symmetric and still split: D^L of K_{1,2,3},
# K_{1,1,2,3} and K_{2,2,3} has a leader block of order 3, 3 and 2 whose
# leaders are all twins, so the recursion ends in a block of order 1
@example(multipartite_case((1, 2, 3), DL))
@example(multipartite_case((1, 1, 2, 3), DL))
@example(multipartite_case((2, 2, 3), DL))
def test_char_poly_with_twin_runs_equals_interpolation(case):
    rows, runs, change = case
    matrix = IntMatrix.from_rows(rows)
    got, calls = dense_calls(matrix)
    assert got == char_poly_interpolation(matrix)
    found, _ = reference_twin_runs(rows)
    assert first_runs(matrix) == found
    if change is None and rows == [list(col) for col in zip(*rows)]:
        # in a symmetric matrix twins are an equivalence, so every planted
        # run lies inside one found run
        starts = [run.start for run in found]
        for run in runs:
            assert not any(run.start < s < run.stop for s in starts)
    # the dense engine gets exactly the block left by the checked split,
    # and the split eigenvalues make up the rest of the polynomial
    lams, left = reference_split(rows)
    assert [block for block, _ in calls] == [left]
    assert char_poly_factors(matrix)[0] == Counter(lams)
    expected = char_poly_interpolation(IntMatrix.from_rows(left))
    for lam in lams:
        expected = expected * IntPolynomial.x_minus(lam)
    assert got == expected


@st.composite
def column_pairs(draw):
    """(rows, s, v) with s < v, often with column v close to column s."""
    n = draw(st.integers(2, 6))
    s, v = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
    rows = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        lam = draw(st.integers(-2, 2))
        for u in range(n):
            rows[u][v] = rows[u][s] + lam * ((u == v) - (u == s))
        if draw(st.booleans()):
            rows[draw(st.integers(0, n - 1))][v] += draw(st.integers(-2, 2).filter(bool))
    return rows, s, v


@settings(max_examples=300, deadline=None)
@given(column_pairs())
def test_twin_eigenvalue_is_the_column_check(case):
    rows, s, v = case
    n = len(rows)
    lam = rows[v][v] - rows[v][s]
    holds = all(rows[u][v] - rows[u][s] == lam * ((u == v) - (u == s)) for u in range(n))
    expected = lam if holds else None
    assert twin_eigenvalue(IntMatrix.from_rows(rows).columns, s, v) == expected


def test_a_refused_twin_leads_a_new_run():
    """Index 2 is no twin of leader 0, so it leads a new run; the leader block splits again.

    1 joins 0's run with lambda -1; the leader block [[1, 3], [2, 0]] is not
    symmetric, but its second index is a twin of its first with lambda -2,
    so the dense engine gets [[3]].
    """
    rows = [[0, 1, 1], [1, 0, 2], [2, 2, 0]]
    matrix = IntMatrix.from_rows(rows)
    assert twin_eigenvalue(matrix.columns, 0, 1) == -1
    assert twin_eigenvalue(matrix.columns, 0, 2) is None
    assert first_runs(matrix) == [range(2), range(2, 3)]
    assert char_poly_factors(matrix)[0] == Counter({-1: 1, -2: 1})
    got, calls = dense_calls(matrix)
    assert [block for block, _ in calls] == [[[3]]]
    assert got == char_poly_interpolation(matrix)


@pytest.mark.parametrize("n", range(1, 13))
def test_all_ones_minus_identity_is_one_run(n):
    matrix = IntMatrix.from_rows([[int(i != j) for j in range(n)] for i in range(n)])
    assert first_runs(matrix) == [range(n)]
    expected = IntPolynomial((1, 1)) ** (n - 1) * IntPolynomial.x_minus(n - 1)
    got, calls = dense_calls(matrix)
    assert [block for block, _ in calls] == [[[n - 1]]]
    assert got == expected == char_poly_interpolation(matrix)


def test_no_twins_keeps_the_matrix():
    rows = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
    matrix = IntMatrix.from_rows(rows)
    assert first_runs(matrix) == [range(1), range(1, 2), range(2, 3)]
    got, calls = dense_calls(matrix)
    assert [block for block, _ in calls] == [rows]
    assert got == char_poly_interpolation(matrix)


def expected_runs(partition):
    """The certified blocks, with all singleton parts as one run.

    Two singleton parts are adjacent twins: each is at distance 1 from every
    other vertex, so their columns agree outside their own two rows.
    """
    blocks = [range(c[0], c[-1] + 1) for c in partition.classes if len(c) > 1]
    singles = [c[0] for c in partition.classes if len(c) == 1]
    if singles:
        assert singles == list(range(singles[0], singles[-1] + 1))
        blocks.append(range(singles[0], singles[-1] + 1))
    return blocks


@pytest.mark.parametrize("spec", default_grid() + LARGE_SPECS, ids=lambda s: s.label())
def test_twin_runs_are_the_certified_parts(spec):
    staged = oracle(spec)
    runs = expected_runs(staged.partition)
    # one part size leaves one leader, two sizes leave one leader per size
    orders = {D: len(set(staged.partition.sizes)), DL: 1, DQ: len(set(staged.partition.sizes))}
    for kind in ALL_KINDS:
        matrix = matrix_of_kind(staged.distance, kind)
        # the first pass's runs are the parts: every difference column passes
        # the check, so every part splits
        assert first_runs(matrix) == runs
        # and the recursion ends in one block of order 2, 1 and 2 for D,
        # D^L and D^Q when the parts have two sizes
        _, calls = dense_calls(matrix)
        assert [len(block) for block, _ in calls] == [orders[kind]]


@pytest.mark.parametrize("spec", [GroupSpec.q4n(64), GroupSpec.qd(8)], ids=lambda s: s.label())
def test_char_poly_is_the_multipartite_form_at_order_254(spec):
    staged = oracle(spec)
    assert staged.distance.n == 254
    assert char_poly(staged.distance) == multipartite_distance_charpoly(staged.partition)
