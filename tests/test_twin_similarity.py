"""The checked twin split inside `char_poly`.

`char_poly` splits off the eigenvalue of each difference e_v - e_s within a
run of consecutive twin indices, once the column check proves it, and
recurses on the leader block.  The result must not depend on which runs are
found, so it is checked against the independent `char_poly_interpolation`
on matrices with planted runs, with those runs broken by one changed entry,
and on the extreme cases; the block that reaches the dense engine is checked
against a split done entry by entry.  The speed comes from the runs, so on
the paper's graphs they are checked against the certified parts, and the
recursion must end in a block of order at most 2.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncgspectra import (
    ALL_KINDS,
    GroupSpec,
    IntMatrix,
    IntPolynomial,
    char_poly,
    default_grid,
    matrix_of_kind,
    multipartite_distance_charpoly,
    oracle,
)
import ncgspectra.exactalg as exactalg
from ncgspectra.exactalg import _twin_runs, twin_eigenvalue

from charpoly_reference import char_poly_interpolation
from test_commutation import LARGE_SPECS

ENTRY = st.integers(-6, 6)


@st.composite
def planted_twins(draw):
    """(rows, planted runs, changed entry or None).

    Entries between two runs depend only on the row and on the column's run,
    so each run's columns agree outside it; a run has one diagonal value and
    one off-diagonal value.  A symmetric matrix also has constant blocks
    between runs.
    """
    n = draw(st.integers(1, 9))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    runs = [range(a, b) for a, b in zip([0, *cuts], [*cuts, n])]
    run_of = [r for r, run in enumerate(runs) for _ in run]
    k = len(runs)
    inside = [(draw(ENTRY), draw(ENTRY)) for _ in runs]
    if draw(st.booleans()):
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
    return rows, runs, change


def reference_twin_runs(rows):
    """The twin runs by the definition, entry by entry."""
    n = len(rows)
    runs, start = [], 0
    for i in range(n - 1):
        twins = (
            all(rows[u][i] == rows[u][i + 1] for u in range(n) if u not in (i, i + 1))
            and rows[i][i] == rows[i + 1][i + 1]
            and rows[i][i + 1] == rows[i + 1][i]
        )
        if not twins:
            runs.append(range(start, i + 1))
            start = i + 1
    return runs + [range(start, n)]


def reference_split(rows):
    """(eigenvalues split off, leader block left) by the definition, entry by entry.

    Within each run of `reference_twin_runs`, column v minus column s must
    be lambda (e_v - e_s) in every entry; then the leader block sums each
    run's rows over the leader columns, and the step repeats on it.
    """
    lams = []
    while len(runs := reference_twin_runs(rows)) < len(rows):
        n = len(rows)
        level = []
        for run in runs:
            s = run[0]
            for v in run[1:]:
                lam = rows[v][v] - rows[v][s]
                if any(rows[u][v] - rows[u][s] != lam * ((u == v) - (u == s)) for u in range(n)):
                    return lams, rows
                level.append(lam)
        lams += level
        rows = [[sum(rows[u][c[0]] for u in r) for c in runs] for r in runs]
    return lams, rows


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


@settings(max_examples=300, deadline=None)
@given(planted_twins())
@example(([[5]], [range(1)], None))
@example(([[3, -2], [-2, 3]], [range(2)], None))
@example(([[3, -2], [4, 3]], [range(2)], (1, 0, 6)))
@example(([[0, 1], [1, 2]], [range(2)], (1, 1, 2)))
@example(([[0, 1, 1], [1, 0, 2], [2, 2, 0]], [range(3)], None))
def test_char_poly_with_twin_runs_equals_interpolation(case):
    rows, runs, change = case
    matrix = IntMatrix.from_rows(rows)
    got, calls = dense_calls(matrix)
    assert got == char_poly_interpolation(matrix)
    found = _twin_runs(matrix)
    assert found == reference_twin_runs(rows)
    if change is None:
        # every planted run lies inside one found run
        starts = [run.start for run in found]
        for run in runs:
            assert not any(run.start < s < run.stop for s in starts)
    # the dense engine gets exactly the block left by the checked split,
    # and the split eigenvalues make up the rest of the polynomial
    lams, left = reference_split(rows)
    assert [block for block, _ in calls] == [left]
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


def test_refused_split_keeps_the_matrix():
    """One run whose lambda changes along it: a non-symmetric block splits nothing."""
    rows = [[0, 1, 1], [1, 0, 2], [2, 2, 0]]
    matrix = IntMatrix.from_rows(rows)
    assert _twin_runs(matrix) == [range(3)]
    assert twin_eigenvalue(matrix.columns, 0, 1) == -1
    assert twin_eigenvalue(matrix.columns, 0, 2) is None
    got, calls = dense_calls(matrix)
    assert [block for block, _ in calls] == [rows]
    assert got == char_poly_interpolation(matrix)


@pytest.mark.parametrize("n", range(1, 13))
def test_all_ones_minus_identity_is_one_run(n):
    matrix = IntMatrix.from_rows([[int(i != j) for j in range(n)] for i in range(n)])
    assert _twin_runs(matrix) == [range(n)]
    expected = IntPolynomial((1, 1)) ** (n - 1) * IntPolynomial.x_minus(n - 1)
    assert char_poly(matrix) == expected == char_poly_interpolation(matrix)


def test_no_twins_keeps_the_matrix():
    rows = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
    matrix = IntMatrix.from_rows(rows)
    assert _twin_runs(matrix) == [range(1), range(1, 2), range(2, 3)]
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
    for kind in ALL_KINDS:
        matrix = matrix_of_kind(staged.distance, kind)
        assert _twin_runs(matrix) == runs
        # every difference column passes the check, so every part splits
        cols = matrix.columns
        assert all(
            twin_eigenvalue(cols, run.start, v) is not None for run in runs for v in run[1:]
        )
        # and the recursion ends in one block of order at most 2
        _, calls = dense_calls(matrix)
        assert len(calls) == 1 and len(calls[0][0]) <= 2


@pytest.mark.parametrize("spec", [GroupSpec.q4n(64), GroupSpec.qd(8)], ids=lambda s: s.label())
def test_char_poly_is_the_multipartite_form_at_order_254(spec):
    staged = oracle(spec)
    assert staged.distance.n == 254
    assert char_poly(staged.distance) == multipartite_distance_charpoly(staged.partition)
