"""The twin-block similarity inside `char_poly`.

`char_poly` replaces M by T^-1 M T, where T turns each run of consecutive
twin indices into its leader and the differences from it.  The result must
not depend on which runs are found, so it is checked against the
independent `char_poly_interpolation` on matrices with planted runs, with
those runs broken by one changed entry, and on the extreme cases.  The speed
comes from the runs, so on the paper's graphs they are checked against the
certified parts.
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
    char_poly_interpolation,
    default_grid,
    matrix_of_kind,
    multipartite_distance_charpoly,
    oracle,
)
from ncgspectra.exactalg import _twin_runs, _twin_similar

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


@settings(max_examples=300, deadline=None)
@given(planted_twins())
@example(([[5]], [range(1)], None))
@example(([[3, -2], [-2, 3]], [range(2)], None))
@example(([[3, -2], [4, 3]], [range(2)], (1, 0, 6)))
@example(([[0, 1], [1, 2]], [range(2)], (1, 1, 2)))
def test_char_poly_with_twin_runs_equals_interpolation(case):
    rows, runs, change = case
    matrix = IntMatrix.from_rows(rows)
    assert char_poly(matrix) == char_poly_interpolation(matrix)
    found = _twin_runs(matrix)
    assert found == reference_twin_runs(rows)
    if change is None:
        # every planted run lies inside one found run
        starts = [run.start for run in found]
        for run in runs:
            assert not any(run.start < s < run.stop for s in starts)


@pytest.mark.parametrize("n", range(1, 13))
def test_all_ones_minus_identity_is_one_run(n):
    matrix = IntMatrix.from_rows([[int(i != j) for j in range(n)] for i in range(n)])
    assert _twin_runs(matrix) == [range(n)]
    expected = IntPolynomial((1, 1)) ** (n - 1) * IntPolynomial.x_minus(n - 1)
    assert char_poly(matrix) == expected == char_poly_interpolation(matrix)


def test_no_twins_keeps_the_matrix():
    matrix = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert _twin_runs(matrix) == [range(1), range(1, 2), range(2, 3)]
    assert _twin_similar(matrix) is matrix.rows


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
    n = staged.distance.n
    differences = n - len(runs)
    for kind in ALL_KINDS:
        matrix = matrix_of_kind(staged.distance, kind)
        assert _twin_runs(matrix) == runs
        # each difference column of T^-1 M T is a multiple of its own basis
        # vector, so the Hessenberg reduction skips it
        similar = _twin_similar(matrix)
        for j in range(differences):
            assert all(row[j] == 0 for i, row in enumerate(similar) if i != j)


@pytest.mark.parametrize("spec", [GroupSpec.q4n(64), GroupSpec.qd(8)], ids=lambda s: s.label())
def test_char_poly_is_the_multipartite_form_at_order_254(spec):
    staged = oracle(spec)
    assert staged.distance.n == 254
    assert char_poly(staged.distance) == multipartite_distance_charpoly(staged.partition)
