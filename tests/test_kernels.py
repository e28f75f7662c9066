"""The C-level distance, Laplacian and mat-vec kernels against the per-entry loops they replaced.

`distance_matrix` wrote each BFS level into its row one vertex at a time,
where it now reads distances 1 and 2 off the neighbour masks;
`matrix_of_kind` built D^L and D^Q entry by entry, and the grouped `mat_vec`
summed one generator per row over v's support.  Those loops are kept here as
references.  `mat_vec` itself has no caller left in the package; it lives
here as the exact M v that the eigenvector tests check against.  The
property and fixed cases are chosen so that each kernel's likely slips show:
a graph of diameter past 2 (refused, not given entries of 3 or more), a
non-symmetric matrix (columns read as rows), repeated vector entries (a value
group cut to one column) and a nonzero diagonal (a dropped self term).
"""

import pickle
import random
from itertools import compress, repeat
from operator import add, itemgetter, mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncgspectra import (
    ALL_KINDS,
    DisconnectedGraph,
    GroupSpec,
    IntMatrix,
    MatrixKind,
    NCGraph,
    default_grid,
    distance_matrix,
    enumerate_elements,
    matrix_of_kind,
    non_commuting_graph,
    part_major,
)
from ncgspectra.groups import bit_indices

from test_commutation import LARGE_SPECS, reference_distance_matrix

SPECS = default_grid() + LARGE_SPECS + [GroupSpec.qd(9)]


def per_vertex_distance_matrix(graph):
    n = graph.order
    everything = (1 << n) - 1
    neighbors = graph.neighbors
    rows = []
    for src in range(n):
        dist = [0] * n
        seen = frontier = 1 << src
        level = 0
        while frontier and seen != everything:
            level += 1
            unseen = everything & ~seen
            reach = 0
            for u in bit_indices(frontier):
                reach |= neighbors[u] & unseen
                if reach == unseen:
                    break
            frontier = reach
            seen |= reach
            for v in bit_indices(reach):
                dist[v] = level
        if seen != everything:
            missing = everything & ~seen
            far = (missing & -missing).bit_length() - 1
            raise DisconnectedGraph(f"vertex {far} unreachable from vertex {src}")
        rows.append(tuple(dist))
    return IntMatrix(tuple(rows))


def per_entry_matrix_of_kind(dist, kind):
    if kind == MatrixKind.DISTANCE:
        return dist
    sign = -1 if kind == MatrixKind.DISTANCE_LAPLACIAN else 1
    return IntMatrix(tuple(
        tuple((tr if i == j else 0) + sign * d for j, d in enumerate(row))
        for i, (row, tr) in enumerate(zip(dist.rows, map(sum, dist.rows)))
    ))


def mat_vec(matrix, v):
    """M v, exactly, from the columns grouped by v's nonzero values.

    The columns selected by each distinct value are summed entrywise, then
    scaled by the value and accumulated, all at C level.
    """
    if len(v) != matrix.n:
        raise ValueError("vector length must equal matrix order")
    by_value = {}
    for j in compress(range(matrix.n), v):
        by_value.setdefault(v[j], []).append(j)
    columns = matrix.columns
    out = (0,) * matrix.n
    for x, js in by_value.items():
        if len(js) == 1:
            summed = columns[js[0]]
        else:
            summed = map(sum, zip(*itemgetter(*js)(columns)))
        out = tuple(map(add, out, map(mul, summed, repeat(x))))
    return out


def per_row_mat_vec(matrix, v):
    if len(v) != matrix.n:
        raise ValueError("vector length must equal matrix order")
    support = [(j, x) for j, x in enumerate(v) if x]
    return tuple(sum(row[j] * x for j, x in support) for row in matrix.rows)


def probe_vectors(partition, n, seed):
    """All-ones, a part indicator, a part difference and repeated random values."""
    rng = random.Random(seed)
    big = partition.classes[0]
    last = partition.classes[-1]
    indicator = [0] * n
    for i in big:
        indicator[i] = 1
    difference = [0] * n
    difference[big[0]] = 1
    difference[last[-1]] = -1
    repeated = [rng.choice((0, 0, 1, -1, 3, -7)) for _ in range(n)]
    return [[1] * n, indicator, difference, repeated, [0] * n]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label())
def test_kernels_equal_per_entry_references(spec):
    graph, partition = part_major(non_commuting_graph(enumerate_elements(spec)))
    dist = distance_matrix(graph)
    assert dist == per_vertex_distance_matrix(graph)
    for kind in ALL_KINDS:
        matrix = matrix_of_kind(dist, kind)
        assert matrix == per_entry_matrix_of_kind(dist, kind)
        for v in probe_vectors(partition, matrix.n, spec.label()):
            assert mat_vec(matrix, v) == per_row_mat_vec(matrix, v)


def path(n):
    rows = [0] * n
    for i in range(n - 1):
        rows[i] |= 1 << (i + 1)
        rows[i + 1] |= 1 << i
    return rows


def cycle(n):
    rows = path(n)
    rows[0] |= 1 << (n - 1)
    rows[n - 1] |= 1
    return rows


@pytest.mark.parametrize(
    "rows, diameter", [(path(300), 299), (cycle(300), 150)], ids=["path_300", "cycle_300"]
)
def test_distances_on_orders_past_one_byte(rows, diameter):
    graph = NCGraph(tuple(range(len(rows))), tuple(rows))
    dist = per_vertex_distance_matrix(graph)
    assert dist == reference_distance_matrix(graph)
    assert max(map(max, dist.rows)) == diameter
    with pytest.raises(
        DisconnectedGraph, match="^vertex 3 is not within distance 2 of vertex 0$"
    ):
        distance_matrix(graph)


@st.composite
def square_matrices(draw, max_n=8):
    """Square integer matrices, made non-symmetric whenever n > 1."""
    n = draw(st.integers(1, max_n))
    rows = draw(st.lists(
        st.lists(st.integers(-50, 50), min_size=n, max_size=n), min_size=n, max_size=n,
    ))
    if n > 1:
        rows[0][n - 1] = rows[n - 1][0] + 1
    return IntMatrix.from_rows(rows)


@st.composite
def matrix_and_vector(draw):
    matrix = draw(square_matrices())
    # a small value pool, so entries repeat, including negatives and zeros
    pool = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=3))
    v = draw(st.lists(st.sampled_from([0] + pool), min_size=matrix.n, max_size=matrix.n))
    return matrix, v


@settings(max_examples=300, deadline=None)
@given(matrix_and_vector())
@example((IntMatrix(((1, 2), (3, 4))), [0, 0]))
@example((IntMatrix(((1, 2), (3, 4))), [0, 5]))
@example((IntMatrix(((1, 2, 3), (4, 5, 6), (7, 8, 10))), [-2, -2, -2]))
@example((IntMatrix(((1, 2, 3), (4, 5, 6), (7, 8, 10))), [3, -1, 3]))
@example((IntMatrix(((7,),)), [-4]))
def test_grouped_mat_vec_equals_dense_product(case):
    matrix, v = case
    assert mat_vec(matrix, v) == tuple(sum(map(mul, row, v)) for row in matrix.rows)


@settings(max_examples=200, deadline=None)
@given(square_matrices(), st.sampled_from(ALL_KINDS))
@example(IntMatrix(((5, 1), (2, -3))), MatrixKind.DISTANCE_LAPLACIAN)
def test_matrix_of_kind_equals_per_entry_on_any_diagonal(matrix, kind):
    assert matrix_of_kind(matrix, kind) == per_entry_matrix_of_kind(matrix, kind)


def test_columns_are_the_transpose_and_not_a_field():
    matrix = IntMatrix(((1, 2), (3, 4)))
    assert matrix.columns == ((1, 3), (2, 4))
    fresh = IntMatrix(((1, 2), (3, 4)))
    assert matrix == fresh and hash(matrix) == hash(fresh)
    assert repr(matrix) == repr(fresh) == "IntMatrix(rows=((1, 2), (3, 4)))"
    restored = pickle.loads(pickle.dumps(matrix))
    assert restored == matrix and restored.columns == matrix.columns
    assert IntMatrix(()).columns == () and mat_vec(IntMatrix(()), ()) == ()
