"""The mask form of D, D^L and D^Q against the dense matrices.

`verify` hands `char_poly_factors` each kind's matrix as a `MaskMatrix`:
neighbour masks, a diagonal and two off-diagonal values, read off the graph
with no n x n table.  Its first pass checks twins on the masks and forms the
leader block from popcounts.  So the factors must equal the dense path's on
every oracle instance, at the largest orders the dense path still runs, and
on random graphs of diameter at most 2, where the runs are rare or absent;
the materialized rows must equal `matrix_of_kind(distance_matrix(g), kind)`.
"""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ncgspectra.exactalg as exactalg
import ncgspectra.graphs as graphs
from ncgspectra import (
    ALL_KINDS,
    DisconnectedGraph,
    GroupSpec,
    NCGraph,
    char_poly_factors,
    complete_multipartite,
    default_grid,
    distance_matrix,
    matrix_of_kind,
    oracle,
    verify_instance,
)
from ncgspectra.exactalg import MaskMatrix, twin_eigenvalue
from ncgspectra.graphs import mask_form

from test_commutation import LARGE_SPECS, petersen, random_graphs, relabelled_multipartite
from test_replaced_forms import leader_block_calls, reference_leader_block

D, DL, DQ = ALL_KINDS

C_5 = NCGraph(tuple(range(5)), (0b10010, 0b00101, 0b01010, 0b10100, 0b01001))
P_4 = NCGraph((0, 1, 2, 3), (0b0010, 0b0101, 0b1010, 0b0100))


def assert_form_equals_dense(graph, kind):
    """The form against the dense matrix, and its leader block against the
    `str.count` copy on the first pass's runs and on singleton runs."""
    form = mask_form(graph, kind)
    dense = matrix_of_kind(distance_matrix(graph), kind)
    assert form.dense() == dense
    factors, calls = leader_block_calls(form)
    assert factors == char_poly_factors(dense)
    for bounds in [bounds for bounds, _ in calls] + [list(range(form.n + 1))]:
        assert form.leader_block(bounds) == reference_leader_block(form, bounds)
    return form, dense


@pytest.mark.parametrize("spec", default_grid() + LARGE_SPECS, ids=lambda s: s.label())
def test_mask_form_factors_equal_the_dense_ones(spec):
    staged = oracle(spec)
    for kind in ALL_KINDS:
        form = staged.matrix(kind)
        dense = matrix_of_kind(staged.distance, kind)
        assert form.dense() == dense
        assert char_poly_factors(form) == char_poly_factors(dense)


@pytest.mark.parametrize(
    "spec, kinds",
    [(GroupSpec.q4n(1024), (DL,)), (GroupSpec.qd(11), ALL_KINDS)],
    ids=["Q_4096-dl", "QD_2048"],
)
def test_mask_form_factors_equal_the_dense_ones_up_to_order_4094(spec, kinds):
    staged = oracle(spec, 4100)
    for kind in kinds:
        expected = char_poly_factors(matrix_of_kind(staged.distance, kind))
        assert char_poly_factors(staged.matrix(kind)) == expected


@st.composite
def diameter_2_graphs(draw):
    """A random graph closed to diameter at most 2, its vertices blown up into twins.

    Each non-adjacent pair with no common neighbour gets an edge.  Then each
    vertex may become up to three consecutive copies, adjacent to one
    another or not, each with the vertex's neighbours' copies.
    """
    base = draw(random_graphs())
    rows = list(base.neighbors)
    for u in range(base.order):
        for v in range(u + 1, base.order):
            if not (rows[u] >> v & 1 or rows[u] & rows[v]):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    copies = [draw(st.integers(1, 3)) for _ in rows]
    clique = [draw(st.booleans()) for _ in rows]
    first = [sum(copies[:u]) for u in range(len(rows))]
    owner = [u for u, c in enumerate(copies) for _ in range(c)]
    n = len(owner)
    blown = []
    for i, u in enumerate(owner):
        mask = sum(
            ((1 << copies[w]) - 1) << first[w] for w in range(len(rows)) if rows[u] >> w & 1
        )
        if clique[u]:
            mask |= ((1 << copies[u]) - 1) << first[u] & ~(1 << i)
        blown.append(mask)
    graph = NCGraph(tuple(range(n)), tuple(blown))
    try:
        graphs._check_diameter_2(graph)
    except DisconnectedGraph:
        assume(False)
    return graph


@settings(max_examples=200, deadline=None)
@given(st.one_of(diameter_2_graphs(), relabelled_multipartite()))
# C_5 has no twin, so its form is materialized and goes dense; so has the
# Petersen graph's
@example(C_5)
@example(petersen())
# K_{1,1,3}: the two singleton parts are one run of adjacent twins
@example(complete_multipartite((1, 1, 3)))
@example(NCGraph((0,), (0,)))
def test_mask_form_equals_dense_on_diameter_2_graphs(graph):
    try:
        graphs._check_diameter_2(graph)
    except DisconnectedGraph:
        assume(False)
    for kind in ALL_KINDS:
        form, dense = assert_form_equals_dense(graph, kind)
        cols = dense.columns
        for s in range(graph.order):
            for v in range(s + 1, graph.order):
                assert form.twin_eigenvalue(s, v) == twin_eigenvalue(cols, s, v)


def test_a_form_with_no_twin_goes_dense(monkeypatch):
    calls = []
    materialize = MaskMatrix.dense

    def recording(form):
        calls.append(form.n)
        return materialize(form)

    monkeypatch.setattr(MaskMatrix, "dense", recording)
    for kind in ALL_KINDS:
        roots, block = char_poly_factors(mask_form(C_5, kind))
        assert not roots and block.degree == 5
    assert calls == [5, 5, 5]
    # K_{1,1,3} splits on the masks and is never materialized
    roots, block = char_poly_factors(mask_form(complete_multipartite((1, 1, 3)), D))
    assert roots == {-1: 1, -2: 2} and block.degree == 2
    assert calls == [5, 5, 5]


def test_a_set_diagonal_bit_is_ignored():
    # vertex 0's mask has its own bit: neither the diagonal nor a popcount sees it
    graph = NCGraph((0, 1, 2), (0b111, 0b001, 0b001))
    for kind in ALL_KINDS:
        assert_form_equals_dense(graph, kind)


def test_the_leader_block_reads_the_sparser_of_mask_and_complement(monkeypatch):
    # K_{1,4}: the centre's mask has four bits and its complement none, so the
    # complement is read; each leaf's has one bit and its complement three
    star = complete_multipartite((1, 4))
    read = []
    bits = exactalg.bit_indices
    monkeypatch.setattr(exactalg, "bit_indices", lambda mask: read.append(mask) or bits(mask))
    bounds = list(range(6))
    for kind in ALL_KINDS:
        read.clear()
        form = mask_form(star, kind)
        assert form.leader_block(bounds) == reference_leader_block(form, bounds)
        assert read == [0, 1, 1, 1, 1]


def test_oracle_refuses_a_diameter_3_graph_as_before(monkeypatch):
    # the oracle's part-major layout is replaced by P_4, which its own
    # diameter check must then refuse
    monkeypatch.setattr(graphs, "_part_major_layout", lambda vertices, classes: (P_4, None))
    message = "^vertex 3 is not within distance 2 of vertex 0$"
    with pytest.raises(DisconnectedGraph, match=message):
        oracle(GroupSpec.q4n(2))
    with pytest.raises(DisconnectedGraph, match=message):
        distance_matrix(P_4)


def test_verify_builds_no_dense_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("a dense n x n table was built")

    for name in ("distance_matrix", "matrix_of_kind"):
        monkeypatch.setattr(graphs, name, refuse)
    monkeypatch.setattr(MaskMatrix, "dense", refuse)
    transposed = []
    columns = exactalg.IntMatrix.columns.func

    def recording(matrix):
        transposed.append(matrix.n)
        return columns(matrix)

    monkeypatch.setattr(exactalg.IntMatrix, "columns", property(recording))
    spec = GroupSpec.q4n(8)  # graph order 30, parts of sizes 14 and 2
    for kind in ALL_KINDS:
        assert verify_instance(spec, kind).matched
    # only leader blocks, one row per part, are ever transposed
    assert transposed and max(transposed) <= 9
    monkeypatch.undo()
    staged = oracle(spec)
    assert "distance" not in staged.__dict__
    assert staged.distance is staged.distance == distance_matrix(staged.graph)
