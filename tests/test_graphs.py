from collections import Counter

import pytest
from test_commutation import RegularGroup

from ncgspectra import (
    AbelianGroupError,
    DisconnectedGraph,
    FiniteGroup,
    GroupElement,
    GroupSpec,
    IntMatrix,
    MatrixKind,
    NCGraph,
    NotCompleteMultipartite,
    OrderCapExceeded,
    center,
    claimed_partition_sizes,
    complete_multipartite,
    default_grid,
    distance_matrix,
    enumerate_elements,
    matrix_of_kind,
    non_commuting_graph,
    oracle,
    part_major,
    partition_structure,
)
from ncgspectra.families import Presentation

K2 = complete_multipartite([1, 1])
DL = MatrixKind.DISTANCE_LAPLACIAN
DQ = MatrixKind.DISTANCE_SIGNLESS_LAPLACIAN


def graph_of(spec):
    return non_commuting_graph(enumerate_elements(spec))


def test_vertex_counts():
    assert graph_of(GroupSpec.q4n(2)).order == 6
    assert graph_of(GroupSpec.qd(4)).order == 14
    assert graph_of(GroupSpec.u6n(1)).order == 5


def test_adjacency_is_noncommuting_and_symmetric():
    g = enumerate_elements(GroupSpec.u6n(2))
    graph = non_commuting_graph(g)
    rows = graph.neighbors
    for i, u in enumerate(graph.vertices):
        assert not rows[i] >> i & 1
        assert rows[i] >> graph.order == 0
        for j, v in enumerate(graph.vertices):
            assert rows[i] >> j & 1 == rows[j] >> i & 1
            assert bool(rows[i] >> j & 1) == (i != j and g.mult(u, v) != g.mult(v, u))


def test_abelian_group_rejected():
    def cyclic_mult(x, y):
        return GroupElement((x.a_exp + y.a_exp) % 5, 0)

    # Z_5 through the regular-representation reference, and as a presentation
    cyclic = RegularGroup(
        GroupSpec.u6n(1), tuple(GroupElement(i, 0) for i in range(5)), cyclic_mult
    )
    presented = FiniteGroup(GroupSpec.u6n(1), Presentation(5, 1, 0, 1))
    assert presented.elements == cyclic.elements
    for group in (cyclic, presented):
        with pytest.raises(AbelianGroupError, match="^U_6 is abelian, no vertices$"):
            non_commuting_graph(group)


@pytest.mark.parametrize(
    "spec,parts",
    [
        (GroupSpec.q4n(2), ((2, 3),)),
        (GroupSpec.qd(4), ((6, 1), (2, 4))),
        (GroupSpec.u6n(2), ((4, 1), (2, 3))),
        (GroupSpec.u6n(1), ((2, 1), (1, 3))),
        (GroupSpec.metacyclic(5, 1), ((4, 1), (1, 5))),
        (GroupSpec.metacyclic(6, 1), ((4, 1), (2, 3))),
        (GroupSpec.metacyclic(4, 2), ((4, 3),)),
    ],
    ids=lambda v: v.label() if isinstance(v, GroupSpec) else str(v),
)
def test_partition_shapes(spec, parts):
    partition = partition_structure(graph_of(spec))
    counts = Counter(partition.sizes)
    assert tuple(sorted(counts.items(), key=lambda sc: -sc[0])) == parts
    assert sum(partition.sizes) == sum(s * c for s, c in parts)
    assert partition.sizes == claimed_partition_sizes(spec)


def test_partition_classes_cover_and_match_sizes():
    partition = partition_structure(graph_of(GroupSpec.q4n(3)))
    seen = sorted(i for cls in partition.classes for i in cls)
    assert seen == list(range(sum(partition.sizes)))
    assert tuple(len(c) for c in partition.classes) == partition.sizes


def test_partition_reconstruction_reproduces_adjacency():
    # part-major index a is input vertex order[a]; every bit of every
    # reordered row must be the input graph's bit for that pair
    for spec in default_grid():
        graph = graph_of(spec)
        reordered, _ = part_major(graph)
        order = [v for cls in partition_structure(graph).classes for v in cls]
        assert reordered.vertices == tuple(graph.vertices[v] for v in order)
        for a, row in enumerate(reordered.neighbors):
            source = graph.neighbors[order[a]]
            assert [row >> b & 1 for b in range(len(order))] == [
                source >> v & 1 for v in order
            ]


def test_not_complete_multipartite_rejected():
    # path on four vertices: its complement is connected but not a clique
    neighbors = (0b0010, 0b0101, 0b1010, 0b0100)
    with pytest.raises(NotCompleteMultipartite):
        partition_structure(NCGraph((0, 1, 2, 3), neighbors))


def test_part_major_blocks_are_contiguous():
    reordered, partition = part_major(graph_of(GroupSpec.qd(4)))
    assert partition.sizes == (6, 2, 2, 2, 2)
    start = 0
    for cls in partition.classes:
        assert cls == tuple(range(start, start + len(cls)))
        start += len(cls)
    # big part first means the first six vertices are the cyclic-generator powers
    assert all(v.b_exp == 0 for v in reordered.vertices[:6])


def test_part_major_partition_equals_recertified_graph():
    # part_major builds the reordered partition directly; certifying the
    # reordered graph again must give exactly the same structure
    for spec in default_grid():
        reordered, partition = part_major(graph_of(spec))
        assert partition == partition_structure(reordered)


def test_distance_matrix_k2():
    assert distance_matrix(K2) == IntMatrix(((0, 1), (1, 0)))


def test_distance_entries_and_diameter():
    for spec in [GroupSpec.q4n(2), GroupSpec.u6n(2), GroupSpec.metacyclic(6, 1)]:
        graph, partition = part_major(graph_of(spec))
        dist = distance_matrix(graph)
        part_of = {}
        for p, cls in enumerate(partition.classes):
            for i in cls:
                part_of[i] = p
        for i in range(dist.n):
            for j in range(dist.n):
                if i == j:
                    assert dist.rows[i][j] == 0
                elif part_of[i] == part_of[j]:
                    assert dist.rows[i][j] == 2
                else:
                    assert dist.rows[i][j] == 1


def test_disconnected_graph_rejected():
    with pytest.raises(DisconnectedGraph):
        distance_matrix(complete_multipartite([3]))


def transmissions(dist):
    """The diagonal of D^L, which is the row sums of D as D has a zero diagonal."""
    dl = matrix_of_kind(dist, DL)
    return tuple(dl.rows[i][i] for i in range(dl.n))


def test_transmissions():
    d = distance_matrix(part_major(graph_of(GroupSpec.q4n(2)))[0])
    assert transmissions(d) == (6,) * 6
    assert transmissions(distance_matrix(K2)) == (1, 1)
    d = distance_matrix(part_major(graph_of(GroupSpec.u6n(1)))[0])
    assert transmissions(d) == (5, 5, 4, 4, 4)


def test_dl_dq_matrices():
    assert matrix_of_kind(distance_matrix(K2), DL) == IntMatrix(((1, -1), (-1, 1)))
    d = distance_matrix(part_major(graph_of(GroupSpec.q4n(2)))[0])
    dl = matrix_of_kind(d, DL)
    assert all(sum(row) == 0 for row in dl.rows)
    assert dl == IntMatrix(
        tuple(
            tuple((6 if i == j else 0) - d.rows[i][j] for j in range(6))
            for i in range(6)
        )
    )
    dq = matrix_of_kind(d, DQ)
    assert dq.trace() == 36
    assert all(
        dq.rows[i][j] - dl.rows[i][j] == 2 * d.rows[i][j]
        for i in range(6)
        for j in range(6)
    )


def test_dl_rows_sum_to_zero_across_families():
    for spec in [GroupSpec.qd(4), GroupSpec.u6n(3), GroupSpec.metacyclic(7, 1)]:
        d = distance_matrix(part_major(graph_of(spec))[0])
        assert all(sum(row) == 0 for row in matrix_of_kind(d, DL).rows)


def test_oracle_checks_order_cap_on_the_graph():
    spec = GroupSpec.q4n(3)  # graph order 10
    with pytest.raises(OrderCapExceeded, match="Q_12 graph order 10 exceeds cap 9"):
        oracle(spec, order_cap=9)
    staged = oracle(spec, order_cap=10)
    assert staged.graph.order == staged.distance.n == 10
    assert staged.partition.sizes == claimed_partition_sizes(spec)
    assert staged.distance == distance_matrix(staged.graph)
    assert oracle(spec) == staged


def test_oracle_refuses_over_cap_before_building_the_graph(monkeypatch):
    import ncgspectra.graphs as graphs
    from ncgspectra import verify_instance

    def unreachable(group):
        raise AssertionError("graph built for an over-cap instance")

    monkeypatch.setattr(graphs, "non_commuting_graph", unreachable)
    with pytest.raises(
        OrderCapExceeded, match=r"^QD_2048 graph order at least 3\|G\|/4 exceeds cap 150$"
    ):
        verify_instance(GroupSpec.qd(11), MatrixKind.DISTANCE)
    with pytest.raises(OrderCapExceeded, match="^QD_256 graph order 254 exceeds cap 150$"):
        verify_instance(GroupSpec.qd(8), MatrixKind.DISTANCE)
    with pytest.raises(OrderCapExceeded, match="^Q_12 graph order 10 exceeds cap 9$"):
        oracle(GroupSpec.q4n(3), order_cap=9)


def test_oracle_refuses_over_cap_without_the_masks(monkeypatch):
    # between cap and 4 * cap the refusal reads the centre alone
    def unreachable(group):
        raise AssertionError("commutation masks built for an over-cap instance")

    monkeypatch.setattr(FiniteGroup, "commuting_masks", property(unreachable))
    with pytest.raises(OrderCapExceeded, match="^QD_256 graph order 254 exceeds cap 100$"):
        oracle(GroupSpec.qd(8), order_cap=100)
    with pytest.raises(OrderCapExceeded, match="^U_600 graph order 500 exceeds cap 499$"):
        oracle(GroupSpec.u6n(100), order_cap=499)


def test_oracle_refuses_far_over_cap_before_enumerating(monkeypatch):
    import ncgspectra.graphs as graphs
    from ncgspectra import verify_instance

    def unreachable(spec):
        raise AssertionError("group enumerated for a far over-cap instance")

    monkeypatch.setattr(graphs, "enumerate_elements", unreachable)
    with pytest.raises(
        OrderCapExceeded,
        match=r"^QD_1099511627776 graph order at least 3\|G\|/4 exceeds cap 150$",
    ):
        verify_instance(GroupSpec.qd(40), MatrixKind.DISTANCE)


@pytest.mark.parametrize("spec", default_grid(), ids=lambda s: s.label())
def test_centre_is_at_most_a_quarter_of_the_group(spec):
    # the bound behind refusing from spec.order: G/Z(G) is never cyclic here
    group = enumerate_elements(spec)
    assert 4 * len(center(group)) <= group.order == spec.order
