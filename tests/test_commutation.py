"""The commutation-mask paths against the brute-force implementations they replaced.

The references below multiply pair by pair: the centre by a full scan, the CA
check by testing every pair of every centralizer, the graph by comparing both
products of every ordered pair, and the distances by a deque BFS.
"""

import itertools
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncgspectra import (
    DisconnectedGraph,
    FiniteGroup,
    GroupElement,
    GroupSpec,
    IntMatrix,
    NCGraph,
    center,
    centralizer,
    default_grid,
    distance_matrix,
    enumerate_elements,
    is_ca_group,
    non_commuting_graph,
)

# The groups of the structure-large benchmark workload: just beyond the
# default verify cap, graph orders 254, 158, 155, 153 and 154.
LARGE_SPECS = [
    GroupSpec.qd(8),
    GroupSpec.q4n(40),
    GroupSpec.u6n(31),
    GroupSpec.metacyclic(9, 9),
    GroupSpec.metacyclic(12, 7),
]


def reference_center(group):
    mult = group.mult
    return {
        x
        for x in group.elements
        if all(mult(x, g) == mult(g, x) for g in group.elements)
    }


def reference_centralizer(group, x):
    mult = group.mult
    return {g for g in group.elements if mult(x, g) == mult(g, x)}


def _is_abelian_subset(group, subset):
    mult = group.mult
    elems = sorted(subset)
    for i, x in enumerate(elems):
        for y in elems[i + 1 :]:
            if mult(x, y) != mult(y, x):
                return False
    return True


def reference_is_ca_group(group):
    z = reference_center(group)
    return all(
        _is_abelian_subset(group, reference_centralizer(group, x))
        for x in group.elements
        if x not in z
    )


def reference_graph(group):
    z = reference_center(group)
    verts = tuple(e for e in group.elements if e not in z)
    mult = group.mult
    adj = tuple(
        tuple(u != v and mult(u, v) != mult(v, u) for v in verts) for u in verts
    )
    return NCGraph(verts, adj)


def reference_distance_matrix(graph):
    n = graph.order
    neighbors = [[j for j in range(n) if graph.adjacency[i][j]] for i in range(n)]
    rows = []
    for src in range(n):
        dist = [-1] * n
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in neighbors[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if any(d < 0 for d in dist):
            far = dist.index(-1)
            raise DisconnectedGraph(f"vertex {far} unreachable from vertex {src}")
        rows.append(tuple(dist))
    return IntMatrix(tuple(rows))


@pytest.mark.parametrize(
    "spec", default_grid() + LARGE_SPECS, ids=lambda s: s.label()
)
def test_mask_paths_equal_references(spec):
    group = enumerate_elements(spec)
    assert center(group) == reference_center(group)
    for x in group.elements:
        assert centralizer(group, x) == reference_centralizer(group, x)
    assert is_ca_group(group) == reference_is_ca_group(group)
    graph = non_commuting_graph(group)
    assert graph == reference_graph(group)
    assert distance_matrix(graph) == reference_distance_matrix(graph)


@pytest.mark.parametrize(
    "spec",
    [s for s in default_grid() if s.order <= 60],
    ids=lambda s: s.label(),
)
def test_masks_symmetric_and_match_mult(spec):
    group = enumerate_elements(spec)
    masks = group.commuting_masks
    assert len(masks) == group.order
    for (i, x), (j, y) in itertools.product(enumerate(group.elements), repeat=2):
        bit = masks[i] >> j & 1
        assert bit == masks[j] >> i & 1
        assert bit == (group.mult(x, y) == group.mult(y, x))
    assert all(m >> group.order == 0 for m in masks)


def test_non_ca_group_detected():
    # S_4 is not a CA group: (01)(23) is not central and its centralizer is
    # a dihedral group of order 8.
    perms = sorted(itertools.permutations(range(4)))
    index = {p: i for i, p in enumerate(perms)}

    def mult(x, y):
        p, q = perms[x.a_exp], perms[y.a_exp]
        return GroupElement(index[tuple(p[q[k]] for k in range(4))], 0)

    elems = tuple(GroupElement(i, 0) for i in range(len(perms)))
    s4 = FiniteGroup(GroupSpec.u6n(4), elems, mult)
    assert not is_ca_group(s4)
    assert not reference_is_ca_group(s4)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=4 * n,
        )
    )
    if draw(st.booleans()):
        # a Hamiltonian path through a random vertex order keeps half the
        # draws connected
        order = draw(st.permutations(range(n)))
        edges += list(zip(order, order[1:]))
    adj = [[False] * n for _ in range(n)]
    for u, v in edges:
        if u != v:
            adj[u][v] = adj[v][u] = True
    return NCGraph(tuple(range(n)), tuple(tuple(row) for row in adj))


def _outcome(bfs, graph):
    try:
        return bfs(graph)
    except DisconnectedGraph as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(random_graphs())
@example(NCGraph((0, 1, 2), ((False, True, False), (True, False, False), (False,) * 3)))
def test_bitset_bfs_equals_deque_bfs(graph):
    assert _outcome(distance_matrix, graph) == _outcome(
        reference_distance_matrix, graph
    )


def test_disconnected_message_names_lowest_unreachable_vertex():
    adj = (
        (False, True, False, True, False),
        (True, False, False, False, False),
        (False, False, False, False, True),
        (True, False, False, False, False),
        (False, False, True, False, False),
    )
    with pytest.raises(DisconnectedGraph, match="^vertex 2 unreachable from vertex 0$"):
        distance_matrix(NCGraph(tuple(range(5)), adj))
