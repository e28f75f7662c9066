"""Non-commuting graphs, complete-multipartite certification, distance matrices.

The distance matrix is always computed by breadth-first search, even though
the graphs at hand provably have diameter 2; this keeps the oracle honest and
family-agnostic.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Sequence

from .exactalg import IntMatrix
from .families import GroupSpec, MatrixKind
from .groups import FiniteGroup, bit_indices, center, enumerate_elements


class AbelianGroupError(ValueError):
    """The non-commuting graph of an abelian group has no vertices."""


class NotCompleteMultipartite(ValueError):
    """The complement of the graph is not a disjoint union of cliques."""


class DisconnectedGraph(ValueError):
    """Some vertex pair has no connecting path."""


class OrderCapExceeded(ValueError):
    """Graph order exceeds the configured verification cap."""


@dataclass(frozen=True)
class NCGraph:
    """A simple undirected graph with labeled vertices and boolean adjacency."""

    vertices: tuple
    adjacency: tuple[tuple[bool, ...], ...]

    @property
    def order(self) -> int:
        return len(self.vertices)

    def permuted(self, order: Sequence[int]) -> "NCGraph":
        """Same graph with vertices re-listed in the given index order."""
        if sorted(order) != list(range(self.order)):
            raise ValueError("order must be a permutation of the vertex indices")
        verts = tuple(self.vertices[i] for i in order)
        adj = tuple(tuple(self.adjacency[i][j] for j in order) for i in order)
        return NCGraph(verts, adj)


@dataclass(frozen=True)
class PartitionStructure:
    """Certified multipartition of a complete multipartite graph.

    `classes` lists vertex-index groups in part-major order (largest part
    first, ties by smallest vertex index); `sizes` are the matching class
    sizes; `parts` is the (size, count) multiset summary.
    """

    parts: tuple[tuple[int, int], ...]
    total: int
    sizes: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]

    def vertex_order(self) -> tuple[int, ...]:
        return tuple(i for cls in self.classes for i in cls)


def non_commuting_graph(group: FiniteGroup) -> NCGraph:
    """Graph on the non-central elements, adjacent iff they do not commute.

    The rows are read from the group's cached commutation masks.
    """
    z = center(group)
    idx = [i for i, e in enumerate(group.elements) if e not in z]
    if not idx:
        raise AbelianGroupError(f"{group.spec.label()} is abelian, no vertices")
    masks = group.commuting_masks
    adj = tuple(tuple(not masks[i] >> j & 1 for j in idx) for i in idx)
    return NCGraph(tuple(group.elements[i] for i in idx), adj)


def complete_multipartite(sizes: Iterable[int]) -> NCGraph:
    """K_{n_1,...,n_k} with integer vertex labels, parts in the given order."""
    sizes = tuple(int(s) for s in sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    part_of = []
    for p, s in enumerate(sizes):
        part_of.extend([p] * s)
    n = len(part_of)
    adj = tuple(
        tuple(i != j and part_of[i] != part_of[j] for j in range(n)) for i in range(n)
    )
    return NCGraph(tuple(range(n)), adj)


def partition_structure(graph: NCGraph) -> PartitionStructure:
    """Certify the graph as complete multipartite and return its parts.

    The parts are the connected components of the complement; the complement
    must be a disjoint union of cliques and every cross-part pair must be
    adjacent, otherwise NotCompleteMultipartite is raised.
    """
    n = graph.order
    adj = graph.adjacency
    seen = [False] * n
    classes = []
    for start in range(n):
        if seen[start]:
            continue
        comp = []
        queue = deque([start])
        seen[start] = True
        while queue:
            u = queue.popleft()
            comp.append(u)
            for v in range(n):
                if not seen[v] and u != v and not adj[u][v]:
                    seen[v] = True
                    queue.append(v)
        comp.sort()
        classes.append(tuple(comp))
    for comp in classes:
        for a in range(len(comp)):
            for b in range(a + 1, len(comp)):
                if adj[comp[a]][comp[b]]:
                    raise NotCompleteMultipartite(
                        f"vertices {comp[a]} and {comp[b]} are adjacent inside a "
                        f"complement component of size {len(comp)}"
                    )
    for ci in range(len(classes)):
        for cj in range(ci + 1, len(classes)):
            for u in classes[ci]:
                for v in classes[cj]:
                    if not adj[u][v]:
                        raise NotCompleteMultipartite(
                            f"cross-part vertices {u} and {v} are not adjacent"
                        )
    classes.sort(key=lambda c: (-len(c), c[0]))
    sizes = tuple(len(c) for c in classes)
    counts = Counter(sizes)
    parts = tuple(sorted(counts.items(), key=lambda sc: -sc[0]))
    return PartitionStructure(parts, n, sizes, tuple(classes))


def part_major(graph: NCGraph) -> tuple[NCGraph, PartitionStructure]:
    """Certify and reorder so parts occupy consecutive index blocks.

    Largest part first; within a part the original vertex order is kept, so
    the result is deterministic for a fixed input graph.  The reordered
    graph's partition has the same parts with each class a consecutive block,
    which is what certifying it again would return.
    """
    partition = partition_structure(graph)
    reordered = graph.permuted(partition.vertex_order())
    blocks, start = [], 0
    for size in partition.sizes:
        blocks.append(tuple(range(start, start + size)))
        start += size
    return reordered, replace(partition, classes=tuple(blocks))


def distance_matrix(graph: NCGraph) -> IntMatrix:
    """All-pairs shortest path lengths by BFS from every vertex.

    The search is level-synchronous over neighbour bitmasks: the next level
    is the union of the frontier's neighbours minus the vertices already seen.
    """
    n = graph.order
    everything = (1 << n) - 1
    neighbors = [
        sum(1 << j for j, adjacent in enumerate(row) if adjacent)
        for row in graph.adjacency
    ]
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


def transmissions(dist: IntMatrix) -> tuple[int, ...]:
    """Row sums of the distance matrix."""
    return tuple(sum(row) for row in dist.rows)


def dl_matrix(dist: IntMatrix) -> IntMatrix:
    """Distance Laplacian: diagonal transmissions minus distances."""
    tr = transmissions(dist)
    rows = tuple(
        tuple((tr[i] if i == j else 0) - dist.rows[i][j] for j in range(dist.n))
        for i in range(dist.n)
    )
    return IntMatrix(rows)


def dq_matrix(dist: IntMatrix) -> IntMatrix:
    """Distance signless Laplacian: diagonal transmissions plus distances."""
    tr = transmissions(dist)
    rows = tuple(
        tuple((tr[i] if i == j else 0) + dist.rows[i][j] for j in range(dist.n))
        for i in range(dist.n)
    )
    return IntMatrix(rows)


def matrix_of_kind(dist: IntMatrix, kind: MatrixKind) -> IntMatrix:
    if kind == MatrixKind.DISTANCE:
        return dist
    if kind == MatrixKind.DISTANCE_LAPLACIAN:
        return dl_matrix(dist)
    return dq_matrix(dist)


class Oracle(NamedTuple):
    """Staged results of the oracle pipeline, up to the matrix."""

    graph: NCGraph
    partition: PartitionStructure
    matrix: IntMatrix


def oracle(spec: GroupSpec, kind: MatrixKind, order_cap: int | None = None) -> Oracle:
    """Group -> order-cap check -> graph -> certified part-major graph -> matrix.

    The cap (None for no cap) is checked on the graph order |G| - |Z(G)|,
    which the O(|G|) centre gives before the O(|G|^2) graph is built.
    """
    group = enumerate_elements(spec)
    order = group.order - len(center(group))
    if order_cap is not None and order > order_cap:
        raise OrderCapExceeded(
            f"{spec.label()} graph order {order} exceeds cap {order_cap}"
        )
    graph, partition = part_major(non_commuting_graph(group))
    return Oracle(graph, partition, matrix_of_kind(distance_matrix(graph), kind))
