"""Non-commuting graphs, complete-multipartite certification, distance matrices.

A graph is one neighbour bitmask per vertex: the group's commutation masks,
re-indexed once onto the non-central elements.  It is complete multipartite iff
"equal or non-adjacent" is an equivalence relation, which certification checks
on the masks; the part-major graph is then built from the certified part sizes.

The distance matrix is always computed by breadth-first search, even though
the graphs at hand provably have diameter 2; this keeps the oracle honest and
family-agnostic.  The search runs once per distinct neighbourhood, from its
first vertex s; a later vertex v with N(v) = N(s) is a twin, found by mask
equality, and its row is row s with entries s and v transposed, since
d(v, x) = d(s, x) for every other x.  Each source's BFS levels are collected as
bit-planes (plane k holds the vertices whose distance has bit k set), and the
row is unpacked from the planes at C level, so no distance is written one
vertex at a time.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from itertools import accumulate
from operator import itemgetter, neg
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
    """Graph order exceeds the configured verification cap.

    `order` is the graph order refused, or None when the group was refused
    from its parameters, unenumerated, so its graph order was never computed.
    """

    def __init__(self, message: str, order: int | None = None) -> None:
        super().__init__(message)
        self.order = order


def select_bits(masks: Iterable[int], indices: Sequence[int]) -> tuple[int, ...]:
    """Re-index bitmasks: bit k of each result is bit indices[k] of its mask.

    The bits are picked at C level from each mask's binary string, read least
    significant bit first and written back most significant first.
    """
    if not indices:
        return tuple(0 for _ in masks)
    fmt = f"0{max(indices) + 1}b"
    pick = itemgetter(*reversed(indices))
    return tuple(int("".join(pick(format(m, fmt)[::-1])), 2) for m in masks)


@dataclass(frozen=True)
class NCGraph:
    """A simple undirected graph: bit j of `neighbors[i]` is set iff i ~ j."""

    vertices: tuple
    neighbors: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class PartitionStructure:
    """Certified multipartition of a complete multipartite graph.

    `classes` lists vertex-index groups in part-major order (largest part
    first, ties by smallest vertex index); `sizes` are the matching class
    sizes, so the graph order is their sum.
    """

    sizes: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]


def non_commuting_graph(group: FiniteGroup) -> NCGraph:
    """Graph on the non-central elements, adjacent iff they do not commute.

    An element is central iff its commutation mask is all ones; the rows are
    the complemented masks re-indexed onto the non-central elements, each
    distinct mask once, so vertices with equal masks share one row.
    """
    masks = group.commuting_masks
    everything = (1 << group.order) - 1
    idx = [i for i, mask in enumerate(masks) if mask != everything]
    if not idx:
        raise AbelianGroupError(f"{group.spec.label()} is abelian, no vertices")
    full = (1 << len(idx)) - 1
    distinct = list(dict.fromkeys(masks[i] for i in idx))
    row_of = dict(zip(distinct, (full & ~r for r in select_bits(distinct, idx))))
    rows = tuple(row_of[masks[i]] for i in idx)
    return NCGraph(tuple(group.elements[i] for i in idx), rows)


def complete_multipartite(sizes: Iterable[int]) -> NCGraph:
    """K_{n_1,...,n_k} with integer vertex labels, parts in the given order."""
    sizes = tuple(int(s) for s in sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    n = sum(sizes)
    everything = (1 << n) - 1
    neighbors, start = [], 0
    for s in sizes:
        neighbors += [everything & ~(((1 << s) - 1) << start)] * s
        start += s
    return NCGraph(tuple(range(n)), tuple(neighbors))


def partition_structure(graph: NCGraph) -> PartitionStructure:
    """Certify the graph as complete multipartite and return its parts.

    Vertices are grouped by closed non-neighbourhood (itself and every vertex
    not adjacent to it); the groups are the parts iff each one's members equal
    its key.  Otherwise NotCompleteMultipartite names two witness vertices.
    """
    n = graph.order
    everything = (1 << n) - 1
    members: dict[int, int] = {}
    for u, row in enumerate(graph.neighbors):
        key = everything & ~row | 1 << u
        members[key] = members.get(key, 0) | 1 << u
    for key, group in members.items():
        if group != key:
            u, v = next(bit_indices(group)), next(bit_indices(key & ~group))
            raise NotCompleteMultipartite(
                f"vertices {u} and {v} are not adjacent but have different "
                "non-neighbourhoods"
            )
    classes = sorted(
        (tuple(bit_indices(group)) for group in members.values()),
        key=lambda c: (-len(c), c[0]),
    )
    return PartitionStructure(tuple(len(c) for c in classes), tuple(classes))


def part_major(graph: NCGraph) -> tuple[NCGraph, PartitionStructure]:
    """Certify, then list the vertices part by part as consecutive index blocks.

    Largest part first; within a part the original vertex order is kept.  The
    certificate proves each vertex adjacent to exactly the vertices outside its
    part, so the rows are `complete_multipartite(sizes)`'s (the diagonal ignored).
    """
    partition = partition_structure(graph)
    sizes = partition.sizes
    verts = tuple(graph.vertices[i] for cls in partition.classes for i in cls)
    blocks = tuple(tuple(range(e - s, e)) for s, e in zip(sizes, accumulate(sizes)))
    reordered = NCGraph(verts, complete_multipartite(sizes).neighbors)
    return reordered, replace(partition, classes=blocks)


# '0'/'1' characters to the byte values 0/1: one binary digit per byte field.
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def distance_matrix(graph: NCGraph) -> IntMatrix:
    """All-pairs shortest path lengths by BFS, once per distinct neighbourhood.

    A vertex v whose neighbour mask equals that of an earlier vertex s takes
    row s with entries s and v transposed: every shortest path from v or s
    to another vertex x starts with a step into N(v) = N(s), so
    d(v, x) = d(s, x).  Adjacent vertices with equal closed neighbourhoods
    have unequal masks and get a BFS each.  Vertex 0 always gets its own
    search, so a disconnected graph raises DisconnectedGraph from it.  The
    search is level-synchronous over neighbour bitmasks: the next level
    is the union of the frontier's neighbours minus the vertices already seen.
    Each level's mask is ORed into bit-planes, plane k holding the vertices
    whose distance has bit k set.  A plane's binary string becomes one byte
    per vertex (`bytes.translate`), widened into the low byte of a wider field
    when one byte cannot hold n - 1; the planes, shifted by k, are ORed into
    one integer of n fields, vertex i in field i, which one `struct` unpack
    turns into the row.
    """
    n = graph.order
    everything = (1 << n) - 1
    neighbors = graph.neighbors
    # the narrowest unsigned field that holds every level up to n - 1
    code = next(c for c in "BHIQ" if n <= 1 << 8 * struct.calcsize("<" + c))
    width = struct.calcsize("<" + code)
    unpack = struct.Struct(f"<{n}{code}").unpack
    fmt = f"0{n}b"
    fields_of = bytearray(n * width)
    first: dict[int, int] = {}
    rows: list[tuple[int, ...]] = []
    for src in range(n):
        twin = first.setdefault(neighbors[src], src)
        if twin != src:
            row = list(rows[twin])
            row[twin], row[src] = row[src], row[twin]
            rows.append(tuple(row))
            continue
        planes: list[int] = []
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
            if level.bit_length() > len(planes):
                planes.append(0)
            for k in bit_indices(level):
                planes[k] |= reach
        if seen != everything:
            missing = everything & ~seen
            far = (missing & -missing).bit_length() - 1
            raise DisconnectedGraph(f"vertex {far} unreachable from vertex {src}")
        row = 0
        for k, plane in enumerate(planes):
            # vertex n - 1's digit first, so vertex i lands in field i
            digits = format(plane, fmt).encode().translate(_DIGIT_BYTES)
            if width > 1:
                fields_of[width - 1::width] = digits
                digits = fields_of
            row |= int.from_bytes(digits, "big") << k
        rows.append(unpack(row.to_bytes(n * width, "little")))
    return IntMatrix(tuple(rows))


def matrix_of_kind(dist: IntMatrix, kind: MatrixKind) -> IntMatrix:
    """D as is; D^L = Tr - D and D^Q = Tr + D, Tr the diagonal of row sums.

    Each row is -d or d, copied at C level, with its row sum then added to
    the diagonal entry, which is tr + sign * d_ii.
    """
    if kind == MatrixKind.DISTANCE:
        return dist
    laplacian = kind == MatrixKind.DISTANCE_LAPLACIAN
    rows = []
    for i, row in enumerate(dist.rows):
        out = list(map(neg, row) if laplacian else row)
        out[i] += sum(row)
        rows.append(tuple(out))
    return IntMatrix(tuple(rows))


class Oracle(NamedTuple):
    """Staged results of the oracle pipeline, up to the distance matrix."""

    graph: NCGraph
    partition: PartitionStructure
    distance: IntMatrix


def check_order_cap(spec: GroupSpec, order: int, order_cap: int | None) -> None:
    """Refuse a graph of the given order above the cap (None for no cap)."""
    if order_cap is not None and order > order_cap:
        raise OrderCapExceeded(
            f"{spec.label()} graph order {order} exceeds cap {order_cap}", order
        )


def oracle(spec: GroupSpec, order_cap: int | None = None) -> Oracle:
    """Group -> order-cap check -> graph -> certified part-major graph -> D.

    `matrix_of_kind` builds D^L or D^Q from D.  The cap (None for no cap) is
    on the graph order |G| - |Z(G)|.  No family is abelian, so G/Z(G) is not
    cyclic and |Z(G)| <= |G|/4: past 4 * cap the group is refused unenumerated,
    and below that the exact order from the O(|G|) centre is checked first.
    """
    if order_cap is not None and spec.order > 4 * order_cap:
        raise OrderCapExceeded(
            f"{spec.label()} graph order at least 3|G|/4 exceeds cap {order_cap}"
        )
    group = enumerate_elements(spec)
    check_order_cap(spec, group.order - len(center(group)), order_cap)
    graph, partition = part_major(non_commuting_graph(group))
    return Oracle(graph, partition, distance_matrix(graph))
