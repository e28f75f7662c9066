"""Non-commuting graphs, complete-multipartite certification, distance matrices.

A graph is one neighbour bitmask per vertex: the group's commutation masks,
re-indexed once onto the non-central elements.  It is complete multipartite iff
"equal or non-adjacent" is an equivalence relation, which certification checks
on the masks; the part-major graph is then built from the certified part sizes.

The non-commuting graph of a non-abelian group is connected with diameter 2
(Abdollahi, Akbari & Maimani, *Non-commuting graph of a group*, J. Algebra 298
(2006), Prop. 2.1), so every distance is 1 on a vertex's mask and 2 off it.
The distance matrix is read off the masks, once per distinct neighbourhood,
and the read is checked: a vertex with no path of length at most 2 to some
other vertex raises DisconnectedGraph rather than getting a wrong entry.
"""

from __future__ import annotations

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
    """Some vertex pair has no path of length <= 2."""


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


# '0'/'1' characters to the distances 2/1: one byte per vertex.
_DISTANCE_BYTES = bytes.maketrans(b"01", b"\x02\x01")


def distance_matrix(graph: NCGraph) -> IntMatrix:
    """All-pairs distances of a graph of diameter at most 2, off the masks.

    Per distinct neighbour mask, once: its 2-step reach (the mask ORed with
    its neighbours' masks, stopping once every vertex is covered) and a
    template row, 1 on the mask's bits and 2 elsewhere, from the mask's
    binary string by one `bytes.translate`.  Each vertex's row is its mask's
    template with its own entry set to 0.  A vertex that, with its reach,
    misses some vertex raises DisconnectedGraph naming the lowest one missed.
    """
    n = graph.order
    everything = (1 << n) - 1
    neighbors = graph.neighbors
    fmt = f"0{n}b"
    by_mask: dict[int, tuple[int, bytes]] = {}
    rows: list[tuple[int, ...]] = []
    for src, mask in enumerate(neighbors):
        if mask not in by_mask:
            reach = mask
            for u in bit_indices(mask):
                reach |= neighbors[u]
                if reach == everything:
                    break
            # the string lists vertex n - 1 first; reversed, vertex i is byte i
            by_mask[mask] = reach, format(mask, fmt)[::-1].encode().translate(_DISTANCE_BYTES)
        reach, template = by_mask[mask]
        missing = everything & ~(reach | 1 << src)
        if missing:
            far = (missing & -missing).bit_length() - 1
            raise DisconnectedGraph(f"vertex {far} is not within distance 2 of vertex {src}")
        row = bytearray(template)
        row[src] = 0
        rows.append(tuple(row))
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
