"""Non-commuting graphs, complete-multipartite certification, distance matrices.

A graph is one neighbour bitmask per vertex.  It is complete multipartite iff
"equal or non-adjacent" is an equivalence relation, which one routine checks
on the masks; the part-major graph is then built from the certified part
sizes.  The oracle runs that check on the group's own commutation masks, as
a non-central x's closed non-neighbourhood is C(x) \\ Z(G), so it builds no
re-indexed graph; `non_commuting_graph` builds one for those who read it.

The non-commuting graph of a non-abelian group is connected with diameter 2
(Abdollahi, Akbari & Maimani, *Non-commuting graph of a group*, J. Algebra 298
(2006), Prop. 2.1), so every distance is 1 on a vertex's mask and 2 off it.
One check, once per distinct neighbourhood, makes that read safe: a vertex
with no path of length at most 2 to some other vertex raises
DisconnectedGraph rather than getting a wrong entry.  D, D^L and D^Q are
then the masks in `MaskMatrix` form (`mask_form`), with each transmission a
popcount; the oracle hands that form to the char poly, and `distance_matrix`
and `matrix_of_kind` materialize the dense rows for those who read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import itemgetter, neg
from typing import Callable, Iterable, Sequence

from .exactalg import IntMatrix, MaskMatrix, bit_indices
from .families import GroupSpec, MatrixKind
from .groups import FiniteGroup, center, enumerate_elements


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


def _non_central(group: FiniteGroup) -> list[int]:
    """Indices of the elements whose commutation mask is not all ones, ascending."""
    everything = (1 << group.order) - 1
    idx = [i for i, mask in enumerate(group.commuting_masks) if mask != everything]
    if not idx:
        raise AbelianGroupError(f"{group.spec.label()} is abelian, no vertices")
    return idx


def non_commuting_graph(group: FiniteGroup) -> NCGraph:
    """Graph on the non-central elements, adjacent iff they do not commute.

    An element is central iff its commutation mask is all ones; the rows are
    the complemented masks re-indexed onto the non-central elements, each
    distinct mask once, so vertices with equal masks share one row.
    """
    masks = group.commuting_masks
    idx = _non_central(group)
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


def _certified_parts(
    keys: Iterable[tuple[int, int]], vertex: Callable[[int], int] = lambda u: u
) -> list[list[int]]:
    """The certificate: indices grouped by closed non-neighbourhood, parts listed part-major.

    `keys` pairs each index u, ascending, with its key: the bitmask of u and
    every index not adjacent to it.  The groups of equal keys are the parts
    iff each group's members equal its key; as each key holds its own index,
    that is iff the group's size is the key's popcount.  Otherwise
    NotCompleteMultipartite names two witnesses, each index u named as the
    graph vertex vertex(u).  Parts come largest first, ties by smallest
    index.
    """
    members: dict[int, list[int]] = {}
    for u, key in keys:
        members.setdefault(key, []).append(u)
    for key, group in members.items():
        if len(group) != key.bit_count():
            v = next(bit_indices(key & ~sum(1 << u for u in group)))
            raise NotCompleteMultipartite(
                f"vertices {vertex(group[0])} and {vertex(v)} are not adjacent but have "
                "different non-neighbourhoods"
            )
    return sorted(members.values(), key=lambda c: (-len(c), c[0]))


def partition_structure(graph: NCGraph) -> PartitionStructure:
    """Certify the graph as complete multipartite and return its parts.

    Vertices are grouped by closed non-neighbourhood (itself and every vertex
    not adjacent to it); the groups are the parts iff each one's members equal
    its key.  Otherwise NotCompleteMultipartite names two witness vertices.
    """
    everything = (1 << graph.order) - 1
    classes = _certified_parts(
        (u, everything & ~row | 1 << u) for u, row in enumerate(graph.neighbors)
    )
    return PartitionStructure(tuple(map(len, classes)), tuple(map(tuple, classes)))


def _part_major_layout(
    vertices: Sequence, classes: Sequence[Sequence[int]]
) -> tuple[NCGraph, PartitionStructure]:
    """The certified `classes` of `vertices` as consecutive index blocks, in order.

    The certificate proves each vertex adjacent to exactly the vertices
    outside its part, so the rows are `complete_multipartite(sizes)`'s.
    """
    sizes = tuple(map(len, classes))
    verts = tuple(vertices[i] for cls in classes for i in cls)
    blocks = tuple(tuple(range(e - s, e)) for s, e in zip(sizes, accumulate(sizes)))
    graph = NCGraph(verts, complete_multipartite(sizes).neighbors)
    return graph, PartitionStructure(sizes, blocks)


def part_major(graph: NCGraph) -> tuple[NCGraph, PartitionStructure]:
    """Certify, then list the vertices part by part as consecutive index blocks.

    Largest part first; within a part the original vertex order is kept, and
    the rows are `complete_multipartite(sizes)`'s (the diagonal ignored).
    """
    return _part_major_layout(graph.vertices, partition_structure(graph).classes)


def _check_diameter_2(graph: NCGraph) -> None:
    """Raise DisconnectedGraph unless every vertex is within distance 2 of every other.

    Per distinct neighbour mask, once: its 2-step reach, the mask ORed with
    its neighbours' masks, stopping once every vertex is covered.  A vertex
    that, with its reach, misses some vertex is named with the lowest one
    missed.
    """
    everything = (1 << graph.order) - 1
    neighbors = graph.neighbors
    reach_of: dict[int, int] = {}
    for src, mask in enumerate(neighbors):
        reach = reach_of.get(mask)
        if reach is None:
            reach = mask
            for u in bit_indices(mask):
                reach |= neighbors[u]
                if reach == everything:
                    break
            reach_of[mask] = reach
        missing = everything & ~(reach | 1 << src)
        if missing:
            far = (missing & -missing).bit_length() - 1
            raise DisconnectedGraph(f"vertex {far} is not within distance 2 of vertex {src}")


def mask_form(graph: NCGraph, kind: MatrixKind) -> MaskMatrix:
    """D, D^L or D^Q of a graph of diameter at most 2, on its neighbour masks.

    Every distance is 1 on a vertex's mask and 2 off it, so D is 1 and 2 off
    the diagonal and 0 on it.  D^L = Tr - D and D^Q = Tr + D negate or keep
    those values and put each vertex's transmission on the diagonal:
    2(n - 1) less its mask's popcount, its own bit not counted, with the
    popcount taken once per distinct mask.  The diameter is not checked
    here; `oracle` and `distance_matrix` check it.
    """
    n, masks = graph.order, graph.neighbors
    if kind == MatrixKind.DISTANCE:
        return MaskMatrix(masks, (0,) * n, 1, 2)
    popcount = {mask: mask.bit_count() for mask in dict.fromkeys(masks)}
    diagonal = tuple(2 * (n - 1) - popcount[m] + (m >> v & 1) for v, m in enumerate(masks))
    sign = -1 if kind == MatrixKind.DISTANCE_LAPLACIAN else 1
    return MaskMatrix(masks, diagonal, sign, 2 * sign)


# '0'/'1' characters to the distances 2/1: one byte per vertex.
_DISTANCE_BYTES = bytes.maketrans(b"01", b"\x02\x01")


def distance_matrix(graph: NCGraph) -> IntMatrix:
    """All-pairs distances of a graph of diameter at most 2, off the masks.

    The diameter is checked first, by `_check_diameter_2`.  Then per
    distinct neighbour mask, once, a template row: 1 on the mask's bits and
    2 elsewhere, from the mask's binary string by one `bytes.translate`.
    Each vertex's row is its mask's template with its own entry set to 0.
    """
    _check_diameter_2(graph)
    fmt = f"0{graph.order}b"
    templates: dict[int, bytes] = {}
    rows: list[tuple[int, ...]] = []
    for src, mask in enumerate(graph.neighbors):
        template = templates.get(mask)
        if template is None:
            # the string lists vertex n - 1 first; reversed, vertex i is byte i
            template = format(mask, fmt)[::-1].encode().translate(_DISTANCE_BYTES)
            templates[mask] = template
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


@dataclass(frozen=True)
class Oracle:
    """Staged results of the oracle pipeline: the certified part-major graph.

    `matrix` reads each kind's matrix off the neighbour masks, with no n x n
    table.  The dense D is built by `distance_matrix` when `distance` is
    first read, and kept; it is not a field, so equality and hashing see the
    graph and partition only.
    """

    graph: NCGraph
    partition: PartitionStructure

    def matrix(self, kind: MatrixKind) -> MaskMatrix:
        return mask_form(self.graph, kind)

    @cached_property
    def distance(self) -> IntMatrix:
        return distance_matrix(self.graph)


def check_order_cap(spec: GroupSpec, order: int, order_cap: int | None) -> None:
    """Refuse a graph of the given order above the cap (None for no cap)."""
    if order_cap is not None and order > order_cap:
        raise OrderCapExceeded(
            f"{spec.label()} graph order {order} exceeds cap {order_cap}", order
        )


def oracle(spec: GroupSpec, order_cap: int | None = None) -> Oracle:
    """Group -> order-cap check -> certified part-major graph of diameter 2.

    The cap (None for no cap) is on the graph order |G| - |Z(G)|.  No family
    is abelian, so G/Z(G) is not cyclic and |Z(G)| <= |G|/4: past 4 * cap
    the group is refused unenumerated, and below that the exact order from
    the O(|G|) centre is checked first.  `partition_structure`'s check then
    runs on the commutation masks, a non-central element's key being its
    mask & (non-central) and a witness's graph index the popcount of the
    non-central elements below it, and the part-major graph is laid out as
    `part_major` lays it out.  The diameter is checked here, so a graph past
    2 raises DisconnectedGraph before any matrix is read; no n x n table is
    built.
    """
    if order_cap is not None and spec.order > 4 * order_cap:
        raise OrderCapExceeded(
            f"{spec.label()} graph order at least 3|G|/4 exceeds cap {order_cap}"
        )
    group = enumerate_elements(spec)
    check_order_cap(spec, group.order - len(center(group)), order_cap)
    masks, idx = group.commuting_masks, _non_central(group)
    noncentral = sum(1 << i for i in idx)
    classes = _certified_parts(
        ((i, masks[i] & noncentral | 1 << i) for i in idx),
        lambda i: (noncentral & ((1 << i) - 1)).bit_count(),
    )
    graph, partition = _part_major_layout(group.elements, classes)
    _check_diameter_2(graph)
    return Oracle(graph, partition)
