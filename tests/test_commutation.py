"""The commutation-mask paths against the implementations they replaced.

The references below multiply pair by pair: the commutation masks by both
products of every unordered pair, the centre by a full scan, the CA check by
testing every pair of every centralizer, the graph by comparing both products
of every ordered pair, and the distances by a deque BFS of any depth.  The partition is
certified by a BFS over the complement plus a check of every pair inside and
across its components.  The references read the graph's neighbour masks one
bit at a time.

`RegularGroup` is the regular-representation path that built the masks and
the centre before they were read from the presentation's congruences.  It
takes any product rule on a normal-form grid, so it also serves groups that
no `Presentation` expresses (S_4, split metacyclic groups with r of order
greater than 2), through the same `centralizer` (the mask read, kept
here), `is_ca_group` and `non_commuting_graph`.
"""

import itertools
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import eq, itemgetter
from typing import Callable, NamedTuple

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
    NotCompleteMultipartite,
    PartitionStructure,
    center,
    complete_multipartite,
    default_grid,
    distance_matrix,
    enumerate_elements,
    is_ca_group,
    non_commuting_graph,
    partition_structure,
)
from ncgspectra.graphs import select_bits
from ncgspectra.groups import bit_indices

# The groups of the structure-large benchmark workload: just beyond the
# default verify cap, graph orders 254, 158, 155, 153 and 154.
LARGE_SPECS = [
    GroupSpec.qd(8),
    GroupSpec.q4n(40),
    GroupSpec.u6n(31),
    GroupSpec.metacyclic(9, 9),
    GroupSpec.metacyclic(12, 7),
]


class RegularPermutations(NamedTuple):
    """The generators' regular permutations of a group, as index tuples.

    `left_a[y]` is the index of a*y and `right_a[y]` that of y*a, and so for
    b; the elements form the grid of `a_order` by `b_order` normal forms.
    """

    a_order: int
    b_order: int
    left_a: tuple[int, ...]
    left_b: tuple[int, ...]
    right_a: tuple[int, ...]
    right_b: tuple[int, ...]


# bytes of 0/1 -> ASCII binary digits
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


@dataclass(frozen=True)
class RegularGroup:
    """A group given by its normal forms and any product rule, read through
    the regular representation of its two generators (Cayley's theorem).

    The elements must be the normal forms a^i b^j of a grid, i in
    range(oa) and j in range(ob), ordered by (b_exp, a_exp), so element k
    is a^(k mod oa) b^(k div oa).  Here oa and ob are read from the elements
    (one more than the largest exponents), and `mult` must agree with the
    labels: a * a^i b^j = a^(i+1) b^j for i + 1 < oa and
    a^i b^j * b = a^i b^(j+1) for j + 1 < ob, where a = a^1 b^0 and
    b = a^0 b^1 (the identity when that exponent range is a single value).
    Then a and b generate the group.  The contract is checked when the
    regular representation is first read, and ValueError names the first
    element that breaks it.
    """

    spec: GroupSpec
    elements: tuple[GroupElement, ...]
    mult: Callable = field(compare=False, repr=False)

    @staticmethod
    def of(group: FiniteGroup) -> "RegularGroup":
        """The reference for a group built from a presentation, same rule."""
        return RegularGroup(group.spec, group.elements, group.mult)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> GroupElement:
        return GroupElement(0, 0)

    @cached_property
    def index(self) -> dict[GroupElement, int]:
        return {x: i for i, x in enumerate(self.elements)}

    @cached_property
    def regular(self) -> RegularPermutations:
        """L_a, L_b, R_a and R_b from 4|G| products, after checking the contract."""
        elems = self.elements
        if not elems:
            raise ValueError("a group has at least one element")
        n = len(elems)
        oa = 1 + max(x.a_exp for x in elems)
        ob = 1 + max(x.b_exp for x in elems)
        for k in range(max(n, oa * ob)):
            x = elems[k] if k < n else "missing"
            y = (k % oa, k // oa) if k < oa * ob else None
            if x != y:
                want = f"expected {GroupElement(*y)!r}" if y else "past the end"
                raise ValueError(
                    f"element {k} is {x}, {want} of the {oa} x {ob} normal-form grid"
                )
        at, mult = self.index.__getitem__, self.mult
        a, b = elems[1 % oa], elems[oa % n]
        lefts = [map(mult, repeat(g, n), elems) for g in (a, b)]
        rights = [map(mult, elems, repeat(g, n)) for g in (a, b)]
        try:
            perms = [tuple(map(at, p)) for p in lefts + rights]
        except KeyError as exc:
            raise ValueError(f"product {exc.args[0]!r} is not an element") from None
        left_a, _, _, right_b = perms
        for k, x in enumerate(elems):
            if x.a_exp + 1 < oa and left_a[k] != k + 1:
                raise ValueError(
                    f"a * {x!r} is {elems[left_a[k]]!r}, expected {elems[k + 1]!r}"
                )
            if x.b_exp + 1 < ob and right_b[k] != k + oa:
                raise ValueError(
                    f"{x!r} * b is {elems[right_b[k]]!r}, expected {elems[k + oa]!r}"
                )
        return RegularPermutations(oa, ob, *perms)

    @cached_property
    def commuting_masks(self) -> tuple[int, ...]:
        """Bit y of entry x is set iff elements x and y commute.

        Walks x = a^i b^j in index order with L_x = L_a^i o L_b^j and
        R_x = R_b^j o R_a^i, each one composition from the previous element,
        and compares them at C level: bit y is L_x[y] == R_x[y].
        """
        reg = self.regular
        # itemgetter(*g)(f) is f o g, the permutation f applied after g
        after_left_b = itemgetter(*reg.left_b)
        after_right_a = itemgetter(*reg.right_a)
        after_right_b = itemgetter(*reg.right_b)
        masks = []
        left_bj = right_bj = tuple(range(self.order))
        for _ in range(reg.b_order):
            left, right = left_bj, right_bj
            for i in range(reg.a_order):
                if i:
                    left, right = itemgetter(*left)(reg.left_a), after_right_a(right)
                bits = bytes(map(eq, left, right)).translate(_DIGITS)
                masks.append(int(bits[::-1], 2))
            left_bj, right_bj = after_left_b(left_bj), after_right_b(right_bj)
        return tuple(masks)


def regular_center(group: RegularGroup) -> set[GroupElement]:
    """x is central iff L_a[x] == R_a[x] and L_b[x] == R_b[x]."""
    reg = group.regular
    return {
        x
        for x, la, ra, lb, rb in zip(
            group.elements, reg.left_a, reg.right_a, reg.left_b, reg.right_b
        )
        if la == ra and lb == rb
    }


def reference_commuting_masks(group):
    mult = group.mult
    elems = group.elements
    masks = [1 << i for i in range(len(elems))]
    for i, x in enumerate(elems):
        for j in range(i + 1, len(elems)):
            y = elems[j]
            if mult(x, y) == mult(y, x):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return tuple(masks)


def reference_center(group):
    mult = group.mult
    return {
        x
        for x in group.elements
        if all(mult(x, g) == mult(g, x) for g in group.elements)
    }


def centralizer(group, x):
    """C(x) read off x's commutation mask, as `ncgspectra.groups.centralizer` did."""
    mask = group.commuting_masks[group.index[x]]
    return {group.elements[j] for j in bit_indices(mask)}


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
    rows = tuple(
        sum(1 << j for j, v in enumerate(verts) if u != v and mult(u, v) != mult(v, u))
        for u in verts
    )
    return NCGraph(verts, rows)


def adjacent(graph, i, j):
    return bool(graph.neighbors[i] >> j & 1)


def reference_distance_matrix(graph):
    n = graph.order
    neighbors = [[j for j in range(n) if adjacent(graph, i, j)] for i in range(n)]
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


def reference_partition_structure(graph):
    n = graph.order
    adj = [[adjacent(graph, i, j) for j in range(n)] for i in range(n)]
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
    return PartitionStructure(tuple(len(c) for c in classes), tuple(classes))


@pytest.mark.parametrize(
    "spec", default_grid() + LARGE_SPECS, ids=lambda s: s.label()
)
def test_mask_paths_equal_references(spec):
    group = enumerate_elements(spec)
    regular = RegularGroup.of(group)
    assert group.commuting_masks == regular.commuting_masks
    assert group.commuting_masks == reference_commuting_masks(group)
    assert center(group) == regular_center(regular)
    assert center(group) == reference_center(group)
    for x in group.elements:
        assert centralizer(group, x) == reference_centralizer(group, x)
    assert is_ca_group(group) == reference_is_ca_group(group)
    graph = non_commuting_graph(group)
    assert graph == reference_graph(group)
    assert distance_matrix(graph) == reference_distance_matrix(graph)
    assert partition_structure(graph) == reference_partition_structure(graph)


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


def symmetric_group_4():
    """S_4 as 24 elements a^i b^0, which are not normal forms of a and b."""
    perms = sorted(itertools.permutations(range(4)))
    index = {p: i for i, p in enumerate(perms)}

    def mult(x, y):
        p, q = perms[x.a_exp], perms[y.a_exp]
        return GroupElement(index[tuple(p[q[k]] for k in range(4))], 0)

    elems = tuple(GroupElement(i, 0) for i in range(len(perms)))
    return RegularGroup(GroupSpec.u6n(4), elems, mult)


def split_metacyclic(m, r, k, spec=GroupSpec.metacyclic(3, 1)):
    """Z_m x|_r Z_k as the normal forms a^i b^j, with b a b^-1 = a^r.

    (i, j) * (k', l) = (i + r^j k', j + l); requires r^k = 1 (mod m).
    """
    assert pow(r, k, m) == 1 % m

    def mult(x, y):
        i, j = x
        kk, l = y
        return GroupElement((i + pow(r, j, m) * kk) % m, (j + l) % k)

    elems = tuple(GroupElement(i, j) for j in range(k) for i in range(m))
    # the spec only labels the group; the elements and mult define it
    return RegularGroup(spec, elems, mult)


def test_non_ca_group_detected():
    # S_4 is not a CA group: (01)(23) is not central and its centralizer is
    # a dihedral group of order 8.  Its elements break the normal-form
    # contract, so the masks are preset from the pairwise reference.
    s4 = symmetric_group_4()
    s4.__dict__["commuting_masks"] = reference_commuting_masks(s4)
    assert not is_ca_group(s4)
    assert not reference_is_ca_group(s4)
    # Z_9 x|_2 Z_6 is not a CA group either: the centralizer of b^2 holds a^3
    # and b, which do not commute.  Its masks come from the regular
    # representation.
    z9z6 = split_metacyclic(9, 2, 6, GroupSpec.metacyclic(9, 3))
    assert not is_ca_group(z9z6)
    assert not reference_is_ca_group(z9z6)


def test_out_of_contract_group_raises():
    # a * a = e in S_4 when a is the transposition listed second
    with pytest.raises(ValueError, match=r"^a \* a1b0 is a0b0, expected a2b0$"):
        is_ca_group(symmetric_group_4())


@pytest.mark.parametrize(
    "elems, message",
    [
        ((), "^a group has at least one element$"),
        (((0, 0), (2, 0), (1, 0)), "^element 1 is a2b0, expected a1b0 of the 3 x 1"),
        (((0, 0), (1, 0), (0, 1)), "^element 3 is missing, expected a1b1 of the 2 x 2"),
        (((0, 0), (1, 0), (0, 0)), "^element 2 is a0b0, past the end of the 2 x 1"),
        (((1, 0), (0, 0)), "^element 0 is a1b0, expected a0b0 of the 2 x 1"),
    ],
)
def test_grid_contract_names_first_breaking_element(elems, message):
    elems = tuple(GroupElement(*e) for e in elems)
    group = RegularGroup(GroupSpec.u6n(1), elems, lambda x, y: x)
    with pytest.raises(ValueError, match=message):
        group.commuting_masks


def test_right_b_contract_names_first_breaking_element():
    # Z_2 x Z_3 with b listed as if it had order 3 but multiplied as order 1
    def mult(x, y):
        return GroupElement((x.a_exp + y.a_exp) % 2, x.b_exp)

    elems = tuple(GroupElement(i, j) for j in range(3) for i in range(2))
    group = RegularGroup(GroupSpec.u6n(1), elems, mult)
    with pytest.raises(ValueError, match=r"^a0b0 \* b is a0b0, expected a0b1$"):
        regular_center(group)


def test_product_outside_the_elements_raises():
    def mult(x, y):
        return GroupElement(x.a_exp + y.a_exp, 0)

    elems = tuple(GroupElement(i, 0) for i in range(5))
    group = RegularGroup(GroupSpec.u6n(1), elems, mult)
    with pytest.raises(ValueError, match="^product a5b0 is not an element$"):
        regular_center(group)


def test_masks_equal_pairwise_reference_at_qd_512():
    group = enumerate_elements(GroupSpec.qd(9))
    regular = RegularGroup.of(group)
    assert group.commuting_masks == reference_commuting_masks(group)
    assert group.commuting_masks == regular.commuting_masks
    assert center(group) == regular_center(regular)


@st.composite
def split_metacyclic_groups(draw):
    m = draw(st.integers(1, 18))
    k = draw(st.integers(1, 10))
    # r^k = 1 (mod m) makes a -> a^r an automorphism whose order divides k
    units = [r for r in range(m) if pow(r, k, m) == 1 % m]
    return split_metacyclic(m, draw(st.sampled_from(units)), k)


@settings(max_examples=150, deadline=None)
@given(split_metacyclic_groups())
@example(split_metacyclic(9, 2, 6))
@example(split_metacyclic(1, 0, 1))
@example(split_metacyclic(1, 0, 5))
@example(split_metacyclic(7, 1, 1))
def test_regular_masks_equal_reference_on_split_metacyclic(group):
    assert group.commuting_masks == reference_commuting_masks(group)
    assert regular_center(group) == reference_center(group)


@pytest.mark.parametrize(
    "spec",
    default_grid()[::7] + LARGE_SPECS,
    ids=lambda s: s.label(),
)
def test_masks_and_center_take_no_product(spec):
    group = enumerate_elements(spec)
    expected = RegularGroup.of(group)

    def refuse(x, y):
        raise AssertionError("a product was taken")

    object.__setattr__(group, "mult", refuse)
    assert group.commuting_masks == expected.commuting_masks
    assert center(group) == regular_center(expected)


def test_regular_reference_takes_at_most_4g_products():
    group = enumerate_elements(GroupSpec.qd(8))
    calls = 0

    def counting(x, y):
        nonlocal calls
        calls += 1
        return group.mult(x, y)

    counted = RegularGroup(group.spec, group.elements, counting)
    assert counted.commuting_masks == group.commuting_masks
    assert regular_center(counted) == center(group)
    assert calls <= 4 * group.order


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
    rows = [0] * n
    for u, v in edges:
        if u != v:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return NCGraph(tuple(range(n)), tuple(rows))


def assert_depth_2_read(graph, reference):
    """`distance_matrix` equals the reference BFS wherever its largest entry
    is at most 2, and raises DisconnectedGraph exactly where the reference
    raises or exceeds 2."""
    try:
        expected = reference(graph)
    except DisconnectedGraph:
        expected = None
    if expected is not None and max(map(max, expected.rows)) <= 2:
        assert distance_matrix(graph) == expected
    else:
        with pytest.raises(DisconnectedGraph):
            distance_matrix(graph)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    rows = [0] * 10
    for u, v in outer + inner + [(i, i + 5) for i in range(5)]:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return NCGraph(tuple(range(10)), tuple(rows))


@settings(max_examples=300, deadline=None)
@given(random_graphs())
@example(NCGraph((0, 1, 2), (0b010, 0b001, 0b000)))
# diameter 2 but not complete multipartite: C_5 and the Petersen graph
@example(NCGraph(tuple(range(5)), (0b10010, 0b00101, 0b01010, 0b10100, 0b01001)))
@example(petersen())
# K_1, whose matrix is ((0,),), and an isolated vertex beside an edge
@example(NCGraph((0,), (0,)))
@example(NCGraph((0, 1, 2), (0b000, 0b100, 0b010)))
def test_bitset_bfs_equals_deque_bfs(graph):
    assert_depth_2_read(graph, reference_distance_matrix)


def test_disconnected_message_names_lowest_unreachable_vertex():
    rows = (0b01010, 0b00001, 0b10000, 0b00001, 0b00100)
    with pytest.raises(
        DisconnectedGraph, match="^vertex 2 is not within distance 2 of vertex 0$"
    ):
        distance_matrix(NCGraph(tuple(range(5)), rows))


@st.composite
def relabelled_multipartite(draw):
    """K_{n_1,...,n_k} under a random vertex order, with one pair flipped or not."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    graph = complete_multipartite(sizes)
    order = draw(st.permutations(range(graph.order)))
    graph = NCGraph(
        tuple(graph.vertices[i] for i in order),
        select_bits([graph.neighbors[i] for i in order], order),
    )
    if graph.order > 1 and draw(st.booleans()):
        u, v = draw(st.lists(st.integers(0, graph.order - 1), min_size=2,
                             max_size=2, unique=True))
        rows = list(graph.neighbors)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        graph = NCGraph(graph.vertices, tuple(rows))
    return graph


def _certificate(certify, graph):
    try:
        return certify(graph)
    except NotCompleteMultipartite:
        return "rejected"


@settings(max_examples=300, deadline=None)
@given(st.one_of(random_graphs(), relabelled_multipartite()))
@example(complete_multipartite([3, 1, 2]))
@example(NCGraph((0, 1, 2, 3), (0b0010, 0b0101, 0b1010, 0b0100)))
# a set diagonal bit is ignored by both, as the reference skips u == v
@example(NCGraph((0, 1, 2), (0b111, 0b001, 0b001)))
def test_mask_certificate_equals_complement_bfs(graph):
    assert _certificate(partition_structure, graph) == _certificate(
        reference_partition_structure, graph
    )


def test_not_complete_multipartite_message_names_two_witnesses():
    # path 0-1-2-3: 0 and 2 are not adjacent, but 3 is adjacent to 2 and not to 0
    path = NCGraph((0, 1, 2, 3), (0b0010, 0b0101, 0b1010, 0b0100))
    with pytest.raises(
        NotCompleteMultipartite,
        match="^vertices 0 and 2 are not adjacent but have different non-neighbourhoods$",
    ):
        partition_structure(path)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 2**70), max_size=5),
    st.lists(st.integers(0, 63), max_size=40),
)
def test_select_bits_equals_per_bit_reference(masks, indices):
    expected = tuple(
        sum(1 << k for k, i in enumerate(indices) if mask >> i & 1) for mask in masks
    )
    assert select_bits(masks, indices) == expected
