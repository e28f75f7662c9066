from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgspectra import (
    GroupElement,
    GroupSpec,
    InvalidParameters,
    center,
    centralizer,
    enumerate_elements,
    is_ca_group,
    multiply,
)

E = GroupElement


def element_order(g, x):
    """The order of x, by repeated multiplication, bounded by the group order."""
    acc, k = x, 1
    while acc != g.identity:
        acc, k = g.mult(acc, x), k + 1
        assert k <= g.order
    return k


def test_orders():
    assert enumerate_elements(GroupSpec.q4n(2)).order == 8
    assert enumerate_elements(GroupSpec.u6n(1)).order == 6
    assert enumerate_elements(GroupSpec.metacyclic(3, 1)).order == 6
    assert enumerate_elements(GroupSpec.qd(4)).order == 16


def test_enumeration_is_deterministic_and_duplicate_free():
    for spec in [GroupSpec.q4n(3), GroupSpec.qd(4), GroupSpec.u6n(2),
                 GroupSpec.metacyclic(5, 2)]:
        g = enumerate_elements(spec)
        assert len(set(g.elements)) == g.order == spec.order
        assert list(g.elements) == sorted(g.elements, key=lambda e: (e.b_exp, e.a_exp))
        assert g.elements[0] == E(0, 0)


def test_parameter_bounds():
    with pytest.raises(InvalidParameters):
        GroupSpec.q4n(1)
    with pytest.raises(InvalidParameters):
        GroupSpec.qd(3)
    with pytest.raises(InvalidParameters):
        GroupSpec.u6n(0)
    with pytest.raises(InvalidParameters):
        GroupSpec.metacyclic(2, 1)
    with pytest.raises(InvalidParameters):
        GroupSpec.metacyclic(3, 0)
    with pytest.raises(InvalidParameters):
        GroupSpec("q4n", 2, 5)


def test_multiply_examples():
    q8 = GroupSpec.q4n(2)
    assert multiply(q8, E(1, 1), E(1, 1)) == E(2, 0)
    assert multiply(q8, E(0, 0), E(1, 1)) == E(1, 1)
    u6 = GroupSpec.u6n(1)
    assert multiply(u6, E(0, 1), E(1, 0)) == E(1, 2)


def test_q4n_b_elements_have_order_four():
    for n in (2, 3, 5):
        g = enumerate_elements(GroupSpec.q4n(n))
        for e in g.elements:
            if e.b_exp == 1:
                assert element_order(g, e) == 4


GROUP_AXIOM_SPECS = [
    GroupSpec.q4n(2),
    GroupSpec.q4n(3),
    GroupSpec.qd(4),
    GroupSpec.qd(5),
    GroupSpec.qd(6),
    GroupSpec.u6n(1),
    GroupSpec.u6n(3),
    GroupSpec.metacyclic(3, 1),
    GroupSpec.metacyclic(4, 2),
    GroupSpec.metacyclic(5, 2),
    GroupSpec.metacyclic(6, 1),
    GroupSpec.metacyclic(10, 4),
]


@pytest.mark.parametrize("spec", GROUP_AXIOM_SPECS, ids=lambda s: s.label())
def test_group_axioms_full(spec):
    g = enumerate_elements(spec)
    elems = g.elements
    index = {x: i for i, x in enumerate(elems)}
    n = len(index)
    assert n == spec.order
    # closure over all pairs, while filling the Cayley table with |G|^2 products
    table = []
    for x in elems:
        row = [g.mult(x, y) for y in elems]
        assert all(p in index for p in row)
        table.append(tuple(index[p] for p in row))
    # associativity over all triples: row (xy) of the table equals row x read
    # through row y, that is (xy)z == x(yz) for every z
    for x in range(n):
        for y in range(n):
            assert table[table[x][y]] == itemgetter(*table[y])(table[x])
    e = index[g.identity]
    for x in range(n):
        assert table[e][x] == x == table[x][e]
        (inv,) = [y for y in range(n) if table[x][y] == e]
        assert table[x][inv] == e == table[inv][x]


@pytest.mark.parametrize("spec", GROUP_AXIOM_SPECS, ids=lambda s: s.label())
def test_bound_rule_equals_multiply(spec):
    g = enumerate_elements(spec)
    for x in g.elements:
        for y in g.elements:
            assert g.mult(x, y) == multiply(spec, x, y)


@pytest.mark.parametrize("spec", GROUP_AXIOM_SPECS, ids=lambda s: s.label())
def test_lagrange(spec):
    g = enumerate_elements(spec)
    for x in g.elements:
        assert g.order % element_order(g, x) == 0


def test_associativity_sampled_large():
    g = enumerate_elements(GroupSpec.qd(7))
    elems = g.elements
    step = 13
    sample = elems[::step]
    for x in sample:
        for y in sample:
            for z in sample:
                assert g.mult(g.mult(x, y), z) == g.mult(x, g.mult(y, z))


def test_center_examples():
    g = enumerate_elements(GroupSpec.q4n(3))
    assert center(g) == {E(0, 0), E(3, 0)}
    g = enumerate_elements(GroupSpec.metacyclic(3, 1))
    assert center(g) == {E(0, 0)}
    g = enumerate_elements(GroupSpec.u6n(2))
    assert center(g) == {E(0, 0), E(2, 0)}


@pytest.mark.parametrize(
    "spec,size",
    [
        (GroupSpec.q4n(2), 2),
        (GroupSpec.q4n(7), 2),
        (GroupSpec.qd(4), 2),
        (GroupSpec.qd(6), 2),
        (GroupSpec.u6n(1), 1),
        (GroupSpec.u6n(5), 5),
        (GroupSpec.metacyclic(5, 3), 3),
        (GroupSpec.metacyclic(6, 3), 6),
        (GroupSpec.metacyclic(4, 1), 2),
    ],
    ids=lambda v: v.label() if isinstance(v, GroupSpec) else str(v),
)
def test_center_sizes(spec, size):
    assert len(center(enumerate_elements(spec))) == size


def test_centralizer_examples():
    g = enumerate_elements(GroupSpec.q4n(2))
    assert centralizer(g, E(1, 0)) == {E(0, 0), E(1, 0), E(2, 0), E(3, 0)}
    assert centralizer(g, E(1, 1)) == {E(0, 0), E(2, 0), E(1, 1), E(3, 1)}
    assert centralizer(g, E(0, 0)) == set(g.elements)


def test_centralizer_contains_center_and_element():
    for spec in [GroupSpec.q4n(4), GroupSpec.u6n(3), GroupSpec.metacyclic(7, 1)]:
        g = enumerate_elements(spec)
        z = center(g)
        for x in g.elements:
            c = centralizer(g, x)
            assert z <= c
            assert x in c


def test_center_is_intersection_of_centralizers():
    for spec in [GroupSpec.q4n(3), GroupSpec.qd(4), GroupSpec.u6n(2),
                 GroupSpec.metacyclic(4, 2)]:
        g = enumerate_elements(spec)
        inter = set(g.elements)
        for x in g.elements:
            inter &= centralizer(g, x)
        assert inter == center(g)


@pytest.mark.parametrize(
    "spec",
    [GroupSpec.q4n(2), GroupSpec.qd(4), GroupSpec.u6n(3),
     GroupSpec.metacyclic(5, 2), GroupSpec.metacyclic(8, 1)],
    ids=lambda s: s.label(),
)
def test_is_ca_group(spec):
    assert is_ca_group(enumerate_elements(spec))


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(["q4n", "qd", "u6n", "metacyclic"]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=3, max_value=7),
)
def test_enumeration_matches_presented_order(family, n, m):
    if family == "q4n":
        n = max(n, 2)
        spec = GroupSpec.q4n(n)
    elif family == "qd":
        n = max(n, 4)
        spec = GroupSpec.qd(n)
    elif family == "u6n":
        spec = GroupSpec.u6n(n)
    else:
        spec = GroupSpec.metacyclic(m, n)
    g = enumerate_elements(spec)
    assert g.order == spec.order
    assert len(set(g.elements)) == g.order
