import re
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncgspectra import (
    FiniteGroup,
    GroupElement,
    GroupSpec,
    InvalidParameters,
    center,
    enumerate_elements,
    is_ca_group,
)
from ncgspectra.families import Presentation
from ncgspectra.groups import normal_form_rule

from test_commutation import centralizer

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
    q8 = enumerate_elements(GroupSpec.q4n(2)).mult
    assert q8(E(1, 1), E(1, 1)) == E(2, 0)
    assert q8(E(0, 0), E(1, 1)) == E(1, 1)
    # the paper's B A = A B^2 in U_6, whose A and B are b and a here
    u6 = enumerate_elements(GroupSpec.u6n(1)).mult
    assert u6(E(1, 0), E(0, 1)) == E(1, 1) == u6(E(0, 1), E(2, 0))


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
def test_bound_rule_equals_the_presentation_rule(spec):
    g = enumerate_elements(spec)
    rule = normal_form_rule(spec.presentation())
    for x in g.elements:
        for y in g.elements:
            assert g.mult(x, y) == rule(x, y)


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
    # the paper's A^2 in U_12, whose A is b here
    g = enumerate_elements(GroupSpec.u6n(2))
    assert center(g) == {E(0, 0), E(0, 2)}


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


def power(mult, x, k):
    acc = E(0, 0)
    for _ in range(k):
        acc = mult(acc, x)
    return acc


def inverse(g, x):
    (inv,) = [y for y in g.elements if g.mult(x, y) == g.identity]
    return inv


def paper_presentation(spec, g):
    """|G|, the paper's generators with their orders, and its relations as (lhs, rhs).

    Written from the relations the paper prints, in words of its generators
    multiplied by `g.mult`, not from the family's presentation numbers:
    Q_4n has b^2 = a^n, b a = a^-1 b; QD_2^n has b a b^-1 = a^(2^(n-2)-1);
    U_6n has A^-1 B A = B^-1; M_2mn has b a b^-1 = a^-1.  The paper's a and b
    are a = a^1 b^0 and b = a^0 b^1; U_6n's A and B are b and a.
    """
    a, b, mul, n, m = E(1, 0), E(0, 1), g.mult, spec.n, spec.m
    if spec.family == "q4n":
        relations = [
            (power(mul, b, 2), power(mul, a, n)),
            (mul(b, a), mul(inverse(g, a), b)),
        ]
        return 4 * n, [(a, 2 * n), (b, 4)], relations
    if spec.family == "qd":
        lhs = mul(mul(b, a), inverse(g, b))
        relation = (lhs, power(mul, a, 2 ** (n - 2) - 1))
        return 2 ** n, [(a, 2 ** (n - 1)), (b, 2)], [relation]
    if spec.family == "u6n":
        A, B = b, a
        relation = (mul(mul(inverse(g, A), B), A), inverse(g, B))
        return 6 * n, [(A, 2 * n), (B, 3)], [relation]
    relation = (mul(mul(b, a), inverse(g, b)), inverse(g, a))
    return 2 * m * n, [(a, m), (b, 2 * n)], [relation]


PAPER_SPECS = (
    [GroupSpec.q4n(n) for n in range(2, 16)]
    + [GroupSpec.qd(n) for n in range(4, 9)]
    + [GroupSpec.u6n(n) for n in range(1, 13)]
    + [GroupSpec.metacyclic(m, n) for m in range(3, 10) for n in range(1, 6)]
)


def spec_id(spec):
    """A unique test id: M_2mn labels alone repeat, e.g. M_12 at (3, 2) and (6, 1)."""
    return "-".join([spec.family, *map(str, spec.params().values())])


@pytest.mark.parametrize("spec", PAPER_SPECS, ids=spec_id)
def test_groups_satisfy_the_relations_the_paper_prints(spec):
    g = enumerate_elements(spec)
    size, generators, relations = paper_presentation(spec, g)
    a, b = E(1, 0), E(0, 1)
    assert g.order == size
    for x, order in generators:
        assert element_order(g, x) == order
    for lhs, rhs in relations:
        assert lhs == rhs
    for x in g.elements:
        assert g.mult(power(g.mult, a, x.a_exp), power(g.mult, b, x.b_exp)) == x


WIDE_SPECS = (
    [GroupSpec.q4n(n) for n in range(2, 1001)]
    + [GroupSpec.qd(n) for n in range(4, 201)]
    + [GroupSpec.u6n(n) for n in range(1, 1001)]
    + [GroupSpec.metacyclic(m, n) for m in range(3, 101) for n in range(1, 101)]
)


def test_every_presentation_meets_the_rule_preconditions():
    for spec in WIDE_SPECS:
        oa, ob, s, r = spec.presentation()
        assert (r * r - 1) % oa == 0
        assert s * (r - 1) % oa == 0
        # the parity of j survives its reduction mod ob
        assert (r - 1) % oa == 0 or ob % 2 == 0


# One presentation per precondition of `Presentation`, each breaking that
# one first, with the message naming it.
BROKEN_PRESENTATIONS = [
    (Presentation(0, 2, 0, 1), "oa >= 1 and ob >= 1"),
    (Presentation(5, 2, 0, 2), "r^2 = 1 (mod oa)"),
    (Presentation(4, 3, 0, 3), "ob even unless r = 1 (mod oa)"),
    (Presentation(4, 2, 1, 3), "s (r - 1) = 0 (mod oa)"),
]


@pytest.mark.parametrize(
    "p, condition", BROKEN_PRESENTATIONS, ids=[c for _, c in BROKEN_PRESENTATIONS]
)
def test_rule_names_the_first_broken_precondition(p, condition):
    message = f"^{re.escape(f'{p!r} breaks the precondition {condition}')}$"
    with pytest.raises(ValueError, match=message):
        normal_form_rule(p)
    with pytest.raises(ValueError, match=message):
        FiniteGroup(GroupSpec.u6n(1), p)


@st.composite
def presentations(draw):
    """Any tuple meeting the rule's preconditions, with oa, ob >= 2.

    b acts on <a> by a -> a^r.  r is drawn from range(oa) and shifted to its
    negative representative r - oa half the time.
    """
    oa, ob = draw(st.integers(2, 12)), draw(st.integers(2, 8))
    r = draw(st.sampled_from([
        r for r in range(oa) if (r * r - 1) % oa == 0 and (ob % 2 == 0 or r == 1)
    ]))
    s = draw(st.sampled_from([s for s in range(oa) if s * (r - 1) % oa == 0]))
    return Presentation(oa, ob, s, r - oa * draw(st.integers(0, 1)))


@settings(max_examples=100, deadline=None)
@given(presentations())
@example(Presentation(4, 2, 2, 3))  # a central a^s != 1
def test_product_rule_gives_the_presented_group(p):
    mult = normal_form_rule(p)
    elems = [E(i, j) for j in range(p.ob) for i in range(p.oa)]
    index = {x: k for k, x in enumerate(elems)}
    table = [tuple(index[mult(x, y)] for y in elems) for x in elems]
    n = len(elems)
    assert table[0] == tuple(range(n))
    for x in range(n):
        assert sorted(table[x]) == list(range(n))
        for y in range(n):
            assert table[table[x][y]] == itemgetter(*table[y])(table[x])
    a, b = E(1, 0), E(0, 1)
    assert power(mult, a, p.oa) == E(0, 0)
    assert power(mult, b, p.ob) == power(mult, a, p.s % p.oa)
    assert mult(b, a) == mult(power(mult, a, p.r % p.oa), b)
    for x in elems:
        assert mult(power(mult, a, x.a_exp), power(mult, b, x.b_exp)) == x


@settings(max_examples=200, deadline=None)
@given(presentations())
@example(Presentation(4, 2, 2, 3))  # a central a^s != 1
@example(Presentation(8, 2, 0, -3))  # r - oa
def test_masks_and_center_equal_the_pairwise_products(p):
    group = FiniteGroup(GroupSpec.u6n(1), p)
    mult = normal_form_rule(p)
    elems = group.elements
    masks = tuple(
        sum(1 << k for k, y in enumerate(elems) if mult(x, y) == mult(y, x))
        for x in elems
    )
    assert group.commuting_masks == masks
    everything = (1 << group.order) - 1
    assert center(group) == {x for x, mask in zip(elems, masks) if mask == everything}
