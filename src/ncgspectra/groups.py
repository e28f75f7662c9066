"""Finite groups of the four families, enumerated with normal-form arithmetic.

Each family's presentation lives in its record in `ncgspectra.families` as
five numbers; this module holds the one product rule that reads every group
from them, enumerates the normal forms, binds the rule once per group, and
computes centres, centralizers and the CA property.

Everything is read from the regular representation of the two generators
(Cayley's theorem): the permutations L_a, L_b, R_a and R_b of the element
indices, y -> a*y, b*y, y*a and y*b, cost 4|G| products of
`FiniteGroup.mult`.  The centre is read off them directly.  The commutation
relation is one integer bitmask per element: for x = a^i b^j the
permutations L_x and R_x are composed from those of the generators, one
element after the other, and x commutes with y iff L_x[y] == R_x[y].
Centralizers, the CA check and the non-commuting graph all read those masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import eq, itemgetter
from typing import Callable, Iterator, NamedTuple

from .families import GroupElement, GroupSpec, Presentation

Rule = Callable[[GroupElement, GroupElement], GroupElement]


def normal_form_rule(p: Presentation) -> Rule:
    """The product of normal forms under a^oa = 1, b^ob = a^s, b a = a^r b^q.

    b^j a^k = a^(k r^j) b^(j q^k), so (a^i b^j)(a^k b^l) is
    a^(i + k r^j) b^(j q^k + l); r^j and q^k are read off the parities, as
    r^2 = 1 and q^2 = 1, and each wrap of b^ob adds the central a^s.
    """
    oa, ob, s, r, q = p
    r_pow, q_pow = (1, r), (1, q)
    new = tuple.__new__  # GroupElement(...) without NamedTuple's Python-level __new__

    def mult(x: GroupElement, y: GroupElement) -> GroupElement:
        i, j = x
        k, l = y
        wrap, e = divmod(j * q_pow[k & 1] + l, ob)
        return new(GroupElement, ((i + k * r_pow[j & 1] + wrap * s) % oa, e))

    return mult


def multiply(spec: GroupSpec, x: GroupElement, y: GroupElement) -> GroupElement:
    """Normal form of the product x*y in the group of `spec`."""
    return normal_form_rule(spec.presentation())(x, y)


def bit_indices(mask: int) -> Iterator[int]:
    """Indices of the set bits of a non-negative integer, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
class FiniteGroup:
    """A fully enumerated group: spec, normal forms in canonical order, and the
    product rule bound once to this group's presentation.

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
    mult: Rule = field(compare=False, repr=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> GroupElement:
        return GroupElement(0, 0)

    @cached_property
    def index(self) -> dict[GroupElement, int]:
        """Position of each element in `elements`."""
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
        and compares them at C level: bit y is L_x[y] == R_x[y].  Memory
        beyond the masks is a few permutations, never a Cayley table.
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


def enumerate_elements(spec: GroupSpec) -> FiniteGroup:
    """All normal forms, lexicographic by (b_exp, a_exp)."""
    p = spec.presentation()
    elems = tuple(GroupElement(a, b) for b in range(p.ob) for a in range(p.oa))
    return FiniteGroup(spec, elems, normal_form_rule(p))


def center(group: FiniteGroup) -> set[GroupElement]:
    """Elements commuting with both generators a and b, which generate the group.

    Read from the regular representation: x is central iff a*x == x*a and
    b*x == x*b, that is, L_a[x] == R_a[x] and L_b[x] == R_b[x].
    """
    reg = group.regular
    return {
        x
        for x, la, ra, lb, rb in zip(
            group.elements, reg.left_a, reg.right_a, reg.left_b, reg.right_b
        )
        if la == ra and lb == rb
    }


def centralizer(group: FiniteGroup, x: GroupElement) -> set[GroupElement]:
    mask = group.commuting_masks[group.index[x]]
    return {group.elements[j] for j in bit_indices(mask)}


def is_ca_group(group: FiniteGroup) -> bool:
    """True iff the centralizer of every non-central element is abelian.

    Each distinct centralizer c of a non-central element is checked once: it
    is abelian iff every member y commutes with all of c, that is, iff the
    mask of y contains the mask of c.
    """
    masks = group.commuting_masks
    everything = (1 << group.order) - 1
    for c in set(masks) - {everything}:
        if any(masks[y] & c != c for y in bit_indices(c)):
            return False
    return True
