"""Finite groups of the four families, enumerated with normal-form arithmetic.

Each family's presentation and rewrite rule live in its record in
`ncgspectra.families`; this module enumerates the normal forms, binds the
rule once per group, and computes centres, centralizers and the CA property.

The commutation relation of a group is computed once, from the products of
`FiniteGroup.mult` over every unordered pair, and cached on the group as one
integer bitmask per element.  Centralizers, the CA check and the
non-commuting graph all read those masks.  The centre needs no masks: every
`FiniteGroup` is generated by a and b, so it is found in O(|G|) products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from .families import GroupElement, GroupSpec, Rule


def multiply(spec: GroupSpec, x: GroupElement, y: GroupElement) -> GroupElement:
    """Normal form of the product x*y under the family's rewrite rules."""
    return spec.record.rewrite(spec.n, spec.m)(x, y)


def bit_indices(mask: int) -> Iterator[int]:
    """Indices of the set bits of a non-negative integer, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class FiniteGroup:
    """A fully enumerated group: spec, normal forms in canonical order, and the
    family's rewrite rule bound once to this group's parameters."""

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
    def commuting_masks(self) -> tuple[int, ...]:
        """Bit j of entry i is set iff elements i and j commute.

        Filled over the pairs i < j with both products from `mult`; every
        element commutes with itself, so bit i of entry i is set.
        """
        mult = self.mult
        elems = self.elements
        masks = [1 << i for i in range(len(elems))]
        for i, x in enumerate(elems):
            for j in range(i + 1, len(elems)):
                y = elems[j]
                if mult(x, y) == mult(y, x):
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
        return tuple(masks)


def enumerate_elements(spec: GroupSpec) -> FiniteGroup:
    """All normal forms, lexicographic by (b_exp, a_exp)."""
    oa, ob = spec.generator_orders()
    elems = tuple(GroupElement(a, b) for b in range(ob) for a in range(oa))
    return FiniteGroup(spec, elems, spec.record.rewrite(spec.n, spec.m))


def center(group: FiniteGroup) -> set[GroupElement]:
    """Elements commuting with both generators a = a^1 b^0 and b = a^0 b^1.

    Every `FiniteGroup` comes from `enumerate_elements` over the normal forms
    a^i b^j, so a and b generate it, and an element is central iff it commutes
    with both of them.
    """
    mult = group.mult
    gens = (GroupElement(1, 0), GroupElement(0, 1))
    return {
        x for x in group.elements if all(mult(x, g) == mult(g, x) for g in gens)
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
