"""Finite groups of the four families, enumerated with normal-form arithmetic.

Each family's presentation and rewrite rule live in its record in
`ncgspectra.families`; this module enumerates the normal forms, binds the
rule once per group, and computes centres, centralizers and the CA property.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .families import GroupElement, GroupSpec, Rule


def multiply(spec: GroupSpec, x: GroupElement, y: GroupElement) -> GroupElement:
    """Normal form of the product x*y under the family's rewrite rules."""
    return spec.record.rewrite(spec.n, spec.m)(x, y)


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


def enumerate_elements(spec: GroupSpec) -> FiniteGroup:
    """All normal forms, lexicographic by (b_exp, a_exp)."""
    oa, ob = spec.generator_orders()
    elems = tuple(GroupElement(a, b) for b in range(ob) for a in range(oa))
    return FiniteGroup(spec, elems, spec.record.rewrite(spec.n, spec.m))


def center(group: FiniteGroup) -> set[GroupElement]:
    """Elements commuting with everything, by full scan."""
    mult = group.mult
    return {
        x
        for x in group.elements
        if all(mult(x, g) == mult(g, x) for g in group.elements)
    }


def centralizer(group: FiniteGroup, x: GroupElement) -> set[GroupElement]:
    mult = group.mult
    return {g for g in group.elements if mult(x, g) == mult(g, x)}


def _is_abelian_subset(group: FiniteGroup, subset: set[GroupElement]) -> bool:
    mult = group.mult
    elems = sorted(subset)
    for i, x in enumerate(elems):
        for y in elems[i + 1 :]:
            if mult(x, y) != mult(y, x):
                return False
    return True


def is_ca_group(group: FiniteGroup) -> bool:
    """True iff the centralizer of every non-central element is abelian."""
    z = center(group)
    for x in group.elements:
        if x in z:
            continue
        if not _is_abelian_subset(group, centralizer(group, x)):
            return False
    return True
