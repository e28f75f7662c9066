"""Finite groups of the four families, read from their presentations.

Each family's presentation lives in its record in `ncgspectra.families` as
four numbers, `Presentation(oa, ob, s, r)`.  A `FiniteGroup` holds one, and
everything here is read from it: the normal forms a^i b^j, the product rule,
the commutation masks and the centre.  The product and the commutation
relation thus come from one decision and cannot disagree.

Under the rule's preconditions a^i b^j and a^k b^l commute iff

    k (r^j - 1) = i (r^l - 1) (mod oa),

which holds for every pair when r = 1.  With r^2 = 1 each power depends on a
parity only, so every block of a mask is the solution set of one linear
congruence: all of the block, none of it, or an arithmetic progression.  The
masks are built from such progressions with O(1) big-integer operations per
element, and the centre from the same congruence at y = a and y = b with
small integers; no product is taken.  The CA check and the non-commuting
graph read the masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd
from typing import Callable

from .exactalg import bit_indices
from .families import GroupElement, GroupSpec, Presentation

Rule = Callable[[GroupElement, GroupElement], GroupElement]


def _check_presentation(p: Presentation) -> None:
    """Raise ValueError naming the first precondition of `Presentation` that p breaks."""
    oa, ob, s, r = p
    if oa < 1 or ob < 1:
        raise ValueError(f"{p!r} breaks the precondition oa >= 1 and ob >= 1")
    checks = (
        ((r * r - 1) % oa == 0, "r^2 = 1 (mod oa)"),
        ((r - 1) % oa == 0 or ob % 2 == 0, "ob even unless r = 1 (mod oa)"),
        (s * (r - 1) % oa == 0, "s (r - 1) = 0 (mod oa)"),
    )
    for holds, condition in checks:
        if not holds:
            raise ValueError(f"{p!r} breaks the precondition {condition}")


def normal_form_rule(p: Presentation) -> Rule:
    """The product of normal forms under a^oa = 1, b^ob = a^s, b a = a^r b.

    b^j a^k = a^(k r^j) b^j, so (a^i b^j)(a^k b^l) is a^(i + k r^j) b^(j + l);
    r^j is read off the parity of j, as r^2 = 1, and a wrap of b^ob adds the
    central a^s.  ValueError names the first broken precondition of
    `Presentation`.
    """
    _check_presentation(p)
    oa, ob, s, r = p
    r_pow = (1, r)
    new = tuple.__new__  # GroupElement(...) without NamedTuple's Python-level __new__

    def mult(x: GroupElement, y: GroupElement) -> GroupElement:
        i, j = x
        k, l = y
        wrap, e = divmod(j + l, ob)
        return new(GroupElement, ((i + k * r_pow[j & 1] + wrap * s) % oa, e))

    return mult


def _progression(step: int, count: int) -> int:
    """Bits 0, step, 2 step, ..., (count - 1) step."""
    return ((1 << step * count) - 1) // ((1 << step) - 1)


def _masks(oa: int, ob: int, r: int) -> list[int]:
    """The masks from the congruence k (r^j - 1) = i (r^l - 1) (mod oa).

    With t = oa / gcd(r - 1, oa) it reads, by the parities of j and l:
    j, l even: every k; j even, l odd: every k if t | i, else none;
    j odd, l even: t | k; j, l odd: k = i (mod t).  So block l of a mask is
    one of two oa-bit patterns by the parity of l, tiled over the blocks by
    the even-block and odd-block progressions, and a mask depends on
    (j mod 2, i mod t) only.
    """
    g = gcd(r - 1, oa)
    t = oa // g
    block = (1 << oa) - 1
    every_t = _progression(t, g)
    even_blocks = _progression(2 * oa, (ob + 1) // 2)
    odd_blocks = _progression(2 * oa, ob // 2) << oa
    partial = block * even_blocks
    j_even = [partial | block * odd_blocks] + [partial] * (t - 1)
    j_odd = [every_t * even_blocks | (every_t << u) * odd_blocks for u in range(t)]
    # entry i of a row is entry i mod t of these, as t divides oa
    return (j_even * g + j_odd * g) * (ob // 2) + j_even * g * (ob % 2)


@dataclass(frozen=True)
class FiniteGroup:
    """A fully enumerated group: its spec, its presentation and its normal forms.

    The presentation defines the group and the spec names it.  The elements
    are the normal forms a^i b^j, i in range(oa) and j in range(ob), ordered
    by (b_exp, a_exp), so element k is a^(k mod oa) b^(k div oa).  `mult`
    is `normal_form_rule(presentation)`, and the commutation masks and the
    centre read the same presentation's congruences.  The constructor
    raises ValueError if the presentation breaks a precondition of the rule.
    """

    spec: GroupSpec
    presentation: Presentation
    elements: tuple[GroupElement, ...] = field(init=False)
    mult: Rule = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        p = self.presentation
        object.__setattr__(self, "mult", normal_form_rule(p))
        elems = tuple(GroupElement(a, b) for b in range(p.ob) for a in range(p.oa))
        object.__setattr__(self, "elements", elems)

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
        """Bit y of entry x is set iff elements x and y commute.

        Read from the presentation's congruence (module docstring).  Entries
        with equal masks share one integer.
        """
        oa, ob, _, r = self.presentation
        return tuple(_masks(oa, ob, r))


def enumerate_elements(spec: GroupSpec) -> FiniteGroup:
    """All normal forms of the spec's presentation, lexicographic by (b_exp, a_exp)."""
    return FiniteGroup(spec, spec.presentation())


def center(group: FiniteGroup) -> set[GroupElement]:
    """Elements commuting with both generators a and b, which generate the group.

    The congruence at y = a (k = 1, l = 0) and y = b (k = 0, l = 1) makes
    a^i b^j central iff r^j = 1 and i (r - 1) = 0 (mod oa), conditions on j
    and on i apart; the masks are not built.
    """
    oa, ob, _, r = group.presentation
    r_one = (r - 1) % oa == 0
    a_exps = [i for i in range(oa) if i * (r - 1) % oa == 0]
    b_exps = [j for j in range(ob) if r_one or j % 2 == 0]
    return {GroupElement(i, j) for j in b_exps for i in a_exps}


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
