"""Finite groups of the four families, read from their presentations.

Each family's presentation lives in its record in `ncgspectra.families` as
five numbers, `Presentation(oa, ob, s, r, q)`.  A `FiniteGroup` holds one,
and everything here is read from it: the normal forms a^i b^j, the product
rule, the commutation masks and the centre.  The product and the
commutation relation thus come from one decision and cannot disagree.

Under the rule's preconditions a^i b^j and a^k b^l commute iff

    k (r^j - 1) = i (r^l - 1) (mod oa)  and  j (q^k - 1) = l (q^i - 1) (mod ob),

where the first congruence holds for every pair when r = 1 and the second
when q = 1.  With r^2 = 1 and q^2 = 1 each power depends on a parity only,
so every block of a mask is the solution set of one linear congruence: all
of the block, none of it, or an arithmetic progression.  The masks are
built from such progressions with O(1) big-integer operations per element,
and the centre from the same congruences at y = a and y = b with small
integers; no product is taken.  Centralizers, the CA check and the
non-commuting graph all read the masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from math import gcd
from typing import Callable, Iterator

from .families import GroupElement, GroupSpec, Presentation

Rule = Callable[[GroupElement, GroupElement], GroupElement]


def _check_presentation(p: Presentation) -> None:
    """Raise ValueError naming the first precondition of `Presentation` that p breaks."""
    oa, ob, s, r, q = p
    if oa < 1 or ob < 1:
        raise ValueError(f"{p!r} breaks the precondition oa >= 1 and ob >= 1")
    r_one, q_one = (r - 1) % oa == 0, (q - 1) % ob == 0
    checks = (
        (r_one or q_one, "r = 1 (mod oa) or q = 1 (mod ob)"),
        ((r * r - 1) % oa == 0, "r^2 = 1 (mod oa)"),
        ((q * q - 1) % ob == 0, "q^2 = 1 (mod ob)"),
        (r_one or ob % 2 == 0, "ob even unless r = 1 (mod oa)"),
        (q_one or oa % 2 == 0, "oa even unless q = 1 (mod ob)"),
        (q_one or s % oa == 0, "s = 0 (mod oa) unless q = 1 (mod ob)"),
        (s * (r - 1) % oa == 0, "s (r - 1) = 0 (mod oa)"),
    )
    for holds, condition in checks:
        if not holds:
            raise ValueError(f"{p!r} breaks the precondition {condition}")


def normal_form_rule(p: Presentation) -> Rule:
    """The product of normal forms under a^oa = 1, b^ob = a^s, b a = a^r b^q.

    b^j a^k = a^(k r^j) b^(j q^k), so (a^i b^j)(a^k b^l) is
    a^(i + k r^j) b^(j q^k + l); r^j and q^k are read off the parities, as
    r^2 = 1 and q^2 = 1, and each wrap of b^ob adds the central a^s.  q is
    reduced mod ob first, so the wraps do not depend on its representative.
    ValueError names the first broken precondition of `Presentation`.
    """
    _check_presentation(p)
    oa, ob, s, r, q = p
    r_pow, q_pow = (1, r), (1, q % ob)
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


def _progression(step: int, count: int) -> int:
    """Bits 0, step, 2 step, ..., (count - 1) step."""
    return ((1 << step * count) - 1) // ((1 << step) - 1)


def _masks_q_one(oa: int, ob: int, r: int) -> list[int]:
    """Masks when q = 1: the a-congruence k (r^j - 1) = i (r^l - 1) (mod oa).

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


def _masks_r_one(oa: int, ob: int, q: int) -> list[int]:
    """Masks when r = 1 and s = 0: the b-congruence j (q^k - 1) = l (q^i - 1) (mod ob).

    With t = ob / gcd(q - 1, ob) it reads, by the parities of i and k:
    i, k even: every l; i even, k odd: every l if t | j, else none;
    i odd, k even: t | l; i, k odd: l = j (mod t).  So a mask is the even-k
    and the odd-k bits of a block, each tiled over a progression of blocks,
    and it depends on (i mod 2, j mod t) only; oa is even as q != 1.
    """
    h = gcd(q - 1, ob)
    t = ob // h
    even_k = _progression(2, oa // 2)
    odd_k = even_k << 1
    blocks_t = _progression(oa * t, h)
    partial = even_k * _progression(oa, ob)
    i_even = [partial | odd_k * _progression(oa, ob)] + [partial] * (t - 1)
    i_odd = [even_k * blocks_t | odd_k * (blocks_t << oa * u) for u in range(t)]
    rows = ([even, odd] * (oa // 2) for even, odd in zip(i_even, i_odd))
    # row j is row j mod t of these, as t divides ob
    return list(chain.from_iterable(rows)) * h


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

        Read from the presentation's congruences (module docstring): the
        a-congruence when q = 1, else the b-congruence, as then r = 1 and
        s = 0.  Entries with equal masks share one integer.
        """
        oa, ob, _, r, q = self.presentation
        if (q - 1) % ob == 0:
            return tuple(_masks_q_one(oa, ob, r))
        return tuple(_masks_r_one(oa, ob, q))


def enumerate_elements(spec: GroupSpec) -> FiniteGroup:
    """All normal forms of the spec's presentation, lexicographic by (b_exp, a_exp)."""
    return FiniteGroup(spec, spec.presentation())


def center(group: FiniteGroup) -> set[GroupElement]:
    """Elements commuting with both generators a and b, which generate the group.

    The congruences at y = a (k = 1, l = 0) and y = b (k = 0, l = 1) make
    a^i b^j central iff r^j = 1 and j (q - 1) = 0 (mod ob), and i (r - 1) = 0
    (mod oa) and q^i = 1, conditions on j and on i apart; the masks are not
    built.
    """
    oa, ob, _, r, q = group.presentation
    r_one, q_one = (r - 1) % oa == 0, (q - 1) % ob == 0
    a_exps = [i for i in range(oa) if i * (r - 1) % oa == 0 and (q_one or i % 2 == 0)]
    b_exps = [j for j in range(ob) if j * (q - 1) % ob == 0 and (r_one or j % 2 == 0)]
    return {GroupElement(i, j) for j in b_exps for i in a_exps}


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
