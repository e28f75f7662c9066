"""Closed-form spectra of the non-commuting graphs of the four families.

The stated closed forms are transcribed in `ncgspectra.families`, one record
per family; this module normalizes them into canonical spectra, expands them
into polynomials, and builds explicit eigenvector families for Q_4n.  The
verifier, not this module, arbitrates each claim against the oracle.

Conjugate surd eigenvalue pairs are stored as monic integer quadratics by
(sum, product), never as floating radicals.  Whenever such a pair has a
perfect-square discriminant it is normalized into its two integer roots, so no
pair with a square discriminant ever appears in output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .exactalg import (
    IntPolynomial,
    POLY_ONE,
    QuadraticEig,
    rational_roots_of_quadratic,
)
from .families import EigDesc, GroupSpec, MatrixKind, scaled_root_pair
from .graphs import PartitionStructure, oracle


class NonIntegralSpectrum(ValueError):
    """A non-integer rational eigenvalue survived normalization."""


@dataclass(frozen=True)
class SpectrumSpec:
    """Exact eigenvalue multiset: integers plus conjugate quadratic pairs."""

    order: int
    kind: MatrixKind
    entries: tuple[tuple[EigDesc, int], ...]

    @property
    def eigenvalue_count(self) -> int:
        return sum(
            (2 if isinstance(d, QuadraticEig) else 1) * m for d, m in self.entries
        )

    @property
    def eigenvalue_sum(self) -> int:
        return sum(
            (d.s if isinstance(d, QuadraticEig) else d) * m for d, m in self.entries
        )

    @property
    def is_integral(self) -> bool:
        return all(isinstance(d, int) for d, _ in self.entries)


def make_spectrum(
    order: int, kind: MatrixKind, raw: Iterable[tuple[EigDesc, int]]
) -> SpectrumSpec:
    """Normalize, merge and order raw entries into a canonical SpectrumSpec.

    Pairs with square discriminant are split into integers, zero
    multiplicities are dropped, duplicates merged, and the bookkeeping
    (eigenvalue count == order) is enforced.
    """
    ints: dict[int, int] = {}
    pairs: dict[QuadraticEig, int] = {}
    for desc, mult in raw:
        if mult < 0:
            raise ValueError(f"negative multiplicity {mult} for {desc}")
        if mult == 0:
            continue
        if isinstance(desc, QuadraticEig):
            roots = desc.integer_roots()
            if roots is None:
                pairs[desc] = pairs.get(desc, 0) + mult
            else:
                for r in roots:
                    ints[r] = ints.get(r, 0) + mult
        else:
            ints[desc] = ints.get(desc, 0) + mult
    entries: list[tuple[EigDesc, int]] = sorted(ints.items())
    entries.extend(sorted(pairs.items(), key=lambda e: (e[0].s, e[0].p)))
    spec = SpectrumSpec(order, kind, tuple(entries))
    if spec.eigenvalue_count != order:
        raise ValueError(
            f"multiplicities sum to {spec.eigenvalue_count}, expected {order}"
        )
    return spec


def entry_factor(desc: EigDesc) -> IntPolynomial:
    """The monic factor of one spectrum entry: x - v, or x^2 - s*x + p for a pair."""
    if isinstance(desc, QuadraticEig):
        return IntPolynomial((desc.p, -desc.s, 1))
    if isinstance(desc, int):
        return IntPolynomial.x_minus(desc)
    raise NonIntegralSpectrum(f"cannot expand entry {desc!r}")


def spectrum_to_polynomial(spectrum: SpectrumSpec) -> IntPolynomial:
    """Expand the product of every entry's factor to its multiplicity, exactly."""
    result = POLY_ONE
    for desc, mult in spectrum.entries:
        result = result * entry_factor(desc) ** mult
    return result


def multipartite_distance_charpoly(
    partition: PartitionStructure | Sequence[int],
) -> IntPolynomial:
    """Distance characteristic polynomial of K_{n_1,...,n_k}, expanded exactly.

    (x+2)^(N-k) * [ prod_i (x - n_i + 2) - sum_i n_i * prod_{j != i} (x - n_j + 2) ]
    """
    if isinstance(partition, PartitionStructure):
        sizes = partition.sizes
    else:
        sizes = tuple(int(s) for s in partition)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    total = sum(sizes)
    k = len(sizes)
    linear = [IntPolynomial((2 - s, 1)) for s in sizes]
    prefix = [POLY_ONE]
    for lin in linear:
        prefix.append(prefix[-1] * lin)
    suffix = [POLY_ONE]
    for lin in reversed(linear):
        suffix.append(suffix[-1] * lin)
    suffix.reverse()
    bracket = prefix[k]
    for i, size in enumerate(sizes):
        bracket = bracket - size * (prefix[i] * suffix[i + 1])
    return IntPolynomial((2, 1)) ** (total - k) * bracket


def spectrum_for(spec: GroupSpec, kind: MatrixKind) -> SpectrumSpec:
    """The family's stated closed-form spectrum of the chosen matrix, normalized.

    The multiplicities must add up to the order of the claimed graph.
    """
    record = spec.record
    n, m = spec.n, spec.m
    big, size, count = record.parts(n, m)
    return make_spectrum(big + size * count, kind, record.closed_forms[kind](n, m))


def claimed_partition_sizes(spec: GroupSpec) -> tuple[int, ...]:
    """Part sizes the family's non-commuting graph is claimed to have, largest first."""
    big, size, count = spec.record.parts(spec.n, spec.m)
    return (big,) + (size,) * count


@dataclass(frozen=True)
class EigenFamily:
    """A named batch of integer eigenvectors sharing one integer eigenvalue."""

    eigenvalue: int
    label: str
    vectors: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class EigenbasisResult:
    """Explicit eigenvector families for a Laplacian-type matrix of Q_4n.

    When the scaled-constant eigenvectors of the signless Laplacian would need
    an irrational scale t, they are omitted and the monic quadratic whose
    roots they would realize is reported in `irrational_pair`.
    """

    kind: MatrixKind
    n: int
    families: tuple[EigenFamily, ...]
    irrational_pair: QuadraticEig | None = None

    @property
    def vector_count(self) -> int:
        return sum(len(f.vectors) for f in self.families)


def _basis_vector(length: int, assignments: dict[int, int]) -> tuple[int, ...]:
    v = [0] * length
    for idx, val in assignments.items():
        v[idx] = val
    return tuple(v)


def eigenbasis_q4n(kind: MatrixKind, n: int) -> EigenbasisResult:
    """Explicit integer eigenvectors for D^L or D^Q of the graph of Q_4n.

    Vertices are in part-major order: the 2n-2 cyclic-part vertices first,
    then n parts of size 2.  Every returned vector v is verified exactly
    against the actual matrix: M v = eigenvalue * v.
    """
    if kind == MatrixKind.DISTANCE:
        raise ValueError("eigenbasis is available for dl and dq only")
    spec = GroupSpec.q4n(n)
    matrix = oracle(spec, kind).matrix
    order = matrix.n
    big = claimed_partition_sizes(spec)[0]

    def small(p: int) -> int:
        return big + 2 * p

    small_diff = tuple(
        _basis_vector(order, {small(p): -1, small(p) + 1: 1}) for p in range(n)
    )
    big_diff = tuple(_basis_vector(order, {0: -1, i: 1}) for i in range(1, big))
    irrational: QuadraticEig | None = None
    if kind == MatrixKind.DISTANCE_LAPLACIAN:
        families = [
            EigenFamily(0, "all-ones", (tuple([1] * order),)),
            EigenFamily(
                4 * n - 2,
                "big-part-vs-one-small-part",
                tuple(
                    tuple(
                        [-1] * big
                        + [n - 1 if q == p else 0 for q in range(n) for _ in range(2)]
                    )
                    for p in range(n)
                ),
            ),
            EigenFamily(4 * n, "small-part-difference", small_diff),
            EigenFamily(6 * n - 4, "big-part-difference", big_diff),
        ]
    else:
        families = [
            EigenFamily(4 * n - 4, "small-part-difference", small_diff),
            EigenFamily(6 * n - 8, "big-part-difference", big_diff),
            EigenFamily(
                4 * n - 2,
                "small-part-vs-small-part",
                tuple(
                    _basis_vector(
                        order,
                        {
                            small(0): -1,
                            small(0) + 1: -1,
                            small(p): 1,
                            small(p) + 1: 1,
                        },
                    )
                    for p in range(1, n)
                ),
            ),
        ]
        tquad = spec.record.t_quadratic(n, None)
        roots = rational_roots_of_quadratic(*tquad)
        if roots is None:
            irrational = scaled_root_pair(tquad, 2 * n - 2, 6 * n - 2)
        else:
            for t in roots:
                num, den = t.numerator, t.denominator
                mu_num = (2 * n - 2) * num + (6 * n - 2) * den
                if mu_num % den:
                    raise ArithmeticError("scaled-constant eigenvalue not integral")
                vec = tuple([num] * big + [den] * (2 * n))
                families.append(
                    EigenFamily(mu_num // den, "scaled-constant", (vec,))
                )

    for family in families:
        for vec in family.vectors:
            image = matrix.mat_vec(vec)
            expect = tuple(family.eigenvalue * x for x in vec)
            if image != expect:
                raise ArithmeticError(
                    f"vector {vec} fails M v = {family.eigenvalue} v "
                    f"for {kind} at n={n}"
                )
    return EigenbasisResult(kind, n, tuple(families), irrational)
