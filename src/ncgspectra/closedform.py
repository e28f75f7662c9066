"""Closed-form spectra of the non-commuting graphs of the four families.

The stated closed forms are transcribed in `ncgspectra.families`, one record
per family; this module normalizes them into canonical spectra, expands them
into polynomials, and checks the record's Q_4n D^L and D^Q spectra with
explicit eigenvectors.  The verifier arbitrates each claim against the oracle.

Conjugate surd eigenvalue pairs are stored as monic integer quadratics by
(sum, product), never as floating radicals.  Whenever such a pair has a
perfect-square discriminant it is normalized into its two integer roots, so no
pair with a square discriminant ever appears in output.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import repeat
from operator import add, mul
from typing import Iterable, Sequence

from .exactalg import (
    IntPolynomial,
    POLY_ONE,
    QuadraticEig,
    rational_roots_of_quadratic,
    twin_eigenvalue,
)
from .families import EigDesc, GroupSpec, MatrixKind
from .graphs import PartitionStructure, matrix_of_kind, oracle


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
    count = 0
    for desc, mult in raw:
        if mult < 0:
            raise ValueError(f"negative multiplicity {mult} for {desc}")
        if mult == 0:
            continue
        if isinstance(desc, QuadraticEig):
            count += 2 * mult
            roots = desc.integer_roots()
            if roots is None:
                pairs[desc] = pairs.get(desc, 0) + mult
            else:
                for r in roots:
                    ints[r] = ints.get(r, 0) + mult
        else:
            count += mult
            ints[desc] = ints.get(desc, 0) + mult
    entries: list[tuple[EigDesc, int]] = sorted(ints.items())
    if pairs:
        entries.extend(sorted(pairs.items(), key=lambda e: (e[0].s, e[0].p)))
    if count != order:
        raise ValueError(f"multiplicities sum to {count}, expected {order}")
    return SpectrumSpec(order, kind, tuple(entries))


def entry_factor(desc: EigDesc) -> IntPolynomial:
    """The monic factor of one spectrum entry: x - v, or x^2 - s*x + p for a pair."""
    if isinstance(desc, QuadraticEig):
        return IntPolynomial((desc.p, -desc.s, 1))
    if isinstance(desc, int):
        return IntPolynomial.x_minus(desc)
    raise NonIntegralSpectrum(f"cannot expand entry {desc!r}")


def _expand(
    entries: Iterable[tuple[EigDesc, int]], poly: IntPolynomial = POLY_ONE
) -> IntPolynomial:
    """poly times each entry's factor to its multiplicity, exactly."""
    for desc, mult in entries:
        poly = poly * entry_factor(desc) ** mult
    return poly


def spectrum_to_polynomial(spectrum: SpectrumSpec) -> IntPolynomial:
    """Expand the product of every entry's factor to its multiplicity, exactly."""
    return _expand(spectrum.entries)


def multipartite_distance_charpoly(
    partition: PartitionStructure | Sequence[int],
) -> IntPolynomial:
    """Distance characteristic polynomial of K_{n_1,...,n_k}, expanded exactly.

    (x+2)^(N-k) * prod_s L_s^(c_s-1) * [ prod_s L_s - sum_s c_s*s * prod_{u != s} L_u ]
    over the distinct sizes s, with c_s parts of size s and L_s = x - s + 2.
    """
    if isinstance(partition, PartitionStructure):
        sizes = partition.sizes
    else:
        sizes = tuple(int(s) for s in partition)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    counts = Counter(sizes)
    linear = {size: IntPolynomial((2 - size, 1)) for size in counts}
    scale, bracket = POLY_ONE, reduce(mul, linear.values())
    for size, count in counts.items():
        others = reduce(mul, (f for u, f in linear.items() if u != size), POLY_ONE)
        bracket = bracket - count * size * others
        scale = scale * linear[size] ** (count - 1)
    # `*` loops over the sparser operand's nonzero coefficients (L_2 = x)
    return scale * bracket * IntPolynomial((2, 1)) ** (sum(sizes) - len(sizes))


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


# The vector family realizing each entry of the stated D^L or D^Q closed form.
_Q4N_FAMILIES = {
    MatrixKind.DISTANCE_LAPLACIAN: (
        "all-ones", "big-part-vs-one-small-part",
        "small-part-difference", "big-part-difference",
    ),
    MatrixKind.DISTANCE_SIGNLESS_LAPLACIAN: (
        "small-part-difference", "big-part-difference",
        "small-part-vs-small-part", "scaled-constant",
    ),
}


# The families of differences e_i - e_f of a part's vertex and its first vertex.
_DIFFERENCES = frozenset({"small-part-difference", "big-part-difference"})


def _on_blocks(order: int, *blocks: tuple[Sequence[int], int]) -> tuple[int, ...]:
    """The vector holding each block's value on its indices and 0 elsewhere."""
    v = [0] * order
    for indices, value in blocks:
        for i in indices:
            v[i] = value
    return tuple(v)


def _differences(parts: Sequence[Sequence[int]]) -> list:
    """The blocks of e_i - e_first for every index i after the first of each part."""
    return [((p[:1], -1), ((i,), 1)) for p in parts for i in p[1:]]


def eigenbasis_q4n(kind: MatrixKind, n: int) -> EigenbasisResult:
    """Explicit integer eigenvectors for D^L or D^Q of the graph of Q_4n.

    The vectors check the spectrum stated in the family record: entry i of
    its raw closed form is realized by the i-th family of `_Q4N_FAMILIES`.
    The D^Q pair's integer roots, ascending, go with the ascending roots t of
    `t_quadratic`, each by the vector t on the big part and 1 elsewhere,
    cleared of denominators; a pair without integer roots is reported as
    `irrational_pair`.  Vertices are in the certified part-major order.  A
    vector failing M v = eigenvalue * v on the actual matrix, or a family
    whose vector count is not its stated multiplicity, raises ArithmeticError.
    A difference e_i - e_f inside a part has M v = column i - column f, so it
    is checked by `twin_eigenvalue`'s comparison of the two columns' slices,
    with no n-length arithmetic.  Every other vector is built from disjoint
    (indices, value) blocks, so M v is the sum of value * S_J over its blocks
    J, where S_J, the sum of the columns in J, is formed once per distinct
    block.
    """
    if kind == MatrixKind.DISTANCE:
        raise ValueError("eigenbasis is available for dl and dq only")
    spec = GroupSpec.q4n(n)
    staged = oracle(spec)
    matrix, order = matrix_of_kind(staged.distance, kind), staged.graph.order
    big, *small = staged.partition.classes
    shapes = {
        "all-ones": lambda: [((tuple(range(order)), 1),)],
        "big-part-vs-one-small-part": lambda: [
            ((big, -1), (p, len(big) // len(p))) for p in small
        ],
        "small-part-difference": lambda: _differences(small),
        "big-part-difference": lambda: _differences([big]),
        "small-part-vs-small-part": lambda: [
            ((small[0], -1), (p, 1)) for p in small[1:]
        ],
    }
    stated: list[tuple[int, str, list, int]] = []
    irrational: QuadraticEig | None = None
    entries = spec.record.closed_forms[kind](n, None)
    for (desc, mult), label in zip(entries, _Q4N_FAMILIES[kind], strict=True):
        if not isinstance(desc, QuadraticEig):
            stated.append((desc, label, shapes[label](), mult))
        elif desc.integer_roots() is None:
            irrational = desc
        else:
            ts = rational_roots_of_quadratic(*spec.record.t_quadratic(n, None))
            if ts is None:
                raise ArithmeticError(f"stated pair {desc} is integral, t is not")
            rest = tuple(range(len(big), order))
            for mu, t in zip(desc.integer_roots(), ts):
                blocks = ((big, t.numerator), (rest, t.denominator))
                stated.append((mu, label, [blocks], mult))
    columns = matrix.columns

    @cache
    def column_sum(indices: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(sum, zip(*(columns[j] for j in indices))))

    families = []
    for eigenvalue, label, vector_blocks, mult in stated:
        if len(vector_blocks) != mult:
            raise ArithmeticError(
                f"{label} has {len(vector_blocks)} vectors, stated "
                f"multiplicity {mult}, for {kind} at n={n}"
            )
        vectors = tuple(_on_blocks(order, *blocks) for blocks in vector_blocks)
        families.append(EigenFamily(eigenvalue, label, vectors))
        for vec, blocks in zip(vectors, vector_blocks):
            if label in _DIFFERENCES:
                ((f,), _), ((i,), _) = blocks
                holds = twin_eigenvalue(columns, f, i) == eigenvalue
            else:
                scaled = (map(mul, column_sum(J), repeat(x)) for J, x in blocks)
                holds = tuple(reduce(partial(map, add), scaled)) == tuple(
                    map(mul, vec, repeat(eigenvalue))
                )
            if not holds:
                raise ArithmeticError(
                    f"vector {vec} fails M v = {eigenvalue} v for {kind} at n={n}"
                )
    return EigenbasisResult(kind, n, tuple(families), irrational)
