"""End-to-end arbitration: closed-form spectra against the exact oracle.

The oracle (group -> graph -> matrix -> characteristic polynomial) is ground
truth; the closed forms are claims under test.  The oracle's characteristic
polynomial is kept factored, as `char_poly_factors` finds it: the checked
twin eigenvalues and one dense block.  The closed form's entries are monic
irreducible factors over Q; each is matched first against the eigenvalues,
then divided out of the block, which by unique factorization decides
equality of the expanded polynomials exactly.  A match and a mismatch build
their report the same way, and it stays factored: the stated entries that
matched, what is left of the oracle's factors (the residual) and the stated
entries that did not divide.  Neither polynomial is expanded until
something reads it; a mismatch's first differing coefficient is read off
the factors, truncated just past that coefficient.  A mismatch never aborts
a grid run.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from typing import Iterable, Iterator

from .closedform import _expand, entry_factor, spectrum_for
from .exactalg import (
    POLY_ONE,
    IntPolynomial,
    char_poly_factors,
    is_perfect_square,
    rational_roots_of_quadratic,
)
from .families import ALL_KINDS, EigDesc, GroupSpec, MatrixKind
from .graphs import Oracle, OrderCapExceeded, PartitionStructure, matrix_of_kind, oracle

DEFAULT_ORDER_CAP = 150

# One instance's failure, in a grid run and on the command line.  ValueError
# covers invalid parameters, the oracle's refusals and CPython's int-to-str
# digit limit; ArithmeticError an inexact division or the prime table's end.
# Any other exception is a programming error and propagates.
INSTANCE_FAILURES = (ValueError, ArithmeticError)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one closed-form-versus-oracle comparison.

    `order` is the graph order |G| - |Z(G)|.  An error report has it once the
    oracle built the graph or when OrderCapExceeded names it, else None.

    The two characteristic polynomials are kept factored.  `shared` holds
    the stated entries that matched; the oracle's polynomial is their
    product times `residual` (None on a match, where it is 1), the closed
    form's their product times the `unmatched_closed` entries.
    `oracle_poly` and `closed_poly` expand them when first read and keep the
    result; an error report's are both 0.
    """

    group: GroupSpec
    kind: MatrixKind
    order: int | None
    matched: bool
    partition: PartitionStructure | None
    diff_summary: str = ""
    residual: IntPolynomial | None = None
    unmatched_closed: tuple[tuple[EigDesc, int], ...] = ()
    error: str | None = None
    shared: tuple[tuple[EigDesc, int], ...] = ()

    @cached_property
    def _shared_poly(self) -> IntPolynomial:
        return _expand(self.shared)

    @cached_property
    def oracle_poly(self) -> IntPolynomial:
        if self.error is not None:
            return IntPolynomial()
        if self.residual is None:
            return self._shared_poly
        return self._shared_poly * self.residual

    @cached_property
    def closed_poly(self) -> IntPolynomial:
        if self.error is not None:
            return IntPolynomial()
        return _expand(self.unmatched_closed, self._shared_poly)


@dataclass(frozen=True)
class IntegralityRecord:
    """Integrality of one spectrum: the stated condition vs computation."""

    group: GroupSpec
    kind: MatrixKind
    predicted_integral: bool
    computed_integral: bool
    witness: int | None = None
    note: str = ""

    @property
    def agree(self) -> bool:
        return self.predicted_integral == self.computed_integral


def _factor_out(
    rest: IntPolynomial, entries: Iterable[tuple[EigDesc, int]]
) -> tuple[IntPolynomial, tuple[tuple[EigDesc, int], ...]]:
    """Divide each entry's factor out of `rest`, at most its multiplicity times.

    Returns what is left of `rest` and the entries, in their order, with the
    multiplicities that did not divide.  A constant `rest` divides nothing.
    """
    leftover = []
    for desc, mult in entries:
        factor = entry_factor(desc)
        used = 0
        while used < mult:
            quot, rem = rest.divmod_monic(factor)
            if not rem.is_zero:
                break
            rest = quot
            used += 1
        if used < mult:
            leftover.append((desc, mult - used))
    return rest, tuple(leftover)


def _minus(
    entries: Iterable[tuple[EigDesc, int]], other: Iterable[tuple[EigDesc, int]]
) -> list[tuple[EigDesc, int]]:
    """The entries whose multiplicity exceeds other's, by the excess, in their order."""
    counts = dict(other)
    return [(d, m - counts.get(d, 0)) for d, m in entries if m > counts.get(d, 0)]


def _expand_low(entries: Iterable[tuple[EigDesc, int]], k: int) -> tuple[int, ...]:
    """The coefficients of x^0 .. x^(k-1) of each entry's factor to its multiplicity, multiplied."""

    def low(p: IntPolynomial) -> IntPolynomial:
        return IntPolynomial(p.coeffs[:k])

    poly = POLY_ONE
    for desc, mult in entries:
        base = low(entry_factor(desc))
        while mult:
            if mult & 1:
                poly = low(poly * base)
            mult >>= 1
            if mult:
                base = low(base * base)
    return poly.coeffs + (0,) * (k - len(poly.coeffs))


def _diff_summary(
    shared: tuple[tuple[EigDesc, int], ...],
    residual: IntPolynomial,
    unmatched: tuple[tuple[EigDesc, int], ...],
) -> str:
    """The lowest coefficient in which the two polynomials differ, read off their factors.

    The oracle polynomial is S*R and the closed one S*U, with S the shared
    product, R the residual and U the unmatched product.  S = x^z * S' with z
    the multiplicity of 0 among the shared entries, so the lowest differing
    index is z + j, j the lowest index in which R and U differ, and the two
    values are the x^j coefficients of S'*R and S'*U: only x^0 .. x^j of S'
    is formed.  On a mismatch R != U: each unmatched entry is a monic
    irreducible that does not divide R, and R != 1 when none is left.
    """
    a, b = residual.coeffs, _expand(unmatched).coeffs
    width = max(len(a), len(b))
    a, b = a + (0,) * (width - len(a)), b + (0,) * (width - len(b))
    j = next(i for i in range(width) if a[i] != b[i])
    s = _expand_low([(d, m) for d, m in shared if d != 0], j + 1)
    va = sum(s[u] * a[j - u] for u in range(j + 1))
    vb = sum(s[u] * b[j - u] for u in range(j + 1))
    i = dict(shared).get(0, 0) + j
    return f"first differing coefficient at x^{i}: oracle={va}, closed={vb}"


def verify_instance(
    spec: GroupSpec, kind: MatrixKind, order_cap: int = DEFAULT_ORDER_CAP
) -> VerificationReport:
    """Compare the closed-form spectrum polynomial with the oracle, exactly."""
    return _compare(spec, kind, oracle(spec, order_cap))


def _compare(spec: GroupSpec, kind: MatrixKind, staged: Oracle) -> VerificationReport:
    """Everything after the oracle: factored char poly, closed form and comparison.

    Every stated entry is a monic irreducible over Q: x - v, or a quadratic
    whose discriminant is not a square.  Each is matched first against the
    oracle's twin eigenvalues, up to their multiplicity, and what they do
    not cover is divided out of the dense block, whatever its degree, at
    most the entry's multiplicity times.  By unique factorization the two
    polynomials are equal iff no eigenvalue is left uncovered, the block
    leaves 1 and no stated multiplicity is left over.  The matched entries
    are the report's `shared`, the uncovered eigenvalues times what is left
    of the block its residual, and the multiplicities left over its
    `unmatched_closed`.  Match or mismatch, one path builds the report,
    which keeps the entries factored: a match expands nothing, a mismatch
    its residual and the unmatched product.  A match's two polynomials are
    equal, so its `diff_summary` is empty and its residual None.  A
    mismatch's `diff_summary` is formed here all the same, so a value past
    CPython's int-to-str digit limit raises its ValueError in this call, as
    does `entry_factor` on an entry it cannot expand.
    """
    roots, block = char_poly_factors(matrix_of_kind(staged.distance, kind))
    stated = spectrum_for(spec, kind).entries
    block, unmatched = _factor_out(block, _minus(stated, roots.items()))
    shared = tuple(_minus(stated, unmatched))
    for desc, _ in shared:
        entry_factor(desc)  # refuses an entry it cannot expand, on a match too
    uncovered = _minus(roots.items(), stated)
    matched = not uncovered and not unmatched and block == POLY_ONE
    residual = None if matched else _expand(uncovered, block)
    return VerificationReport(
        spec,
        kind,
        staged.graph.order,
        matched,
        staged.partition,
        diff_summary="" if matched else _diff_summary(shared, residual, unmatched),
        residual=residual,
        unmatched_closed=unmatched,
        shared=shared,
    )


def _error_report(
    spec: GroupSpec, kind: MatrixKind, order: int | None, exc: Exception
) -> VerificationReport:
    return VerificationReport(spec, kind, order, False, None,
                              error=f"{type(exc).__name__}: {exc}")


def _verify_job(args: tuple[GroupSpec, tuple, int]) -> list[VerificationReport]:
    spec, kinds, cap = args
    try:
        staged = oracle(spec, cap)
    except INSTANCE_FAILURES as exc:
        order = exc.order if isinstance(exc, OrderCapExceeded) else None
        return [_error_report(spec, kind, order, exc) for kind in kinds]
    reports = []
    for kind in kinds:
        try:
            reports.append(_compare(spec, kind, staged))
        except INSTANCE_FAILURES as exc:
            reports.append(_error_report(spec, kind, staged.graph.order, exc))
    return reports


# A pool task is a chunk of at most this many groups, and each worker has
# at most four chunks in flight, so a pool's memory does not grow with the scan.
POOL_CHUNK = 64


def _verify_chunk(work: list[tuple[GroupSpec, tuple, int]]) -> list[VerificationReport]:
    return [report for job in work for report in _verify_job(job)]


def iter_verify(
    specs: Iterable[GroupSpec],
    kinds: tuple[MatrixKind, ...] = ALL_KINDS,
    order_cap: int = DEFAULT_ORDER_CAP,
    jobs: int = 1,
) -> Iterator[VerificationReport]:
    """Yield verify_instance's reports over the grid, never aborting on one failure.

    Each group's oracle is built once for all of `kinds`.  An instance raising
    one of INSTANCE_FAILURES (every kind, if the oracle raised) becomes an
    error report with `error` set to the exception's type and message; any
    other exception is a programming error and propagates.  Reports are in
    (spec, kind) order.  Groups run in a pool of min(jobs, groups, CPUs)
    processes if that is > 1.  `specs` is drawn lazily: the pool counts the
    groups of a first draw of 4 * POOL_CHUNK per possible worker, cuts them
    into about four chunks per worker, and keeps at most that many chunks in
    flight, drawing the next chunk as each result is taken.
    """
    work = ((spec, kinds, order_cap) for spec in specs)
    workers = jobs
    if jobs > 1:
        most = min(jobs, os.cpu_count() or 1)
        first = list(islice(work, 4 * most * POOL_CHUNK))
        workers = min(most, len(first))
        work = chain(first, work)
    if workers <= 1:
        yield from chain.from_iterable(map(_verify_job, work))
        return
    # imported here, not at the top: the pool machinery (multiprocessing)
    # is about a third of the package's import time
    from concurrent.futures import ProcessPoolExecutor

    size = math.ceil(len(first) / (4 * workers))
    chunks = iter(lambda: list(islice(work, size)), [])
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = deque(pool.submit(_verify_chunk, c) for c in islice(chunks, 4 * workers))
        while pending:
            reports = pending.popleft().result()
            pending.extend(pool.submit(_verify_chunk, c) for c in islice(chunks, 1))
            yield from reports


def verify_grid(
    specs: Iterable[GroupSpec],
    kinds: tuple[MatrixKind, ...] = ALL_KINDS,
    order_cap: int = DEFAULT_ORDER_CAP,
    jobs: int = 1,
) -> list[VerificationReport]:
    """iter_verify's reports as a list."""
    return list(iter_verify(specs, kinds, order_cap, jobs))


def default_grid() -> list[GroupSpec]:
    """The desk-scale parameter grid: every instance has graph order <= 150."""
    specs = [GroupSpec.q4n(n) for n in range(2, 13)]
    specs += [GroupSpec.qd(n) for n in range(4, 8)]
    specs += [GroupSpec.u6n(n) for n in range(1, 11)]
    specs += [GroupSpec.metacyclic(m, n) for m in range(3, 11) for n in range(1, 5)]
    return specs


def predicted_integral(spec: GroupSpec, kind: MatrixKind) -> tuple[bool, int | None, str]:
    """The stated arithmetic integrality condition, evaluated exactly.

    Distance: the family's square-free core must be a perfect square.
    Distance Laplacian: always integral.  Signless Laplacian: both roots t of
    the family's quadratic must be integers (U_6n and M_8n have no quadratic
    and are stated as always integral).  Returns (predicted, witness, note).
    The witness is the integer square root that certifies a true prediction:
    of the core for D, and for D^Q of the t quadratic's discriminant, read
    off its roots as |a|*(t2 - t1).  For a rational non-integral t the note
    records its denominator as evidence.
    """
    if kind == MatrixKind.DISTANCE_LAPLACIAN:
        return True, None, "integral for all parameters"
    record = spec.record
    if kind == MatrixKind.DISTANCE:
        core = record.distance_core(spec.n, spec.m)
        root = is_perfect_square(core)
        return root is not None, root, f"square core {core}"
    tquad = record.t_quadratic(spec.n, spec.m)
    if tquad is None:
        return True, None, "integral for all parameters"
    roots = rational_roots_of_quadratic(*tquad)
    if roots is None:
        return False, None, "irrational t"
    dens = sorted({r.denominator for r in roots if r.denominator != 1})
    if dens:
        return False, None, f"rational t with denominator {dens[0]}"
    return True, int(abs(tquad[0]) * (roots[1] - roots[0])), "integral t"


def integrality_record(spec: GroupSpec, kind: MatrixKind) -> IntegralityRecord:
    predicted, witness, note = predicted_integral(spec, kind)
    computed = spectrum_for(spec, kind).is_integral
    return IntegralityRecord(spec, kind, predicted, computed, witness, note)


def iter_integral(
    specs: Iterable[GroupSpec], kind: MatrixKind
) -> Iterator[IntegralityRecord]:
    """Yield records with predicted_integral true, plus every disagreement record.

    A disagreement (predicted != computed) is a finding about the stated
    condition and is always included, never silently dropped.
    """
    for spec in specs:
        rec = integrality_record(spec, kind)
        if rec.predicted_integral or not rec.agree:
            yield rec


def search_integral(
    specs: Iterable[GroupSpec], kind: MatrixKind
) -> list[IntegralityRecord]:
    """iter_integral's records as a list."""
    return list(iter_integral(specs, kind))
