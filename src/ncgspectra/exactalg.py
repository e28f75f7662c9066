"""Arbitrary-precision integer matrices, polynomials and exact characteristic polynomials.

Everything here is exact: Python integers throughout, no floating point
anywhere.  There is one characteristic-polynomial engine, `char_poly`: the
checked eigenvalues of twin indices split off, then a dense engine on what
is left.  One pass scans the indices in order: index v joins the current
run, whose first index is s, when column v minus column s is checked to be
lambda (e_v - e_s), and starts a new run otherwise.  Each such lambda splits
off, and the same pass repeats on the leader block of the runs' first
indices until it finds no twin.  The first pass has two readers: a dense
`IntMatrix` compares column slices (`twin_eigenvalue`), and a `MaskMatrix`,
a symmetric matrix given by one neighbour mask per index, a diagonal and
two off-diagonal values, compares masks and forms the leader block from
the bits of the sparser of each leader's mask and its complement, with no
n x n table; every later pass, and the engine, is dense.
For the part-major D, D^L and D^Q of a complete multipartite graph the
first runs are its parts, with all parts of one vertex as a single run; for
the four families here the recursion ends in a block of order 2 for D and
D^Q and of order 1 for D^L.
That block is reduced to upper Hessenberg form, and the Hessenberg
recurrence is run, modulo a prime above twice an a-priori bound on the
block's coefficients, so that the symmetric residues are the exact integers.
The bound is C(n, k) * rho^k for the coefficient of x^(n-k), where rho is
the largest absolute row sum of the block, which bounds every eigenvalue's
modulus.  The primes are the Mersenne primes from 2^61 - 1 up to
2^44497 - 1, the end of the table.
`char_poly_factors` returns the split eigenvalues and the last block's
polynomial unexpanded, and `char_poly` multiplies them out.

The independent reference, fraction-free Bareiss determinants of xI - M at
n+1 integer points fitted exactly by the Lagrange formula, lives with the
tests in `tests/charpoly_reference.py`.  The test suite asserts the two agree
exactly; nothing re-checks it at runtime.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import accumulate, repeat
from operator import mul
from typing import Iterable, Iterator, Sequence


class DegenerateQuadratic(ValueError):
    """Leading coefficient of a quadratic is zero."""


def bit_indices(mask: int) -> Iterator[int]:
    """Indices of the set bits of a non-negative integer, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class IntMatrix:
    """Dense square matrix of arbitrary-precision integers."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square")

    @property
    def n(self) -> int:
        return len(self.rows)

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]]) -> "IntMatrix":
        return IntMatrix(tuple(tuple(int(x) for x in r) for r in rows))

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The transpose's rows, built once per matrix on first use.

        Not a dataclass field: equality, hashing and repr see only `rows`.
        """
        return tuple(zip(*self.rows))


@dataclass(frozen=True)
class MaskMatrix:
    """Symmetric integer matrix in mask form: one neighbour mask per index.

    Entry (i, j), i != j, is `on` when bit j of masks[i] is set and `off`
    otherwise; entry (i, i) is diagonal[i], whatever bit i of masks[i].  The
    masks must be symmetric off the diagonal (bit j of masks[i] equals bit i
    of masks[j]), as a graph's neighbour masks are, so column j is row j.
    """

    masks: tuple[int, ...]
    diagonal: tuple[int, ...]
    on: int
    off: int

    @property
    def n(self) -> int:
        return len(self.masks)

    def twin_eigenvalue(self, s: int, v: int) -> int | None:
        """`twin_eigenvalue` on the materialized columns, read off the masks.

        Column v minus column s vanishes outside {s, v} iff every other index
        sees s and v alike, which by symmetry is masks[s] and masks[v]
        agreeing off bits s and v; the 2 x 2 entries on {s, v} then give
        lambda = M[v][v] - M[v][s], which must equal M[s][s] - M[s][v].
        """
        ms, mv = self.masks[s], self.masks[v]
        if (ms ^ mv) & ~(1 << s | 1 << v):
            return None
        lam = self.diagonal[v] - (self.on if mv >> s & 1 else self.off)
        same = self.diagonal[s] - (self.on if ms >> v & 1 else self.off) == lam
        return lam if same else None

    def leader_block(self, bounds: Sequence[int]) -> IntMatrix:
        """B[i][j], the sum over run i of column s_j, for the runs between `bounds`.

        Run i is the index range [bounds[i], bounds[i+1]) and s_j, run j's
        first index, its leader.  Column s_j is row s_j: `on` on its mask's
        bits and `off` elsewhere, bit s_j left out, with diagonal[s_j] in
        its place.  So B[i][j] is `off` times the length of run i, plus
        on - off per mask bit in run i; or `on` times the length, less
        on - off per bit of the complement in run i.  Whichever of the mask
        and its complement has fewer bits is read, and each of its bits is
        placed in its run by bisection; then diagonal[s_j] replaces the one
        `off` or `on` counted at s_j.
        """
        on, off = self.on, self.off
        full, step = (1 << self.n) - 1, on - off
        lengths = [b - a for a, b in zip(bounds, bounds[1:])]
        off_sums, on_sums = [off * k for k in lengths], [on * k for k in lengths]
        cols = []
        for j, s in enumerate(bounds[:-1]):
            mask = self.masks[s] & full & ~(1 << s)
            rest = full ^ mask ^ (1 << s)
            if mask.bit_count() <= rest.bit_count():
                col, sparse, delta, own = off_sums[:], mask, step, off
            else:
                col, sparse, delta, own = on_sums[:], rest, -step, on
            for u in bit_indices(sparse):
                col[bisect_right(bounds, u) - 1] += delta
            col[j] += self.diagonal[s] - own
            cols.append(col)
        return IntMatrix(tuple(zip(*cols)))

    def dense(self) -> IntMatrix:
        """The matrix as rows, entry by entry.

        `char_poly_factors` needs it only for a form whose first pass finds
        no twin, which no family's graph gives.
        """
        values = (self.off, self.on)
        return IntMatrix(tuple(
            tuple(d if j == i else values[mask >> j & 1] for j in range(self.n))
            for i, (mask, d) in enumerate(zip(self.masks, self.diagonal))
        ))


class IntPolynomial:
    """Polynomial with arbitrary-precision integer coefficients, ascending degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    def __reduce__(self):
        return (IntPolynomial, (self.coeffs,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        # A factor of 1 is common: every expansion and every power starts
        # from it.
        if a == (1,):
            return other
        if b == (1,):
            return self
        # The outer loop skips zero coefficients; it runs over the operand
        # whose nonzero count times the other's length is smaller.
        if (len(a) - a.count(0)) * len(b) > (len(b) - b.count(0)) * len(a):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "IntPolynomial":
        """self^k; a linear base a + b*x expands as sum_i C(k, i) a^(k-i) b^i x^i."""
        if k < 0:
            raise ValueError("negative polynomial power")
        if len(self.coeffs) == 2:
            a, b = self.coeffs
            a_pows = list(accumulate(repeat(a, k), mul, initial=1))
            a_pows.reverse()
            binom = [1] * (k + 1)
            for i in range(k // 2):
                binom[i + 1] = binom[k - i - 1] = binom[i] * (k - i) // (i + 1)
            coeffs = map(mul, binom, a_pows)
            if b != 1:
                coeffs = map(mul, coeffs, accumulate(repeat(b, k), mul, initial=1))
            return IntPolynomial(coeffs)
        result = IntPolynomial((1,))
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod_monic(self, divisor: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Quotient and remainder for a monic divisor; stays in integers."""
        if not divisor.is_monic:
            raise ValueError("divisor must be monic")
        d = divisor.degree
        rem = list(self.coeffs)
        if len(rem) <= d:
            return IntPolynomial(), self
        quot = [0] * (len(rem) - d)
        for i in reversed(range(len(quot))):
            c = rem[i + d]
            if c:
                quot[i] = c
                for j, dc in enumerate(divisor.coeffs):
                    rem[i + j] -= c * dc
        return IntPolynomial(quot), IntPolynomial(rem[:d])

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for k in reversed(range(len(self.coeffs))):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                xk = "x" if k == 1 else f"x^{k}"
                body = xk if mag == 1 else f"{mag}*{xk}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms)

    @staticmethod
    def x_minus(c: int) -> "IntPolynomial":
        return IntPolynomial((-c, 1))


POLY_ONE = IntPolynomial((1,))


# Exponents e of the Mersenne primes 2^e - 1 from 2^61 - 1 to 2^44497 - 1,
# ascending.  All are proven primes, so no primality test is needed.
_MERSENNE_EXPONENTS = (
    61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217,
    4253, 4423, 9689, 9941, 11213, 19937, 21701, 23209, 44497,
)

_PRIMES = tuple((1 << e) - 1 for e in _MERSENNE_EXPONENTS)


def _hessenberg_mod(rows: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    """An upper Hessenberg matrix similar to `rows` modulo the prime p.

    Gaussian elimination below the subdiagonal, one column at a time: a
    nonzero pivot is swapped into the subdiagonal by a row and column
    transposition, and each row operation is matched by the inverse column
    operation.  A column with no nonzero entry below its diagonal is already
    reduced and is skipped.
    """
    n = len(rows)
    h = [[x % p for x in row] for row in rows]
    for j in range(n - 2):
        sub = j + 1
        pivot = next((i for i in range(sub, n) if h[i][j]), None)
        if pivot is None:
            continue
        if pivot != sub:
            h[pivot], h[sub] = h[sub], h[pivot]
            for row in h:
                row[pivot], row[sub] = row[sub], row[pivot]
        pivot_row = h[sub]
        inv = pow(pivot_row[j], -1, p)
        factors = []
        for r in range(sub + 1, n):
            row = h[r]
            u = row[j] * inv % p
            if u:
                factors.append((r, u))
                row[j] = 0
                for k in range(sub, n):
                    row[k] = (row[k] - u * pivot_row[k]) % p
        if factors:
            for row in h:
                row[sub] = (row[sub] + sum(u * row[r] for r, u in factors)) % p
    return h


def twin_eigenvalue(cols: Sequence[Sequence[int]], s: int, v: int) -> int | None:
    """lambda with column v - column s = lambda (e_v - e_s) for s < v, else None.

    Column v minus column s is M (e_v - e_s), so the result is the eigenvalue
    of that difference vector when it is one; the columns are compared by
    tuple slices, with no n-length arithmetic.
    """
    a, b = cols[s], cols[v]
    lam = b[v] - a[v]
    same = a[:s] == b[:s] and a[s + 1:v] == b[s + 1:v] and a[v + 1:] == b[v + 1:]
    return lam if same and a[s] - b[s] == lam else None


def char_poly_factors(matrix: IntMatrix | MaskMatrix) -> tuple[Counter[int], IntPolynomial]:
    """det(xI - M) unexpanded: the checked twin eigenvalues and the dense block's polynomial.

    Returns (roots, block) with det(xI - M) = block * prod (x - lambda)^m
    over roots' items (lambda, m); block is monic with integer coefficients,
    of degree n minus the number of roots.  So a stated spectrum can be
    compared with these factors without expanding them (`verify._compare`).

    One pass scans the indices in order.  Index v joins the current run,
    whose leader s is its first index, when `twin_eigenvalue` finds column v
    minus column s to be lambda_v (e_v - e_s); otherwise v leads a new run.
    Every recorded difference is a checked eigenvector, so M is block upper
    triangular in the basis of those differences and the leaders, and
    det(xI - M) = prod_v (x - lambda_v) * det(xI - B) for the leader block
    B, where B[i][j] is the sum over run i of column s_j: for symmetric M,
    the transpose of the equitable-partition quotient (Godsil & Royle,
    Algebraic Graph Theory, 9.3).  The pass repeats on B until it records
    no eigenvalue.  Each split is checked, so the result is exact for any
    input.  A MaskMatrix gives its first pass's checks and B off its masks,
    by its own `twin_eigenvalue` and `leader_block`, with no n x n table;
    if that pass records no eigenvalue it is materialized by `dense`.

    The last block, M of order n from here on, goes to the dense engine.
    The coefficient of x^(n-k) is (-1)^k e_k of the eigenvalues.  Every
    eigenvalue's modulus is at most rho, the largest absolute row sum, so
    every coefficient is bounded by beta = max_k C(n, k) * rho^k.  The work
    is done modulo the smallest tabulated prime p > 2 beta, where the
    symmetric residues in (-p/2, p/2] are the integer coefficients
    themselves.  M is reduced to upper Hessenberg form H by a similarity
    mod p, and det(xI - H) follows from the recurrence
    over its leading principal submatrices (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 2.2.9).  Raises ArithmeticError, rather
    than return an unproven result, when 2 beta reaches the largest
    tabulated prime, 2^44497 - 1.
    """
    roots: Counter[int] = Counter()
    while True:
        masked = isinstance(matrix, MaskMatrix)
        twin = matrix.twin_eigenvalue if masked else partial(twin_eigenvalue, matrix.columns)
        leaders, lams = [0], []
        for v in range(1, matrix.n):
            lam = twin(leaders[-1], v)
            if lam is None:
                leaders.append(v)
            else:
                lams.append(lam)
        if not lams:
            break
        roots.update(lams)
        bounds = [*leaders, matrix.n]
        if masked:
            matrix = matrix.leader_block(bounds)
        else:
            cols = matrix.columns
            matrix = IntMatrix(tuple(
                tuple(sum(cols[s][a:b]) for s in leaders) for a, b in zip(bounds, bounds[1:])
            ))
    if masked:
        matrix = matrix.dense()
    n = matrix.n
    if n == 0:
        return roots, POLY_ONE
    rows = matrix.rows
    rho = max(sum(map(abs, row)) for row in rows)
    bound = max(math.comb(n, k) * rho**k for k in range(n + 1))
    index = bisect_right(_PRIMES, 2 * bound)
    if index == len(_PRIMES):
        raise ArithmeticError(
            f"coefficient bound of {bound.bit_length()} bits exceeds the largest "
            f"tabulated prime 2^{_MERSENNE_EXPONENTS[-1]} - 1"
        )
    p = _PRIMES[index]
    h = _hessenberg_mod(rows, p)
    # polys[m] = det(xI - H_m) for the leading m x m block H_m, ascending
    # coefficients mod p; H_{m+1} adds column m, whose entry h[i][m] enters
    # with the subdiagonal product h[i+1][i] ... h[m][m-1].
    polys = [[1]]
    for m in range(n):
        nxt = [0] + polys[m]
        diag = h[m][m]
        for k, c in enumerate(polys[m]):
            nxt[k] -= diag * c
        chain = 1
        for i in range(m - 1, -1, -1):
            chain = chain * h[i + 1][i] % p
            if not chain:
                break
            c = h[i][m] * chain % p
            if c:
                for k, v in enumerate(polys[i]):
                    nxt[k] -= c * v
        polys.append([v % p for v in nxt])
    half = p // 2
    return roots, IntPolynomial(v - p if v > half else v for v in polys[n])


def char_poly(matrix: IntMatrix) -> IntPolynomial:
    """det(xI - M), monic of degree n, exact: `char_poly_factors` expanded.

    The dense block's polynomial is multiplied by each (x - lambda)^m,
    expanded binomially.
    """
    roots, poly = char_poly_factors(matrix)
    for lam, m in roots.items():
        poly = poly * IntPolynomial.x_minus(lam) ** m
    return poly


# A square is a quadratic residue modulo every m: a non-residue modulo 64, 63,
# 65 or 11 (45045 = 63 * 65 * 11) rules v out before isqrt (Cohen, Alg. 1.7.3).
_Q64, _Q63, _Q65, _Q11 = (
    tuple(map({j * j % m for j in range(m)}.__contains__, range(m)))
    for m in (64, 63, 65, 11)
)


def is_perfect_square(v: int) -> int | None:
    """The nonnegative integer square root of v, or None if v is not a square."""
    if v < 0 or not _Q64[v & 63]:
        return None
    w = v % 45045
    if not (_Q63[w % 63] and _Q65[w % 65] and _Q11[w % 11]):
        return None
    r = math.isqrt(v)
    return r if r * r == v else None


def rational_roots_of_quadratic(
    a: int, b: int, c: int
) -> tuple[int | Fraction, int | Fraction] | None:
    """Both roots of a*x^2 + b*x + c when rational, smaller root first.

    A root is an int when 2a divides its numerator, else a Fraction.
    """
    if a == 0:
        raise DegenerateQuadratic("leading coefficient is zero")
    s = is_perfect_square(b * b - 4 * a * c)
    if s is None:
        return None
    if a < 0:
        s = -s
    den = 2 * a
    return _exact_quotient(-b - s, den), _exact_quotient(-b + s, den)


def _exact_quotient(num: int, den: int) -> int | Fraction:
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


@dataclass(frozen=True)
class QuadraticEig:
    """The two roots of x^2 - s*x + p, stored exactly by sum and product."""

    s: int
    p: int

    def __str__(self) -> str:
        return str(IntPolynomial((self.p, -self.s, 1)))

    def integer_roots(self) -> tuple[int, int] | None:
        """Both roots, smaller first, when they are rational, else None.

        A monic integer quadratic with rational roots has integer roots.
        """
        return rational_roots_of_quadratic(1, -self.s, self.p)
