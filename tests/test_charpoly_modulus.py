"""The char-poly modulus: the prime table, the coefficient bound, and the row-sum engine.

`char_poly` bounds every coefficient of the block that reaches the dense
engine by C(n, k) * rho^k, rho the block's largest absolute row sum, and
works modulo the smallest Mersenne prime above twice that bound.  The
bound and the prime are taken from the block left after the checked twin
split, which on the paper's matrices has order at most 2.  The whole-matrix
row-sum engine is kept here as the reference: the split may change the
block and its modulus, never a coefficient.  The coefficients also lie
within the tighter bound C(n, k) * t^k with t = ceil(||M||_F / sqrt(n)), by
Maclaurin's and Schur's inequalities.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncgspectra import (
    ALL_KINDS,
    GroupSpec,
    IntMatrix,
    IntPolynomial,
    char_poly,
    default_grid,
    matrix_of_kind,
    oracle,
)
from ncgspectra.exactalg import _MERSENNE_EXPONENTS, _PRIMES

from charpoly_reference import char_poly_interpolation
from test_twin_similarity import dense_calls, planted_twins

D = ALL_KINDS[0]


def reference_hessenberg_mod(rows, p):
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


def row_sum_char_poly(matrix):
    n = matrix.n
    if n == 0:
        return IntPolynomial((1,))
    rho = max(sum(map(abs, row)) for row in matrix.rows)
    bound = max(math.comb(n, k) * rho ** (n - k) for k in range(n + 1))
    for e in _MERSENNE_EXPONENTS:
        p = (1 << e) - 1
        if p > 2 * bound:
            break
    else:
        raise ArithmeticError(
            f"coefficient bound of {bound.bit_length()} bits exceeds the largest "
            f"tabulated Mersenne prime 2^{e} - 1"
        )
    h = reference_hessenberg_mod(matrix.rows, p)
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
    return IntPolynomial(v - p if v > half else v for v in polys[n])


def bound_base(matrix):
    """The least integer t with n t^2 >= ||M||_F^2."""
    n = matrix.n
    frob = sum(x * x for row in matrix.rows for x in row)
    t = math.isqrt(frob // n)
    while n * t * t < frob:
        t += 1
    return t


def test_prime_table_is_the_mersenne_primes_from_61_bits():
    assert _PRIMES == tuple(2**e - 1 for e in (
        61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217,
        4253, 4423, 9689, 9941, 11213, 19937, 21701, 23209, 44497,
    ))


def lucas_lehmer(e):
    """Whether 2^e - 1 is prime, for an odd prime e (Lucas-Lehmer test)."""
    m = (1 << e) - 1
    s = 4
    for _ in range(e - 2):
        s = s * s - 2
        s = (s & m) + (s >> e)
        if s >= m:
            s -= m
    return s == 0


def test_prime_table_entries_are_certified_primes():
    # 2^11 - 1 = 23 * 89 and 2^67 - 1 are composite: the certificate rejects them
    assert not lucas_lehmer(11) and not lucas_lehmer(67)
    # the twelve moduli up to 4,423 bits, under 0.3 s together; the larger
    # ones rest on the published Mersenne list, since the test of
    # 2^44497 - 1 alone takes about 30 s in pure Python
    certified = [e for e in _MERSENNE_EXPONENTS if e <= 4423]
    assert len(certified) == 12
    for e in certified:
        assert lucas_lehmer(e), e


def _rows(n):
    entry = st.one_of(st.integers(-9, 9), st.integers(-10**9, 10**9))
    row = st.one_of(st.just([0] * n), st.lists(entry, min_size=n, max_size=n))
    return st.lists(row, min_size=n, max_size=n)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12).flatmap(_rows))
@example([])
@example([[0, 0], [0, 0]])
@example([[0, 1], [-1, 0]])
@example([[3, 0, 0], [0, -3, 0], [0, 0, 3]])
def test_coefficients_within_the_frobenius_bound(rows):
    matrix = IntMatrix.from_rows(rows)
    got = char_poly(matrix)
    assert got == char_poly_interpolation(matrix)
    n = matrix.n
    if n:
        t = bound_base(matrix)
        assert t <= max(sum(abs(x) for x in row) for row in rows)
        for k in range(n + 1):
            assert abs(got.coeffs[n - k]) <= math.comb(n, k) * t**k


def row_sum_bound(rows):
    n = len(rows)
    rho = max(sum(abs(x) for x in row) for row in rows)
    return max(math.comb(n, k) * rho**k for k in range(n + 1))


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.integers(1, 12).flatmap(_rows),
    planted_twins().map(lambda case: case[0]),
))
@example([[2**44495]])
@example([[2**30000, 0], [0, 2**30000]])
@example([[3, -2, 5], [0, 7, 1], [4, 4, -6]])
def test_dense_engine_works_modulo_the_smallest_prime_above_twice_the_row_sum_bound(rows):
    [(block, p)] = dense_calls(IntMatrix.from_rows(rows))[1]
    assert p == min(q for q in _PRIMES if q > 2 * row_sum_bound(block))


def test_char_poly_refuses_past_the_table_end():
    # one twin run: its eigenvalue splits off, and the 1 x 1 block's bound
    # of 2^30000 is within the table
    assert char_poly(IntMatrix(((2**30000, 0), (0, 2**30000)))) == (
        IntPolynomial.x_minus(2**30000) ** 2
    )
    # no twins: the whole matrix's bound of about 2^60000 passes 2^44497 - 1
    with pytest.raises(ArithmeticError):
        char_poly(IntMatrix(((2**30000, 1), (0, 2**30000 + 1))))


@pytest.mark.parametrize(
    "spec", default_grid() + [GroupSpec.qd(8), GroupSpec.q4n(64)], ids=lambda s: s.label()
)
def test_dense_engine_gets_a_block_of_order_two_and_the_smallest_prime(spec):
    """The bound and the prime come from the block left after the twin split."""
    staged = oracle(spec)
    for kind in ALL_KINDS:
        _, calls = dense_calls(matrix_of_kind(staged.distance, kind))
        assert [(len(block) <= 2, p.bit_length()) for block, p in calls] == [(True, 61)]


@pytest.mark.parametrize("spec", default_grid(), ids=lambda s: s.label())
def test_char_poly_equals_the_row_sum_engine_on_the_grid(spec):
    for kind in ALL_KINDS:
        matrix = matrix_of_kind(oracle(spec).distance, kind)
        assert char_poly(matrix) == row_sum_char_poly(matrix)


def test_char_poly_equals_the_row_sum_engine_on_qd_256():
    matrix = matrix_of_kind(oracle(GroupSpec.qd(8)).distance, D)
    assert char_poly(matrix) == row_sum_char_poly(matrix)
