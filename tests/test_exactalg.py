import math
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgspectra import (
    DegenerateQuadratic,
    GroupSpec,
    IntMatrix,
    IntPolynomial,
    char_poly,
    is_perfect_square,
    matrix_of_kind,
    oracle,
    rational_roots_of_quadratic,
)
from ncgspectra.graphs import MatrixKind

from charpoly_reference import bareiss_determinant, char_poly_interpolation
from test_kernels import mat_vec

X = IntPolynomial((0, 1))


def rand_matrix(rng, n, lo=-9, hi=9):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    )


def test_matrix_must_be_square():
    with pytest.raises(ValueError):
        IntMatrix(((1, 2),))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.integers(-50, 50), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
            st.lists(
                st.one_of(st.just(0), st.integers(-50, 50)), min_size=n, max_size=n
            ),
        )
    )
)
def test_mat_vec_equals_dense_product(rows_and_vector):
    rows, v = rows_and_vector
    matrix = IntMatrix.from_rows(rows)
    assert mat_vec(matrix, v) == tuple(sum(map(mul, row, v)) for row in matrix.rows)


def test_mat_vec_rejects_wrong_length():
    with pytest.raises(ValueError):
        mat_vec(IntMatrix.identity(3), (1, 0))


def faddeev_leverrier(matrix):
    """Reference det(xI - M) by the O(n^4) Faddeev-LeVerrier recurrence.

    At step k the trace of M * (M_{k-1} + c_{n-k+1} I) is -k * c_{n-k}; the
    division by k is exact for integer input.
    """
    n = matrix.n
    base = [list(r) for r in matrix.rows]
    coeffs = [0] * n + [1]
    work = [row[:] for row in base]
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                work[i][i] += coeffs[n - k + 1]
            cols = list(zip(*work))
            work = [[sum(map(mul, row, col)) for col in cols] for row in base]
        q, r = divmod(-sum(work[i][i] for i in range(n)), k)
        assert r == 0, f"inexact division by {k}"
        coeffs[n - k] = q
    return IntPolynomial(coeffs)


@st.composite
def integer_matrices(draw):
    """Square integer matrices: dense random ones, or products L R of rank <= r."""
    n = draw(st.integers(0, 10))
    small = st.integers(-6, 6)

    def block(rows, cols):
        row = st.lists(small, min_size=cols, max_size=cols)
        return draw(st.lists(row, min_size=rows, max_size=rows))

    if draw(st.booleans()):
        return IntMatrix.from_rows(block(n, n))
    rank = draw(st.integers(0, n))
    left, right = block(n, rank), block(rank, n)
    return IntMatrix.from_rows(
        [[sum(row[t] * right[t][j] for t in range(rank)) for j in range(n)] for row in left]
    )


def test_char_poly_trivial():
    assert char_poly(IntMatrix.identity(2)) == IntPolynomial((1, -2, 1))
    assert char_poly(IntMatrix.from_rows([[0] * 3] * 3)) == IntPolynomial((0, 0, 0, 1))


def test_char_poly_octahedron_factors():
    matrix = matrix_of_kind(oracle(GroupSpec.q4n(2)).distance, MatrixKind.DISTANCE)
    product = IntPolynomial((2, 1)) ** 3 * X**2 * IntPolynomial((-6, 1))
    assert char_poly(matrix) == product


def test_char_poly_methods_agree_on_random_matrices():
    rng = random.Random(20240817)
    for _ in range(25):
        n = rng.randint(1, 12)
        m = rand_matrix(rng, n)
        assert char_poly(m) == char_poly_interpolation(m)


@settings(max_examples=150, deadline=None)
@given(integer_matrices())
def test_char_poly_equals_interpolation_property(matrix):
    assert char_poly(matrix) == char_poly_interpolation(matrix)


DEGENERATE = {
    "empty": ([], (1,)),
    "one-by-one": ([[7]], (-7, 1)),
    "zero": ([[0] * 4] * 4, (0, 0, 0, 0, 1)),
    "zero-column": ([[0, 1, 2], [0, 3, 4], [0, 5, 6]], (0, -2, -9, 1)),
    "nilpotent": (
        [[0, 3, -1, 4], [0, 0, 5, 9], [0, 0, 0, -2], [0, 0, 0, 0]],
        (0, 0, 0, 0, 1),
    ),
    "repeated-rows": ([[1, 2, 3]] * 3, (0, 0, -6, 1)),
    "no-pivot-column": (
        [[1, 2, 3, 4], [0, 5, 6, 7], [0, 8, 9, 1], [0, 2, 3, 4]],
        None,
    ),
    "pivot-swap": ([[1, 2, 3], [0, 4, 5], [6, 7, 8]], None),
    "zero-subdiagonal-later": (
        [[2, 1, 0, 0, 5], [1, 2, 0, 0, 0], [0, 0, 3, 1, 0], [0, 0, 1, 3, 0],
         [0, 0, 0, 0, 1]],
        None,
    ),
}


@pytest.mark.parametrize("name", DEGENERATE)
def test_char_poly_degenerate_inputs(name):
    rows, expected = DEGENERATE[name]
    matrix = IntMatrix.from_rows(rows)
    got = char_poly(matrix)
    if expected is not None:
        assert got.coeffs == expected
    assert got == char_poly_interpolation(matrix)
    assert got == faddeev_leverrier(matrix)


def test_char_poly_agrees_with_faddeev_leverrier():
    rng = random.Random(1729)
    for n in range(13):
        dense = rand_matrix(rng, n)
        wide = rand_matrix(rng, n, -10**6, 10**6)
        rows = [list(r) for r in rand_matrix(rng, n).rows]
        for i in range(1, n, 3):
            rows[i] = rows[i - 1][:]
        for matrix in (dense, wide, IntMatrix.from_rows(rows)):
            assert char_poly(matrix) == faddeev_leverrier(matrix)


def test_char_poly_prime_table_edge():
    # |c_0| <= B = rho for a 1 x 1 matrix; 2^44497 - 1 is the largest prime
    top = 2**44495
    assert char_poly(IntMatrix.from_rows([[top]])).coeffs == (-top, 1)
    assert char_poly(IntMatrix.from_rows([[-top]])).coeffs == (top, 1)
    with pytest.raises(ArithmeticError):
        char_poly(IntMatrix.from_rows([[2 * top]]))


def test_char_poly_refuses_bound_beyond_prime_table():
    big = 2**50000
    with pytest.raises(ArithmeticError):
        char_poly(IntMatrix.from_rows([[big, big + 1], [big - 3, big]]))


def test_char_poly_evaluation_matches_bareiss_determinant():
    rng = random.Random(99)
    for _ in range(10):
        n = rng.randint(1, 8)
        m = rand_matrix(rng, n)
        p = char_poly(m)
        for mu in (-3, 0, 2, 11):
            shifted = [
                [(mu if i == j else 0) - m.rows[i][j] for j in range(n)]
                for i in range(n)
            ]
            assert p(mu) == bareiss_determinant(shifted)


def test_char_poly_block_diagonal_is_product():
    rng = random.Random(5)
    a = rand_matrix(rng, 4)
    b = rand_matrix(rng, 3)
    n = a.n + b.n
    rows = [[0] * n for _ in range(n)]
    for i in range(a.n):
        for j in range(a.n):
            rows[i][j] = a.rows[i][j]
    for i in range(b.n):
        for j in range(b.n):
            rows[a.n + i][a.n + j] = b.rows[i][j]
    assert char_poly(IntMatrix.from_rows(rows)) == char_poly(a) * char_poly(b)


def test_trace_is_negated_subleading_coefficient():
    rng = random.Random(31)
    for _ in range(10):
        m = rand_matrix(rng, rng.randint(2, 9))
        p = char_poly(m)
        assert p.coeffs[m.n - 1] == -m.trace()


def test_bareiss_known_values():
    assert bareiss_determinant([[2, 0], [0, 3]]) == 6
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert bareiss_determinant([[1, 2], [2, 4]]) == 0
    assert bareiss_determinant([[0, 2, 1], [0, 0, 3], [5, 0, 0]]) == 30


def test_poly_basiscs():
    assert IntPolynomial((2, 1)) * IntPolynomial((-2, 1)) == IntPolynomial((-4, 0, 1))
    assert IntPolynomial((1, 1)) ** 0 == IntPolynomial((1,))
    assert IntPolynomial((2, 1)) ** 3 == IntPolynomial((8, 12, 6, 1))
    assert IntPolynomial((0, 0)) == IntPolynomial(())
    assert (X - X).is_zero
    assert str(IntPolynomial((-4, 0, 1))) == "x^2 - 4"
    assert str(IntPolynomial((568, -50, 1))) == "x^2 - 50*x + 568"
    assert IntPolynomial((1, 2)).degree == 1
    with pytest.raises(ValueError):
        X**-1


def repeated_product(base, k):
    out = IntPolynomial((1,))
    for _ in range(k):
        out = out * base
    return out


_COEFF = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.integers(-10**6, 10**6),
    st.integers(-2**200, 2**200),
)


@settings(max_examples=200, deadline=None)
@given(_COEFF, _COEFF.filter(bool), st.integers(0, 40))
def test_linear_power_is_binomial_expansion(a, b, k):
    base = IntPolynomial((a, b))
    assert base**k == repeated_product(base, k)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_COEFF, max_size=4).filter(lambda cs: IntPolynomial(cs).degree != 1),
    st.integers(0, 12),
)
def test_other_powers_are_repeated_products(coeffs, k):
    base = IntPolynomial(coeffs)
    assert base**k == repeated_product(base, k)


def test_divmod_monic():
    p = IntPolynomial((6, 11, 6, 1))  # (x+1)(x+2)(x+3)
    q, r = p.divmod_monic(IntPolynomial((1, 1)))
    assert r.is_zero and q == IntPolynomial((6, 5, 1))
    q, r = p.divmod_monic(IntPolynomial((5, 1)))
    assert not r.is_zero
    assert q * IntPolynomial((5, 1)) + r == p
    with pytest.raises(ValueError):
        p.divmod_monic(IntPolynomial((1, 2)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-50, 50), max_size=6),
       st.lists(st.integers(-50, 50), max_size=6),
       st.integers(-7, 7))
def test_poly_mul_evaluation_homomorphism(a, b, x):
    p, q = IntPolynomial(a), IntPolynomial(b)
    assert (p * q)(x) == p(x) * q(x)
    assert (p + q)(x) == p(x) + q(x)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**30))
def test_perfect_square_roundtrip(k):
    assert is_perfect_square(k * k) == k


def _isqrt_square(v):
    """The residue-free reference: isqrt alone decides."""
    if v < 0:
        return None
    r = math.isqrt(v)
    return r if r * r == v else None


_BIG = st.integers(0, 2**5000)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.integers(max_value=-1),
    st.just(0),
    _BIG.map(lambda k: k * k),
    _BIG.map(lambda k: k * k + 1),
    _BIG.filter(bool).map(lambda k: k * k - 1),
    st.integers(0, 2**10000),
))
def test_residue_pre_test_agrees_with_isqrt(v):
    # a square is a residue modulo every m, so the pre-test never rejects one
    assert is_perfect_square(v) == _isqrt_square(v)


def test_residue_pre_test_keeps_every_small_square():
    assert [v for v in range(10**5) if is_perfect_square(v) is not None] == [
        k * k for k in range(317)
    ]


def test_perfect_square_examples():
    assert is_perfect_square(9) == 3
    assert is_perfect_square(49) == 7
    assert is_perfect_square(6) is None
    assert is_perfect_square(0) == 0
    assert is_perfect_square(-4) is None
    big = (10**40 + 7) ** 2
    assert is_perfect_square(big) == 10**40 + 7
    assert is_perfect_square(big - 1) is None


def test_rational_roots_of_quadratic():
    assert rational_roots_of_quadratic(2, 2, -4) == (Fraction(-2), Fraction(1))
    assert rational_roots_of_quadratic(1, 0, -4) == (Fraction(-2), Fraction(2))
    assert rational_roots_of_quadratic(1, 0, -2) is None
    assert rational_roots_of_quadratic(4, -4, 1) == (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(DegenerateQuadratic):
        rational_roots_of_quadratic(0, 1, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.integers(-9, 9), st.integers(-9, 9))
def test_rational_roots_satisfy_quadratic(a, b, c):
    roots = rational_roots_of_quadratic(a, b, c)
    if roots is not None:
        for r in roots:
            assert a * r * r + b * r + c == 0
