import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgspectra import (
    DegenerateQuadratic,
    GroupSpec,
    IntMatrix,
    IntPolynomial,
    bareiss_determinant,
    char_poly,
    char_poly_interpolation,
    is_perfect_square,
    oracle,
    rational_roots_of_quadratic,
)
from ncgspectra.graphs import MatrixKind

X = IntPolynomial((0, 1))


def rand_matrix(rng, n, lo=-9, hi=9):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    )


def test_matrix_must_be_square():
    with pytest.raises(ValueError):
        IntMatrix(((1, 2),))


def test_char_poly_trivial():
    assert char_poly(IntMatrix.identity(2)) == IntPolynomial((1, -2, 1))
    assert char_poly(IntMatrix.from_rows([[0] * 3] * 3)) == IntPolynomial((0, 0, 0, 1))


def test_char_poly_octahedron_factors():
    matrix = oracle(GroupSpec.q4n(2), MatrixKind.DISTANCE).matrix
    product = IntPolynomial((2, 1)) ** 3 * X**2 * IntPolynomial((-6, 1))
    assert char_poly(matrix) == product


def test_char_poly_methods_agree_on_random_matrices():
    rng = random.Random(20240817)
    for _ in range(25):
        n = rng.randint(1, 12)
        m = rand_matrix(rng, n)
        assert char_poly(m) == char_poly_interpolation(m)


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
