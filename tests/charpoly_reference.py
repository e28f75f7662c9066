"""An independent characteristic polynomial, the reference for `char_poly`.

Fraction-free Bareiss determinants of xI - M at n+1 integer points, combined
by Lagrange interpolation with a single exact division by n! at the end.  It
shares no code with the engine in `ncgspectra.exactalg` beyond the integer
matrix and polynomial types, so the tests that compare the two check the
engine's twin split, coefficient bound and modular Hessenberg recurrence
against something that uses none of them.  Not a test module: pytest does not
collect it, the cross-checks import it.
"""

from __future__ import annotations

import math
from typing import Sequence

from ncgspectra.exactalg import POLY_ONE, IntMatrix, IntPolynomial


def identity(n: int) -> IntMatrix:
    """The n x n identity, as `IntMatrix.identity` built it."""
    return IntMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def trace(matrix: IntMatrix) -> int:
    """The diagonal's sum, as `IntMatrix.trace` gave it."""
    return sum(matrix.rows[i][i] for i in range(matrix.n))


def products_but_one(factors: Sequence[IntPolynomial]) -> list[IntPolynomial]:
    """For each i, the product of every factor but factors[i], by prefix and suffix."""
    prefix = [POLY_ONE]
    for f in factors[:-1]:
        prefix.append(prefix[-1] * f)
    out = []
    suffix = POLY_ONE
    for i in reversed(range(len(factors))):
        out.append(prefix[i] * suffix)
        suffix = suffix * factors[i]
    return out[::-1]


def bareiss_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    if any(len(r) != n for r in a):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            head = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - head * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def char_poly_interpolation(matrix: IntMatrix) -> IntPolynomial:
    """det(xI - M) by Bareiss evaluation at n+1 points plus interpolation.

    The Lagrange combination is done over a common denominator n!, whose
    final division is exact because the characteristic polynomial has integer
    coefficients.
    """
    n = matrix.n
    if n == 0:
        return POLY_ONE
    points = [i - n // 2 for i in range(n + 1)]
    values = []
    for x in points:
        shifted = [
            [
                (x if i == j else 0) - matrix.rows[i][j]
                for j in range(n)
            ]
            for i in range(n)
        ]
        values.append(bareiss_determinant(shifted))
    total = IntPolynomial()
    others = products_but_one([IntPolynomial.x_minus(p) for p in points])
    for i, other in enumerate(others):
        weight = values[i] * math.comb(n, i)
        if (n - i) % 2:
            weight = -weight
        total = total + weight * other
    fact = math.factorial(n)
    out = []
    for c in total.coeffs:
        q, r = divmod(c, fact)
        if r:
            raise ArithmeticError("interpolated polynomial is not integral")
        out.append(q)
    return IntPolynomial(out)
