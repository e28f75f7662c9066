"""The single owners of the matrix kinds and the even-m reduction against the copies they replaced.

D^L and D^Q were built by one helper that put the transmissions (row sums of
D) on the diagonal and added sign times D; the even-m M_2mn parts, D and D^L
forms each moved (n, m) to (2n, m/2) inline before evaluating the odd-m
formula.  Those copies are kept here as references.
"""

import pytest

from ncgspectra import (
    ALL_KINDS,
    IntMatrix,
    QuadraticEig,
    default_grid,
    matrix_of_kind,
    oracle,
)
from ncgspectra.families import METACYCLIC_FAMILY

from test_commutation import LARGE_SPECS

D, DL, DQ = ALL_KINDS


def reference_transmissions_plus(dist, sign):
    tr = tuple(sum(row) for row in dist.rows)
    return IntMatrix(tuple(
        tuple((tr[i] if i == j else 0) + sign * d for j, d in enumerate(row))
        for i, row in enumerate(dist.rows)
    ))


def reference_matrix_of_kind(dist, kind):
    if kind == D:
        return dist
    return reference_transmissions_plus(dist, -1 if kind == DL else 1)


@pytest.mark.parametrize(
    "spec", default_grid() + LARGE_SPECS, ids=lambda s: s.label()
)
def test_matrix_of_kind_equals_transmissions_plus(spec):
    dist = oracle(spec, D).matrix
    for kind in ALL_KINDS:
        assert matrix_of_kind(dist, kind) == reference_matrix_of_kind(dist, kind)


def reference_metacyclic_parts(n, m):
    if m % 2 == 0:
        n, m = 2 * n, m // 2
    return ((m - 1) * n, n, m)


def reference_metacyclic_d(n, m):
    if m % 2 == 0:
        n, m = 2 * n, m // 2
    s = 3 * m * n - n - 4
    num = s * s - n * n * (5 * m * m - 10 * m + 9)
    if num % 4:
        raise ArithmeticError("distance pair product is not integral")
    return [
        (-2, 2 * m * n - (m + n) - 1),
        (n - 2, m - 1),
        (QuadraticEig(s, num // 4), 1),
    ]


def reference_metacyclic_dl(n, m):
    if m % 2 == 0:
        n, m = 2 * n, m // 2
    return [
        (0, 1),
        (n * (2 * m - 1), m),
        (2 * m * n, m * (n - 1)),
        ((3 * m - 2) * n, (m - 1) * n - 1),
    ]


@pytest.mark.parametrize("m", range(3, 41))
def test_even_m_reduction_equals_inline_copies(m):
    forms = METACYCLIC_FAMILY.closed_forms
    for n in range(1, 31):
        assert METACYCLIC_FAMILY.parts(n, m) == reference_metacyclic_parts(n, m)
        assert forms[D](n, m) == reference_metacyclic_d(n, m)
        assert forms[DL](n, m) == reference_metacyclic_dl(n, m)
