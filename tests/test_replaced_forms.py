"""The single owners of the matrix kinds, the even-m reduction and the Q_4n eigenbasis against the copies they replaced.

D^L and D^Q were built by one helper that put the transmissions (row sums of
D) on the diagonal and added sign times D; the even-m M_2mn parts, D and D^L
forms each moved (n, m) to (2n, m/2) inline before evaluating the odd-m
formula; the Q_4n eigenvectors restated their eigenvalues, the D^Q scale and
offset and the part size 2 as literals instead of reading the family record.
Those copies are kept here as references.
"""

import pytest

from ncgspectra import (
    ALL_KINDS,
    EigenbasisResult,
    EigenFamily,
    GroupSpec,
    IntMatrix,
    QuadraticEig,
    claimed_partition_sizes,
    default_grid,
    eigenbasis_q4n,
    matrix_of_kind,
    oracle,
    rational_roots_of_quadratic,
)
from ncgspectra.families import METACYCLIC_FAMILY, scaled_root_pair

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


def _basis_vector(length, assignments):
    v = [0] * length
    for idx, val in assignments.items():
        v[idx] = val
    return tuple(v)


def reference_eigenbasis_q4n(kind, n):
    spec = GroupSpec.q4n(n)
    matrix = oracle(spec, kind).matrix
    order = matrix.n
    big = claimed_partition_sizes(spec)[0]

    def small(p):
        return big + 2 * p

    small_diff = tuple(
        _basis_vector(order, {small(p): -1, small(p) + 1: 1}) for p in range(n)
    )
    big_diff = tuple(_basis_vector(order, {0: -1, i: 1}) for i in range(1, big))
    irrational = None
    if kind == DL:
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
                        {small(0): -1, small(0) + 1: -1, small(p): 1, small(p) + 1: 1},
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
                families.append(EigenFamily(mu_num // den, "scaled-constant", (vec,)))
    for family in families:
        for vec in family.vectors:
            if matrix.mat_vec(vec) != tuple(family.eigenvalue * x for x in vec):
                raise ArithmeticError(f"vector {vec} fails M v = {family.eigenvalue} v")
    return EigenbasisResult(kind, n, tuple(families), irrational)


@pytest.mark.parametrize("n", range(2, 41))
def test_eigenbasis_reads_the_record_like_the_literal_copy(n):
    for kind in (DL, DQ):
        assert eigenbasis_q4n(kind, n) == reference_eigenbasis_q4n(kind, n)
