"""The single owners of the matrix kinds, the even-m reduction, the Q_4n eigenbasis and the quadratic roots against the copies they replaced.

D^L and D^Q were built by one helper that put the transmissions (row sums of
D) on the diagonal and added sign times D; the even-m M_2mn parts, D and D^L
forms each moved (n, m) to (2n, m/2) inline before evaluating the odd-m
formula; the Q_4n eigenvectors restated their eigenvalues, the D^Q scale and
offset and the part size 2 as literals instead of reading the family record.
`QuadraticEig.integer_roots`, `scaled_root_pair` and the D^Q witness of
`predicted_integral` each wrote and rooted a discriminant of their own, or
divided |G|^2-sized products, where `rational_roots_of_quadratic` and one
division of the scale now serve.  That function itself built two Fractions
and compared them, where it now orders the numerators by the sign of a and
returns an int for each root that 2a divides.  Each family derived its
product by hand in a rewrite closure of its own, beside a callable giving
the orders of a and b, where one rule now reads a four-number presentation;
U_6n was presented as the paper prints it, A^(2n) = B^3 = 1 and
A^-1 B A = B^-1, with a fifth number for the twist of b and masks from a
second congruence, where it is now a^3 = b^(2n) = 1, b a b^-1 = a^-1, the
same group with its generators exchanged.
`part_major` re-indexed every neighbour mask of the certified graph into
part-major order, where the rows are now read from the certified part sizes;
the distance polynomial of K_{n_1,...,n_k} took a product over every part,
where it now takes one over the distinct part sizes.  `char_poly` passed
the whole integer similarity T^-1 M T of its twin runs to the Hessenberg
reduction, where it now splits off each checked twin eigenvalue and
recurses on the leader block; it found those runs by a pre-test on adjacent
pairs of indices, where an index now joins its run by the eigenvector check
against the run's leader alone.  `non_commuting_graph` re-indexed every
vertex's commutation mask, where it now re-indexes each distinct mask once;
`distance_matrix` ran a BFS from every vertex, where it now reads distances
1 and 2 off each distinct neighbour mask and refuses a graph of larger
diameter.
`verify` expanded the oracle's char poly and the closed form, compared them
coefficient by coefficient, and on a mismatch divided each closed factor out
of the oracle polynomial once per unit of multiplicity, where it now compares
the factored spectra entry by entry; it scanned both expanded polynomials
for the first differing coefficient, where a report now stays factored,
reads that coefficient off its factors truncated just past it, and expands
a polynomial only when it is read.  It then normalized the oracle's twin
eigenvalues and a dense block of degree <= 2 into spectrum entries, compared
them with the stated ones as multisets and divided only a larger block,
and it found that coefficient by a doubling search over both sides' own
entries, where every stated entry the eigenvalues do not cover is now
divided out of the block, whatever its degree, and the coefficient is read
off the residual and the unmatched product.
`eigenbasis_q4n` checked each difference e_i - e_f inside a part by forming
M v and lambda v as n-tuples, where it now compares columns i and f by
slices.  `IntPolynomial.__mul__` skipped the zero coefficients of its left
operand only, where it now puts outside whichever operand that saves more
products.  `MaskMatrix.leader_block` counted each leader's mask bits over
each run by `str.count` on the mask's binary string, k^2 calls for k runs,
where it now bisects the bits of the sparser of the mask and its complement
into the runs.  Those copies are kept here as references.
"""

import struct
from dataclasses import replace
from fractions import Fraction
from functools import cache, cached_property, partial, reduce
from itertools import accumulate, chain, repeat
from math import gcd
from operator import add, itemgetter, mul, sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ncgspectra.closedform as closedform
import ncgspectra.families as families

from ncgspectra import (
    ALL_KINDS,
    AbelianGroupError,
    DisconnectedGraph,
    EigenbasisResult,
    EigenFamily,
    GroupElement,
    GroupSpec,
    IntMatrix,
    IntPolynomial,
    NCGraph,
    QuadraticEig,
    center,
    char_poly,
    claimed_partition_sizes,
    complete_multipartite,
    default_grid,
    distance_matrix,
    eigenbasis_q4n,
    enumerate_elements,
    is_perfect_square,
    matrix_of_kind,
    multipartite_distance_charpoly,
    non_commuting_graph,
    oracle,
    part_major,
    partition_structure,
    predicted_integral,
    rational_roots_of_quadratic,
    spectrum_for,
    spectrum_to_polynomial,
)
from ncgspectra.closedform import (
    _Q4N_FAMILIES,
    _differences,
    _expand,
    _on_blocks,
    entry_factor,
    make_spectrum,
)
from ncgspectra.exactalg import POLY_ONE, MaskMatrix, char_poly_factors
from ncgspectra.families import METACYCLIC_FAMILY, Q4N_FAMILY, scaled_root_pair
from ncgspectra.graphs import Oracle, select_bits
from ncgspectra.groups import Rule, _progression, bit_indices
from ncgspectra.verify import _compare, _expand_low, _factor_out, _minus

from charpoly_reference import products_but_one
from test_closedform import WRONG_Q4N_FORMS
from test_commutation import (
    LARGE_SPECS,
    RegularGroup,
    _certificate,
    assert_depth_2_read,
    reference_commuting_masks,
    reference_distance_matrix,
    relabelled_multipartite,
    split_metacyclic_groups,
    symmetric_group_4,
)
from test_groups import spec_id
from test_kernels import mat_vec
from test_twin_similarity import first_runs, planted_twins

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
    dist = matrix_of_kind(oracle(spec).distance, D)
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
    matrix = matrix_of_kind(oracle(spec).distance, kind)
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
            if mat_vec(matrix, vec) != tuple(family.eigenvalue * x for x in vec):
                raise ArithmeticError(f"vector {vec} fails M v = {family.eigenvalue} v")
    return EigenbasisResult(kind, n, tuple(families), irrational)


@pytest.mark.parametrize("n", range(2, 41))
def test_eigenbasis_reads_the_record_like_the_literal_copy(n):
    for kind in (DL, DQ):
        assert eigenbasis_q4n(kind, n) == reference_eigenbasis_q4n(kind, n)


def reference_eigenbasis_per_vector(kind, n):
    if kind == D:
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
    stated = []
    irrational = None
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
    def column_sum(indices):
        if len(indices) == 1:
            return columns[indices[0]]
        return tuple(map(sum, zip(*itemgetter(*indices)(columns))))

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
            expected = tuple(map(mul, vec, repeat(eigenvalue)))
            scaled = (map(mul, column_sum(J), repeat(x)) for J, x in blocks)
            if tuple(reduce(partial(map, add), scaled)) != expected:
                raise ArithmeticError(
                    f"vector {vec} fails M v = {eigenvalue} v for {kind} at n={n}"
                )
    return EigenbasisResult(kind, n, tuple(families), irrational)


def _eigenbasis_outcome(eigenbasis, kind, n):
    try:
        return eigenbasis(kind, n)
    except ArithmeticError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n", range(2, 41))
def test_column_check_equals_the_per_vector_copy(n):
    for kind in (DL, DQ):
        assert eigenbasis_q4n(kind, n) == reference_eigenbasis_per_vector(kind, n)


@pytest.mark.parametrize("name", WRONG_Q4N_FORMS)
def test_column_check_raises_like_the_per_vector_copy(name):
    kind, wrong = WRONG_Q4N_FORMS[name]
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(Q4N_FAMILY.closed_forms, kind, wrong)
        for n in (2, 3, 6):  # the D^Q pair has integer roots at these n
            outcome = _eigenbasis_outcome(eigenbasis_q4n, kind, n)
            assert outcome[0] is ArithmeticError
            assert outcome == _eigenbasis_outcome(
                reference_eigenbasis_per_vector, kind, n
            )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 6).flatmap(lambda n: st.tuples(
        st.just(n),
        st.sampled_from([DL, DQ]),
        st.integers(0, 4 * n - 3),
        st.integers(0, 4 * n - 3),
        st.integers(-2, 2).filter(bool),
    ))
)
@example((2, DL, 3, 0, 1))  # a small part's second vertex: its difference fails
@example((5, DQ, 17, 17, -1))  # the last small part's second vertex
@example((4, DL, 0, 9, 2))  # the big part's first vertex: every big difference
def test_column_check_fails_like_the_per_vector_copy_on_a_changed_entry(case):
    # M with one entry changed: both checks must stop at the same vector
    n, kind, i, j, delta = case
    build = matrix_of_kind

    def changed(distance, kind):
        rows = [list(row) for row in build(distance, kind).rows]
        rows[i][j] += delta
        return IntMatrix(tuple(map(tuple, rows)))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(closedform, "matrix_of_kind", changed)
        mp.setitem(globals(), "matrix_of_kind", changed)
        assert _eigenbasis_outcome(eigenbasis_q4n, kind, n) == _eigenbasis_outcome(
            reference_eigenbasis_per_vector, kind, n
        )


def reference_integer_roots(quad):
    disc = quad.s * quad.s - 4 * quad.p
    sq = is_perfect_square(disc)
    if sq is None:
        return None
    if (quad.s - sq) % 2:
        raise ArithmeticError(f"parity violation in {quad}")
    return ((quad.s - sq) // 2, (quad.s + sq) // 2)


def reference_scaled_root_pair(tquad, scale, offset):
    qa, qb, qc = tquad
    if qa == 0:
        raise ValueError("degenerate quadratic for t")
    b_num = qb * scale
    c_num = qc * scale * scale
    if b_num % qa or c_num % qa:
        raise ArithmeticError("elimination does not stay integral")
    b = b_num // qa
    c = c_num // qa
    return QuadraticEig(2 * offset - b, offset * offset - b * offset + c)


def reference_predicted_integral(spec, kind):
    if kind == DL:
        return True, None, "integral for all parameters"
    record = spec.record
    if kind == D:
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
    return True, is_perfect_square(tquad[1] ** 2 - 4 * tquad[0] * tquad[2]), "integral t"


# Every family well past the default grid; QD_2^1200's integers have about
# 720 digits.
WIDE_SPECS = (
    [GroupSpec.q4n(n) for n in range(2, 3001)]
    + [GroupSpec.qd(n) for n in range(4, 1201)]
    + [GroupSpec.u6n(n) for n in range(1, 3001)]
    + [GroupSpec.metacyclic(m, n) for m in range(3, 41) for n in range(1, 61)]
)


def _pairs_with_integer_roots():
    return st.tuples(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12)).map(
        lambda r: (r[0] + r[1], r[0] * r[1])
    )


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    _pairs_with_integer_roots(),
    st.tuples(st.integers(-10**6, 10**6), st.integers(-10**12, 10**12)),
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
))
@example((6, 0))
@example((0, 0))
@example((7, 12))
@example((7, -8))
@example((5, 7))
@example((0, -9))
@example((2 * 10**40 + 1, 10**80 + 10**40))
def test_integer_roots_equal_the_own_discriminant_copy(pair):
    quad = QuadraticEig(*pair)
    assert quad.integer_roots() == reference_integer_roots(quad)


def test_scaled_root_pair_equals_the_two_division_copy(monkeypatch):
    calls = []
    owner = families.scaled_root_pair

    def recording(*args):
        calls.append(args)
        return owner(*args)

    monkeypatch.setattr(families, "scaled_root_pair", recording)
    for spec in WIDE_SPECS:
        spec.record.closed_forms[DQ](spec.n, spec.m)
    # One pair for every Q_4n, QD_2^n and M_2mn with m odd or m > 4 even.
    assert len(calls) == 2999 + 1197 + 60 * (19 + 18)
    for args in calls:
        assert owner(*args) == reference_scaled_root_pair(*args)


def test_scaled_root_pair_requires_qa_to_divide_the_scale():
    with pytest.raises(ArithmeticError):
        scaled_root_pair((3, 1, -1), 4, 0)
    # The two-division copy accepted this one: 2 divides 2*3 and 2*3^2.
    assert reference_scaled_root_pair((2, 2, 2), 3, 0) == QuadraticEig(-3, 9)
    with pytest.raises(ArithmeticError):
        scaled_root_pair((2, 2, 2), 3, 0)


def test_predicted_integral_equals_the_own_discriminant_copy():
    for spec in WIDE_SPECS:
        for kind in ALL_KINDS:
            assert predicted_integral(spec, kind) == reference_predicted_integral(
                spec, kind
            )


def reference_rational_roots_of_quadratic(a, b, c):
    disc = b * b - 4 * a * c
    s = is_perfect_square(disc)
    if s is None:
        return None
    r1 = Fraction(-b - s, 2 * a)
    r2 = Fraction(-b + s, 2 * a)
    return (r1, r2) if r1 <= r2 else (r2, r1)


def _quadratics_with_rational_roots():
    # (p x - q)(r x - s) with p, r != 0 has the rational roots q/p and s/r.
    nonzero = st.integers(-10**6, 10**6).filter(bool)
    wide = st.integers(-10**12, 10**12)
    return st.tuples(nonzero, wide, nonzero, wide).map(
        lambda f: (f[0] * f[2], -(f[0] * f[3] + f[1] * f[2]), f[1] * f[3])
    )


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    _quadratics_with_rational_roots(),
    st.tuples(
        st.integers(-50, 50).filter(bool), st.integers(-50, 50), st.integers(-50, 50)
    ),
    st.tuples(
        st.integers(-10**12, 10**12).filter(bool),
        st.integers(-10**12, 10**12),
        st.integers(-10**12, 10**12),
    ),
))
@example((1, -18, 72))
@example((-1, 18, -72))
@example((4, -4, 1))
@example((-6, 1, 1))
@example((2, 0, 0))
@example((-3, 0, 0))
def test_rational_roots_equal_the_two_fraction_copy(abc):
    got = rational_roots_of_quadratic(*abc)
    want = reference_rational_roots_of_quadratic(*abc)
    if want is None:
        assert got is None
        return
    assert got == want
    assert [r.denominator for r in got] == [r.denominator for r in want]
    for root in got:
        assert type(root) is (int if root.denominator == 1 else Fraction)


def reference_q4n_rewrite(n: int, m: None) -> Rule:
    nn = 2 * n

    def mult(x: GroupElement, y: GroupElement) -> GroupElement:
        i, j = x
        k, l = y
        if j == 0:
            return GroupElement((i + k) % nn, l)
        if l == 0:
            return GroupElement((i - k) % nn, 1)
        return GroupElement((i - k + n) % nn, 0)

    return mult


def reference_qd_rewrite(n: int, m: None) -> Rule:
    mod = 2 ** (n - 1)
    r = 2 ** (n - 2) - 1

    def mult(x: GroupElement, y: GroupElement) -> GroupElement:
        i, j = x
        k, l = y
        if j == 0:
            return GroupElement((i + k) % mod, l)
        return GroupElement((i + r * k) % mod, (1 + l) % 2)

    return mult


def reference_u6n_rewrite(n: int, m: None) -> Rule:
    nn = 2 * n

    def mult(x: GroupElement, y: GroupElement) -> GroupElement:
        i, j = x
        k, l = y
        jj = j if k % 2 == 0 else -j
        return GroupElement((i + k) % nn, (jj + l) % 3)

    return mult


def u6n_exchange(n: int, x: GroupElement) -> GroupElement:
    """phi(A^i B^j) = a^((-1)^i j mod 3) b^i, from the paper's U_6n to its presentation."""
    i, j = x
    return GroupElement((-j if i & 1 else j) % 3, i)


def reference_metacyclic_rewrite(n: int, m: int) -> Rule:
    nn = 2 * n

    def mult(x: GroupElement, y: GroupElement) -> GroupElement:
        i, j = x
        k, l = y
        kk = k if j % 2 == 0 else -k
        return GroupElement((i + kk) % m, (j + l) % nn)

    return mult


def unchanged(n: int, x: GroupElement) -> GroupElement:
    return x


# family -> (generator orders, rewrite closure), as each family record held
# them, and the isomorphism onto the presentation's normal forms
REFERENCE_REWRITES = {
    "q4n": (lambda n, m: (2 * n, 2), reference_q4n_rewrite, unchanged),
    "qd": (lambda n, m: (2 ** (n - 1), 2), reference_qd_rewrite, unchanged),
    "u6n": (lambda n, m: (2 * n, 3), reference_u6n_rewrite, u6n_exchange),
    "metacyclic": (lambda n, m: (m, 2 * n), reference_metacyclic_rewrite, unchanged),
}

REWRITE_SPECS = (
    [GroupSpec.q4n(n) for n in range(2, 30)]
    + [GroupSpec.qd(n) for n in range(4, 10)]
    + [GroupSpec.u6n(n) for n in range(1, 20)]
    + [GroupSpec.metacyclic(m, n) for m in range(3, 12) for n in range(1, 8)]
)


@pytest.mark.parametrize("spec", REWRITE_SPECS, ids=spec_id)
def test_product_rule_equals_the_rewrite_closures(spec):
    orders, rewrite, iso = REFERENCE_REWRITES[spec.family]
    oa, ob = orders(spec.n, spec.m)
    g = enumerate_elements(spec)
    elems = tuple(GroupElement(a, b) for b in range(ob) for a in range(oa))
    image = [iso(spec.n, x) for x in elems]
    # a bijection onto the normal forms, and the identity on the listed order
    # unless the presentation exchanges the generators
    assert sorted(image, key=itemgetter(1, 0)) == list(g.elements)
    assert spec.order == oa * ob
    reference = rewrite(spec.n, spec.m)
    n = g.order
    for x, image_x in zip(elems, image):
        products = list(map(g.mult, repeat(image_x, n), image))
        assert products == [iso(spec.n, reference(x, y)) for y in elems]
        assert {type(p) for p in products} == {GroupElement}


def _masks_r_one(oa: int, ob: int, q: int) -> list[int]:
    """Masks when r = 1 and s = 0: the b-congruence j (q^k - 1) = l (q^i - 1) (mod ob).

    With t = ob / gcd(q - 1, ob) it reads, by the parities of i and k:
    i, k even: every l; i even, k odd: every l if t | j, else none;
    i odd, k even: t | l; i, k odd: l = j (mod t).  So a mask is the even-k
    and the odd-k bits of a block, each tiled over a progression of blocks,
    and it depends on (i mod 2, j mod t) only; oa is even as q != 1.
    """
    h = gcd(q - 1, ob)
    t = ob // h
    even_k = _progression(2, oa // 2)
    odd_k = even_k << 1
    blocks_t = _progression(oa * t, h)
    partial = even_k * _progression(oa, ob)
    i_even = [partial | odd_k * _progression(oa, ob)] + [partial] * (t - 1)
    i_odd = [even_k * blocks_t | odd_k * (blocks_t << oa * u) for u in range(t)]
    rows = ([even, odd] * (oa // 2) for even, odd in zip(i_even, i_odd))
    # row j is row j mod t of these, as t divides ob
    return list(chain.from_iterable(rows)) * h


@pytest.mark.parametrize(
    "spec", [GroupSpec.u6n(n) for n in range(1, 101)] + [GroupSpec.u6n(1000)], ids=spec_id
)
def test_masks_and_center_equal_the_b_congruence_copy_under_the_exchange(spec):
    # The paper's presentation (2n, 3, 0, 1, -1): a^(2n) = b^3 = 1 and
    # b a = a b^-1, whose masks came from the b-congruence.
    n = spec.n
    g = enumerate_elements(spec)
    elems = tuple(GroupElement(i, j) for j in range(3) for i in range(2 * n))
    masks = _masks_r_one(2 * n, 3, -1)
    if n < 20:
        paper_group = RegularGroup(spec, elems, reference_u6n_rewrite(n, None))
        assert tuple(masks) == reference_commuting_masks(paper_group)
    image = [g.index[u6n_exchange(n, x)] for x in elems]
    preimage = sorted(range(g.order), key=image.__getitem__)
    # bit p of a mask read at the new indices is bit preimage[p] of the old
    permuted = {mask: select_bits((mask,), preimage)[0] for mask in set(masks)}
    assert g.commuting_masks == tuple(permuted[masks[u]] for u in preimage)
    everything = (1 << g.order) - 1
    paper_center = {x for x, mask in zip(elems, masks) if mask == everything}
    assert center(g) == {u6n_exchange(n, x) for x in paper_center}
    assert len(paper_center) == n


def reference_part_major(graph):
    partition = partition_structure(graph)
    order = [i for cls in partition.classes for i in cls]
    reordered = NCGraph(
        tuple(graph.vertices[i] for i in order),
        select_bits([graph.neighbors[i] for i in order], order),
    )
    sizes = partition.sizes
    blocks = tuple(tuple(range(e - s, e)) for s, e in zip(sizes, accumulate(sizes)))
    return reordered, replace(partition, classes=blocks)


@pytest.mark.parametrize("spec", default_grid() + LARGE_SPECS, ids=spec_id)
def test_part_major_equals_the_permuted_copy(spec):
    graph = non_commuting_graph(enumerate_elements(spec))
    assert part_major(graph) == reference_part_major(graph)


@settings(max_examples=300, deadline=None)
@given(relabelled_multipartite())
def test_part_major_equals_the_permuted_copy_on_relabelled_graphs(graph):
    assert _certificate(part_major, graph) == _certificate(reference_part_major, graph)


def reference_poly_mul(p, q):
    a, b = p.coeffs, q.coeffs
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return IntPolynomial(out)


_SPARSE_COEFFS = st.lists(
    st.one_of(st.just(0), st.integers(-3, 3), st.integers(-2**100, 2**100)),
    max_size=12,
)


@settings(max_examples=500, deadline=None)
@given(_SPARSE_COEFFS, _SPARSE_COEFFS)
@example([0] * 9 + [1], [2, 1])  # x^9 (x + 2): the sparse operand on the left
@example([2, 1], [0] * 9 + [1])  # ... and on the right
@example([], [1, 2])
@example([1], [0, 0, 3])  # a factor of 1 returns the other operand
@example([1, 0], [1])
def test_poly_mul_equals_the_left_operand_copy(a, b):
    p, q = IntPolynomial(a), IntPolynomial(b)
    assert (p * q).coeffs == reference_poly_mul(p, q).coeffs
    assert (q * p).coeffs == (p * q).coeffs


def test_zero_root_expansion_equals_the_left_operand_copy():
    # QD_256's D form: (x+2)^189 x^63 (x^2 - 378x + 15872); x^63 is one row
    dense, sparse = IntPolynomial((2, 1)) ** 189, IntPolynomial((0, 1)) ** 63
    product = dense * sparse
    assert product == reference_poly_mul(dense, sparse)
    assert product.coeffs == (0,) * 63 + dense.coeffs
    spectrum = spectrum_for(GroupSpec.qd(8), D)
    assert spectrum_to_polynomial(spectrum) == reduce(
        reference_poly_mul,
        [entry_factor(desc) ** mult for desc, mult in spectrum.entries],
        IntPolynomial((1,)),
    )


def reference_multipartite_distance_charpoly(sizes):
    sizes = tuple(int(s) for s in sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    linear = [IntPolynomial((2 - s, 1)) for s in sizes]
    others = products_but_one(linear)
    bracket = linear[0] * others[0]
    for size, other in zip(sizes, others):
        bracket = bracket - size * other
    return IntPolynomial((2, 1)) ** (sum(sizes) - len(sizes)) * bracket


def _charpoly_outcome(charpoly, sizes):
    try:
        return charpoly(sizes)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 9), max_size=14))
@example([])
@example([0, 2])
@example([3] + [2] * 20)
def test_run_length_distance_charpoly_equals_the_per_part_copy(sizes):
    assert _charpoly_outcome(multipartite_distance_charpoly, sizes) == (
        _charpoly_outcome(reference_multipartite_distance_charpoly, sizes)
    )


@pytest.mark.parametrize("spec", default_grid() + LARGE_SPECS, ids=spec_id)
def test_run_length_distance_charpoly_equals_the_per_part_copy_on_claimed_shapes(spec):
    sizes = claimed_partition_sizes(spec)
    assert multipartite_distance_charpoly(sizes) == (
        reference_multipartite_distance_charpoly(sizes)
    )


def _twin_runs(matrix):
    """The maximal runs of consecutive twin indices, covering 0..n-1 in order.

    Indices i and i+1 are twins when columns i and i+1 agree outside rows i
    and i+1, M[i][i] = M[i+1][i+1] and M[i][i+1] = M[i+1][i]; then
    e_(i+1) - e_i is an eigenvector of M.
    """
    rows, cols = matrix.rows, matrix.columns
    runs, start = [], 0
    for i in range(matrix.n - 1):
        a, b = cols[i], cols[i + 1]
        if not (
            a[:i] == b[:i]
            and a[i + 2:] == b[i + 2:]
            and rows[i][i] == rows[i + 1][i + 1]
            and rows[i][i + 1] == rows[i + 1][i]
        ):
            runs.append(range(start, i + 1))
            start = i + 1
    runs.append(range(start, matrix.n))
    return runs


@pytest.mark.parametrize("spec", default_grid(), ids=spec_id)
def test_first_pass_runs_equal_the_adjacent_pair_copy(spec):
    distance = oracle(spec).distance
    for kind in ALL_KINDS:
        matrix = matrix_of_kind(distance, kind)
        assert first_runs(matrix) == _twin_runs(matrix)


@settings(max_examples=300, deadline=None)
@given(planted_twins(symmetric=True))
@example(([[1, 2], [2, 1]], [range(2)], None))
@example(([[0, 1, 2], [1, 0, 2], [2, 2, 5]], [range(2), range(2, 3)], None))
def test_first_pass_runs_equal_the_adjacent_pair_copy_on_symmetric_planted_twins(case):
    # twins of a symmetric matrix are an equivalence, so checking each index
    # against its run's leader finds the runs of adjacent twin pairs
    matrix = IntMatrix.from_rows(case[0])
    assert first_runs(matrix) == _twin_runs(matrix)


def reference_twin_similar(matrix):
    """The rows of T^-1 M T, an integer matrix similar to M, for the twin runs of M.

    Each run's first index s keeps f_s = e_s; every other index v of the run
    gets f_v = e_v - e_s.  The differences come first and the leaders last.
    Column f_v of M T is column v minus column s.  T is unit triangular up to
    that order, so T^-1 is integral: in T^-1 (M T) a leader's row is the sum
    of its run's rows.  Without twins T = I and the rows of M are returned as
    they are.
    """
    runs = _twin_runs(matrix)
    if len(runs) == matrix.n:
        return matrix.rows
    cols = matrix.columns
    moved = [tuple(map(sub, cols[v], cols[run[0]])) for run in runs for v in run[1:]]
    moved += [cols[run[0]] for run in runs]
    rows = list(zip(*moved))
    return [rows[v] for run in runs for v in run[1:]] + [
        tuple(map(sum, zip(*rows[run.start:run.stop]))) for run in runs
    ]


@pytest.mark.parametrize("spec", default_grid(), ids=spec_id)
def test_char_poly_equals_that_of_the_twin_similarity(spec):
    distance = oracle(spec).distance
    for kind in ALL_KINDS:
        matrix = matrix_of_kind(distance, kind)
        similar = IntMatrix.from_rows(reference_twin_similar(matrix))
        assert char_poly(similar) == char_poly(matrix)


@settings(max_examples=300, deadline=None)
@given(planted_twins())
def test_char_poly_equals_that_of_the_twin_similarity_on_planted_twins(case):
    matrix = IntMatrix.from_rows(case[0])
    similar = IntMatrix.from_rows(reference_twin_similar(matrix))
    assert char_poly(similar) == char_poly(matrix)


def reference_per_vertex_graph(group):
    masks = group.commuting_masks
    everything = (1 << group.order) - 1
    idx = [i for i, mask in enumerate(masks) if mask != everything]
    if not idx:
        raise AbelianGroupError(f"{group.spec.label()} is abelian, no vertices")
    full = (1 << len(idx)) - 1
    rows = tuple(full & ~r for r in select_bits([masks[i] for i in idx], idx))
    return NCGraph(tuple(group.elements[i] for i in idx), rows)


def _graph_outcome(build, group):
    try:
        return build(group)
    except AbelianGroupError as exc:
        return str(exc)


def _assert_per_mask_graph(group):
    graph = _graph_outcome(non_commuting_graph, group)
    assert graph == _graph_outcome(reference_per_vertex_graph, group)
    if isinstance(graph, str):
        return
    masks = group.commuting_masks
    rows_of: dict[int, set[int]] = {}
    for x, row in zip(graph.vertices, graph.neighbors):
        rows_of.setdefault(masks[group.elements.index(x)], set()).add(id(row))
    assert all(len(ids) == 1 for ids in rows_of.values())


@pytest.mark.parametrize(
    "spec", default_grid() + LARGE_SPECS + [GroupSpec.qd(9)], ids=spec_id
)
def test_per_mask_graph_equals_the_per_vertex_copy(spec):
    _assert_per_mask_graph(enumerate_elements(spec))


def test_per_mask_graph_equals_the_per_vertex_copy_on_s4():
    s4 = symmetric_group_4()
    s4.__dict__["commuting_masks"] = reference_commuting_masks(s4)
    _assert_per_mask_graph(s4)


@settings(max_examples=150, deadline=None)
@given(split_metacyclic_groups())
def test_per_mask_graph_equals_the_per_vertex_copy_on_split_metacyclic(group):
    _assert_per_mask_graph(group)


# '0'/'1' characters to the byte values 0/1: one binary digit per byte field.
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def reference_every_vertex_distance_matrix(graph):
    n = graph.order
    everything = (1 << n) - 1
    neighbors = graph.neighbors
    code = next(c for c in "BHIQ" if n <= 1 << 8 * struct.calcsize("<" + c))
    width = struct.calcsize("<" + code)
    unpack = struct.Struct(f"<{n}{code}").unpack
    fmt = f"0{n}b"
    fields_of = bytearray(n * width)
    rows = []
    for src in range(n):
        planes = []
        seen = frontier = 1 << src
        level = 0
        while frontier and seen != everything:
            level += 1
            unseen = everything & ~seen
            reach = 0
            for u in bit_indices(frontier):
                reach |= neighbors[u] & unseen
                if reach == unseen:
                    break
            frontier = reach
            seen |= reach
            if level.bit_length() > len(planes):
                planes.append(0)
            for k in bit_indices(level):
                planes[k] |= reach
        if seen != everything:
            missing = everything & ~seen
            far = (missing & -missing).bit_length() - 1
            raise DisconnectedGraph(f"vertex {far} unreachable from vertex {src}")
        row = 0
        for k, plane in enumerate(planes):
            digits = format(plane, fmt).encode().translate(_DIGIT_BYTES)
            if width > 1:
                fields_of[width - 1::width] = digits
                digits = fields_of
            row |= int.from_bytes(digits, "big") << k
        rows.append(unpack(row.to_bytes(n * width, "little")))
    return IntMatrix(tuple(rows))


@pytest.mark.parametrize("spec", default_grid() + LARGE_SPECS, ids=spec_id)
def test_twin_row_distances_equal_the_every_vertex_copy(spec):
    # the raw graph lists a part's twins apart, the part-major one together
    raw = non_commuting_graph(enumerate_elements(spec))
    for graph in (raw, part_major(raw)[0]):
        assert distance_matrix(graph) == reference_every_vertex_distance_matrix(graph)


@st.composite
def graphs_with_planted_twins(draw):
    """A random graph plus copies of its vertices, listed in a random order.

    An open copy has its original's neighbours, so the two are twins with
    equal masks; a closed copy is also adjacent to its original, so their
    closed neighbourhoods are equal but their masks are not.  An isolated
    pair has the empty mask twice and disconnects the graph.
    """
    n = draw(st.integers(1, 8))
    adj = [set() for _ in range(n)]
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=3 * n)):
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    for kind in draw(st.lists(st.sampled_from(["open", "closed", "isolated"]),
                              max_size=8)):
        if kind == "isolated":
            adj += [set(), set()]
            continue
        u, c = draw(st.integers(0, len(adj) - 1)), len(adj)
        adj.append(set(adj[u]) | ({u} if kind == "closed" else set()))
        for w in adj[c]:
            adj[w].add(c)
    order = draw(st.permutations(range(len(adj))))
    place = {v: i for i, v in enumerate(order)}
    rows = tuple(sum(1 << place[w] for w in adj[v]) for v in order)
    return NCGraph(tuple(range(len(rows))), rows)


@settings(max_examples=400, deadline=None)
@given(graphs_with_planted_twins())
@example(NCGraph((0, 1, 2, 3), (0b0010, 0b0001, 0, 0)))
@example(NCGraph((0, 1, 2, 3), (0, 0, 0b1000, 0b0100)))
# 1 and 2 are adjacent with equal closed neighbourhoods {0, 1, 2}
@example(NCGraph((0, 1, 2), (0b110, 0b101, 0b011)))
@example(NCGraph((0, 1, 2, 3), (0b1010, 0b0101, 0b1010, 0b0101)))
def test_twin_row_distances_equal_the_every_vertex_copy_on_planted_twins(graph):
    assert_depth_2_read(graph, reference_every_vertex_distance_matrix)


def reference_factor_out(oracle_poly, spectrum):
    residual = oracle_poly
    leftover = []
    for desc, mult in spectrum.entries:
        factor = entry_factor(desc)
        used = 0
        while used < mult:
            quot, rem = residual.divmod_monic(factor)
            if not rem.is_zero:
                break
            residual = quot
            used += 1
        if used < mult:
            leftover.append((desc, mult - used))
    return residual, tuple(leftover)


def reference_first_diff(a, b):
    ca, cb = a.coeffs, b.coeffs
    for i in range(max(len(ca), len(cb))):
        va = ca[i] if i < len(ca) else 0
        vb = cb[i] if i < len(cb) else 0
        if va != vb:
            return f"first differing coefficient at x^{i}: oracle={va}, closed={vb}"
    return ""


# What a report tells its readers.  Its dataclass fields hold the factored
# form; the expanded polynomials and the diff line are read as attributes.
REPORT_ATTRIBUTES = (
    "group", "kind", "order", "matched", "oracle_poly", "closed_poly", "partition",
    "diff_summary", "residual", "unmatched_closed", "error",
)


def observed(report):
    return {name: getattr(report, name) for name in REPORT_ATTRIBUTES}


def reference_compare(spec, kind, staged):
    """Both sides expanded and compared by coefficients; closed factors divided out one at a time."""
    oracle_poly = char_poly(matrix_of_kind(staged.distance, kind))
    spectrum = spectrum_for(spec, kind)
    closed = spectrum_to_polynomial(spectrum)
    matched = oracle_poly == closed
    residual, leftover = (None, ()) if matched else reference_factor_out(oracle_poly, spectrum)
    return dict(
        group=spec,
        kind=kind,
        order=staged.graph.order,
        matched=matched,
        oracle_poly=oracle_poly,
        closed_poly=closed,
        partition=staged.partition,
        diff_summary=reference_first_diff(oracle_poly, closed),
        residual=residual,
        unmatched_closed=leftover,
        error=None,
    )


def reference_doubling_diff(shared, oracle_only, rest, closed_only):
    """The first differing coefficient of S*A and S*B, found by doubling the truncation.

    S is the shared product, A the oracle-only product times `rest`, B the
    closed-only product.
    """
    degree = rest.degree + 2 * sum(m for _, m in oracle_only + closed_only)  # >= deg A, deg B
    k = 1
    while True:
        low_a = IntPolynomial(_expand_low(oracle_only, k)) * rest
        a = (low_a.coeffs + (0,) * k)[:k]
        b = _expand_low(closed_only, k)
        j = next((i for i in range(k) if a[i] != b[i]), None)
        if j is not None:
            break
        if k > degree:
            return ""
        k *= 2
    s = _expand_low([(d, m) for d, m in shared if d != 0], j + 1)
    va = sum(s[u] * a[j - u] for u in range(j + 1))
    vb = sum(s[u] * b[j - u] for u in range(j + 1))
    i = dict(shared).get(0, 0) + j
    return f"first differing coefficient at x^{i}: oracle={va}, closed={vb}"


def reference_normalized_compare(spec, kind, staged):
    """Twin eigenvalues and a block of degree <= 2 normalized like the closed form.

    They are compared with the stated entries as multisets; a block of
    higher degree stays whole, and the stated entries left over are divided
    out of it.
    """
    roots, block = char_poly_factors(matrix_of_kind(staged.distance, kind))
    spectrum = spectrum_for(spec, kind)
    raw = list(roots.items())
    rest = POLY_ONE
    if block.degree > 2:
        rest = block
    elif block.degree == 2:
        raw.append((QuadraticEig(-block.coeffs[1], block.coeffs[0]), 1))
    elif block.degree == 1:
        raw.append((-block.coeffs[0], 1))
    found = make_spectrum(staged.graph.order - rest.degree, kind, raw).entries
    oracle_only = tuple(_minus(found, spectrum.entries))
    closed_only = tuple(_minus(spectrum.entries, found))
    residual, leftover = _factor_out(rest, closed_only)
    matched = not oracle_only and not leftover and residual == POLY_ONE
    shared = tuple(_minus(spectrum.entries, closed_only))
    shared_poly = _expand(shared)
    return dict(
        group=spec,
        kind=kind,
        order=staged.graph.order,
        matched=matched,
        oracle_poly=_expand(oracle_only, shared_poly) * rest,
        closed_poly=_expand(closed_only, shared_poly),
        partition=staged.partition,
        diff_summary="" if matched else reference_doubling_diff(
            shared, oracle_only, rest, closed_only
        ),
        residual=None if matched else _expand(oracle_only, residual),
        unmatched_closed=leftover,
        error=None,
    )


def observed_compare(spec, kind, staged):
    return observed(_compare(spec, kind, staged))


def _compare_outcome(compare, spec, kind, staged):
    try:
        return compare(spec, kind, staged)
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize(
    "spec", default_grid() + [GroupSpec.qd(8), GroupSpec.q4n(64)], ids=spec_id
)
def test_factored_comparison_equals_the_expanded_copy(spec):
    staged = oracle(spec, 300)
    reports = [_compare(spec, kind, staged) for kind in ALL_KINDS]
    assert list(map(observed, reports)) == [
        reference_compare(spec, kind, staged) for kind in ALL_KINDS
    ]
    assert list(map(observed, reports)) == [
        reference_normalized_compare(spec, kind, staged) for kind in ALL_KINDS
    ]
    # the stated QD_2^n and even-m M_2mn D^Q forms are refuted
    refuted = spec.family == "qd" or spec.family == "metacyclic" and spec.m % 2 == 0 and spec.m != 4
    assert [r.matched for r in reports] == [True, True, not refuted]


def test_factored_diff_line_equals_the_scan_of_the_expanded_polynomials(grid_results):
    mismatches = [r for r in grid_results.reports if not r.matched]
    assert len(mismatches) == 4 + 12  # QD_2^n, and M_2mn for m = 6, 8, 10
    for report in mismatches:
        assert report.diff_summary == reference_first_diff(
            report.oracle_poly, report.closed_poly
        )


@pytest.mark.parametrize("n", [8, 10], ids=["QD_256", "QD_1024"])
def test_factored_diff_line_equals_the_scan_at_large_orders(n):
    # QD_1024 D^Q has order 1022; each printed value has about 3,190 digits
    spec = GroupSpec.qd(n)
    staged = oracle(spec, 1100)
    report = _compare(spec, DQ, staged)
    assert not report.matched
    assert report.diff_summary == reference_first_diff(report.oracle_poly, report.closed_poly)
    assert observed(report) == reference_normalized_compare(spec, DQ, staged)


_staged = cache(oracle)


def _restate(mp, spec, kind, raw):
    """Make spec's family state `raw` as the spectrum of `kind`, for a graph of its order."""
    record = spec.record
    count = sum((2 if isinstance(d, QuadraticEig) else 1) * m for d, m in raw)
    mp.setitem(families.FAMILY_RECORDS, spec.family, record._replace(
        parts=lambda n, m: (count, 0, 0),
        closed_forms={**record.closed_forms, kind: lambda n, m: raw},
    ))


@st.composite
def restated_forms(draw):
    """A grid instance of graph order <= 30 and its stated spectrum, changed in one way.

    An entry is dropped, shifted (an integer, or the sum of a pair), gives
    part of its multiplicity to another entry, or becomes a pair whose
    discriminant is not a square; or nothing changes.
    """
    spec = draw(st.sampled_from(RESTATED_SPECS))
    kind = draw(st.sampled_from(ALL_KINDS))
    entries = list(spectrum_for(spec, kind).entries)
    i = draw(st.integers(0, len(entries) - 1))
    desc, mult = entries[i]
    change = draw(st.sampled_from(["none", "drop", "shift", "move", "surd"]))
    if change == "drop":
        del entries[i]
    elif change == "shift":
        delta = draw(st.integers(-3, 3).filter(bool))
        if isinstance(desc, QuadraticEig):
            entries[i] = (QuadraticEig(desc.s + delta, desc.p), mult)
        else:
            entries[i] = (desc + delta, mult)
    elif change == "move":
        j = draw(st.integers(0, len(entries) - 1).filter(lambda j: j != i))
        moved = draw(st.integers(1, mult))
        entries[i] = (desc, mult - moved)
        entries[j] = (entries[j][0], entries[j][1] + moved)
    elif change == "surd":
        centre = desc.s // 2 if isinstance(desc, QuadraticEig) else desc
        c = draw(st.integers(-12, 12).filter(lambda c: is_perfect_square(c) is None))
        entries[i] = (QuadraticEig(2 * centre, centre * centre - c), mult)
    return spec, kind, entries


RESTATED_SPECS = [s for s in default_grid() if sum(claimed_partition_sizes(s)) <= 30]


@settings(max_examples=300, deadline=None)
@given(restated_forms())
# Q_8's D^L block is x; its root stated twice leaves (0)^1 over, and the
# uncovered twin eigenvalue 6 is the residual
@example((GroupSpec.q4n(2), DL, [(0, 2), (6, 1), (8, 3)]))
# M_12's D^Q block (x - 12)(x - 22) is divided by two stated entries, and
# (16)^3 is left over
@example((GroupSpec.metacyclic(6, 1), DQ, [(8, 2), (10, 3), (12, 1), (16, 3), (22, 1)]))
def test_factored_comparison_equals_the_expanded_copy_on_restated_forms(case):
    spec, kind, raw = case
    staged = _staged(spec)
    with pytest.MonkeyPatch.context() as mp:
        _restate(mp, spec, kind, raw)
        outcome = _compare_outcome(observed_compare, spec, kind, staged)
        assert outcome == _compare_outcome(reference_compare, spec, kind, staged)
        assert outcome == _compare_outcome(reference_normalized_compare, spec, kind, staged)


def test_factored_comparison_keeps_a_cubic_block_unsplit():
    # K_{1,2,3}: its three part sizes differ, so the D and D^Q leader blocks
    # stay 3 x 3; x^3 - 6x^2 - 3x + 2 (D) has no rational root.  The D^L
    # leader block's three leaders are twins, so it splits to order 1.
    graph, partition = part_major(complete_multipartite((1, 2, 3)))
    staged = Oracle(graph, partition)
    blocks = [char_poly_factors(matrix_of_kind(staged.distance, kind))[1]
              for kind in ALL_KINDS]
    assert [b.degree for b in blocks] == [3, 1, 3]
    assert [char_poly_factors(staged.matrix(kind))[1] for kind in ALL_KINDS] == blocks
    spec = GroupSpec.q4n(2)  # Q_8: graph order 6, stated forms of K_{2,2,2}
    for kind in ALL_KINDS:
        report = _compare(spec, kind, staged)
        assert not report.matched
        assert observed(report) == reference_compare(spec, kind, staged)
        assert observed(report) == reference_normalized_compare(spec, kind, staged)
    stated = {
        DL: [(0, 1), (6, 2), (8, 1), (9, 2)],  # the whole D^L spectrum
        D: [(-2, 3), (QuadraticEig(6, -1), 1), (0, 1)],
    }
    for kind, raw in stated.items():
        with pytest.MonkeyPatch.context() as mp:
            _restate(mp, spec, kind, raw)
            report = _compare(spec, kind, staged)
            assert observed(report) == reference_compare(spec, kind, staged)
            assert observed(report) == reference_normalized_compare(spec, kind, staged)
            assert report.matched == (kind == DL)


class BfsOracle(Oracle):
    """An oracle on a graph of any diameter: D by the reference BFS, each kind dense."""

    @cached_property
    def distance(self):
        return reference_distance_matrix(self.graph)

    def matrix(self, kind):
        return matrix_of_kind(self.distance, kind)


def test_factored_comparison_divides_stated_entries_out_of_a_quartic_block():
    # The path P_4 is no complete multipartite graph and has no twins, so its
    # D^L stays one quartic block, x^4 - 20x^3 + 128x^2 - 264x
    # = x (x - 6) (x^2 - 14x + 44), whose quadratic factor has the
    # non-square discriminant 20.
    # P_4 has diameter 3, past what `distance_matrix` and the mask form
    # read, so D comes from the reference BFS and each kind is dense.
    graph = NCGraph((0, 1, 2, 3), (0b0010, 0b0101, 0b1010, 0b0100))
    staged = BfsOracle(graph, None)
    roots, block = char_poly_factors(staged.matrix(DL))
    assert not roots and block == IntPolynomial((0, -264, 128, -20, 1))
    spec = GroupSpec.q4n(2)
    pair = QuadraticEig(14, 44)
    with pytest.MonkeyPatch.context() as mp:
        _restate(mp, spec, DL, [(0, 1), (6, 1), (pair, 1)])  # the whole D^L spectrum
        report = _compare(spec, DL, staged)
        assert observed(report) == reference_compare(spec, DL, staged)
        assert observed(report) == reference_normalized_compare(spec, DL, staged)
        assert (report.matched, report.residual) == (True, None)
    with pytest.MonkeyPatch.context() as mp:
        _restate(mp, spec, DL, [(0, 1), (7, 1), (pair, 1)])
        report = _compare(spec, DL, staged)
        assert observed(report) == reference_compare(spec, DL, staged)
        assert observed(report) == reference_normalized_compare(spec, DL, staged)
        assert report.residual == IntPolynomial((-6, 1))
        assert report.unmatched_closed == ((7, 1),)
    with pytest.MonkeyPatch.context() as mp:
        # every stated entry divides, but x - 6 is left of the block
        _restate(mp, spec, DL, [(0, 1), (pair, 1)])
        report = _compare(spec, DL, staged)
        assert observed(report) == reference_compare(spec, DL, staged)
        assert observed(report) == reference_normalized_compare(spec, DL, staged)
        assert (report.matched, report.unmatched_closed) == (False, ())
        assert report.residual == IntPolynomial((-6, 1))


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_a_stated_entry_beyond_the_oracle_is_refuted(kind):
    # every oracle factor is stated, and one more: only the leftover differs
    spec = GroupSpec.q4n(3)
    staged = _staged(spec)
    raw = [*spectrum_for(spec, kind).entries, (1000, 1)]
    with pytest.MonkeyPatch.context() as mp:
        _restate(mp, spec, kind, raw)
        report = _compare(spec, kind, staged)
        assert observed(report) == reference_compare(spec, kind, staged)
    assert (report.matched, report.residual) == (False, IntPolynomial((1,)))
    assert report.unmatched_closed == ((1000, 1),)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_a_stated_entry_that_cannot_be_expanded_is_refused_on_a_match(kind):
    # Fraction(v) equals the oracle's v, so the entry is shared and the forms
    # match; expanding it raises NonIntegralSpectrum, and so does the factored
    # comparison, which expands no shared entry
    spec = GroupSpec.q4n(3)
    staged = _staged(spec)
    (desc, mult), *rest = spectrum_for(spec, kind).entries
    with pytest.MonkeyPatch.context() as mp:
        _restate(mp, spec, kind, [(Fraction(desc), mult), *rest])
        # raised by the comparison itself, not when a polynomial is read
        outcome = _compare_outcome(_compare, spec, kind, staged)
        assert outcome == _compare_outcome(reference_compare, spec, kind, staged)
    assert outcome == ("NonIntegralSpectrum", f"cannot expand entry {Fraction(desc)!r}")


def reference_leader_block(form, bounds):
    """B[i][j], the sum over run i of column s_j, from one `str.count` per run and leader."""
    fmt, on, off = f"0{form.n}b", form.on, form.off
    runs = list(zip(bounds, bounds[1:]))
    cols = []
    for j, (s, _) in enumerate(runs):
        # the string lists index n - 1 first; reversed, index i is character i
        bits = format(form.masks[s] & ~(1 << s), fmt)[::-1]
        col = [off * (b - a) + (on - off) * bits.count("1", a, b) for a, b in runs]
        col[j] += form.diagonal[s] - off
        cols.append(col)
    return IntMatrix(tuple(zip(*cols)))


def leader_block_calls(form):
    """`char_poly_factors(form)` and the (bounds, block) of each `leader_block` call it made."""
    calls = []
    sparse = MaskMatrix.leader_block

    def recording(self, bounds):
        block = sparse(self, bounds)
        calls.append((list(bounds), block))
        return block

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MaskMatrix, "leader_block", recording)
        factors = char_poly_factors(form)
    return factors, calls


@pytest.mark.parametrize(
    "spec", default_grid() + LARGE_SPECS + [GroupSpec.qd(11)], ids=spec_id
)
def test_sparse_leader_block_equals_the_str_count_copy(spec):
    staged = oracle(spec, 2100)
    for kind in ALL_KINDS:
        form = staged.matrix(kind)
        _, calls = leader_block_calls(form)
        assert len(calls) == 1
        for bounds, block in calls:
            assert block == reference_leader_block(form, bounds)


def test_sparse_leader_block_factors_equal_the_str_count_ones_at_order_8190(monkeypatch):
    staged = oracle(GroupSpec.qd(13), 8200)
    forms = [staged.matrix(kind) for kind in ALL_KINDS]
    sparse = [char_poly_factors(form) for form in forms]
    monkeypatch.setattr(MaskMatrix, "leader_block", reference_leader_block)
    assert [char_poly_factors(form) for form in forms] == sparse
