import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgspectra import (
    GroupSpec,
    IntPolynomial,
    InvalidParameters,
    MatrixKind,
    NonIntegralSpectrum,
    QuadraticEig,
    SpectrumSpec,
    char_poly,
    claimed_partition_sizes,
    distance_matrix,
    eigenbasis_q4n,
    enumerate_elements,
    make_spectrum,
    matrix_of_kind,
    multipartite_distance_charpoly,
    non_commuting_graph,
    oracle,
    part_major,
    rational_roots_of_quadratic,
    spectrum_for,
    spectrum_to_polynomial,
)
from ncgspectra.families import Q4N_FAMILY, _q4n_dq_with_offset

from test_kernels import mat_vec

D = MatrixKind.DISTANCE
DL = MatrixKind.DISTANCE_LAPLACIAN
DQ = MatrixKind.DISTANCE_SIGNLESS_LAPLACIAN

# The stated Q_4n forms, kept before any test restates one.
RIGHT_Q4N_FORMS = dict(Q4N_FAMILY.closed_forms)

# Index of each difference family's entry in the stated D^L and D^Q forms.
DIFFERENCE_ENTRY = {
    (DL, "small-part-difference"): 2,
    (DL, "big-part-difference"): 3,
    (DQ, "small-part-difference"): 0,
    (DQ, "big-part-difference"): 1,
}


def shifted_entry(kind, index):
    """The stated Q_4n form of `kind` with entry `index`'s eigenvalue one higher."""

    def wrong(n, m):
        raw = list(RIGHT_Q4N_FORMS[kind](n, m))
        value, mult = raw[index]
        raw[index] = (value + 1, mult)
        return raw

    return wrong


def wrong_dl_eigenvalue(n, m):
    return [(0, 1), (4 * n + 1, n), (4 * n, n), (6 * n - 4, 2 * n - 3)]


def wrong_dl_multiplicity(n, m):
    return [(0, 1), (4 * n - 2, n + 1), (4 * n, n), (6 * n - 4, 2 * n - 3)]


def wrong_small_part_vs_small_part(n, m):
    right = _q4n_dq_with_offset(n, 6 * n - 2)
    return right[:2] + [(4 * n - 1, n - 1)] + right[3:]


def wrong_scaled_constant_offset(n, m):
    # one more than the stated offset moves both roots of the pair up by 1
    return _q4n_dq_with_offset(n, 6 * n - 1)


# Every restated Q_4n form the eigenbasis tests expect to be refuted.
WRONG_Q4N_FORMS = {
    "dl-eigenvalue": (DL, wrong_dl_eigenvalue),
    "dl-multiplicity": (DL, wrong_dl_multiplicity),
    "dq-small-part-vs-small-part": (DQ, wrong_small_part_vs_small_part),
    "dq-scaled-constant": (DQ, wrong_scaled_constant_offset),
} | {
    f"{kind.value}-{label}": (kind, shifted_entry(kind, index))
    for (kind, label), index in DIFFERENCE_ENTRY.items()
}


class TestQuadraticEig:
    def test_square_discriminant_splits(self):
        assert QuadraticEig(6, 0).integer_roots() == (0, 6)
        assert QuadraticEig(18, 72).integer_roots() == (6, 12)
        assert QuadraticEig(4, -2).integer_roots() is None

    def test_str(self):
        assert str(QuadraticEig(4, -2)) == "x^2 - 4*x - 2"

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-40, 40), st.integers(-400, 400))
    def test_roots_satisfy_quadratic(self, s, p):
        roots = QuadraticEig(s, p).integer_roots()
        if roots is not None:
            r1, r2 = roots
            assert r1 + r2 == s and r1 * r2 == p


class TestMakeSpectrum:
    def test_merges_and_sorts(self):
        spec = make_spectrum(
            6, DL, [(8, 1), (0, 1), (8, 2), (6, 2)]
        )
        assert spec.entries == ((0, 1), (6, 2), (8, 3))

    def test_square_pair_normalizes(self):
        spec = make_spectrum(6, D, [(-2, 3), (0, 1), (QuadraticEig(6, 0), 1)])
        assert spec.entries == ((-2, 3), (0, 2), (6, 1))
        assert spec.is_integral

    def test_zero_multiplicity_dropped(self):
        spec = make_spectrum(2, D, [(1, 2), (5, 0)])
        assert spec.entries == ((1, 2),)

    def test_bookkeeping_enforced(self):
        with pytest.raises(ValueError):
            make_spectrum(7, D, [(1, 2)])
        with pytest.raises(ValueError):
            make_spectrum(2, D, [(1, -2), (0, 4)])


class TestMultipartiteCharpoly:
    def test_single_vertex(self):
        assert multipartite_distance_charpoly([1]) == IntPolynomial((0, 1))

    def test_edge(self):
        assert multipartite_distance_charpoly([1, 1]) == IntPolynomial((-1, 0, 1))

    def test_octahedron(self):
        got = multipartite_distance_charpoly([2, 2, 2])
        want = (
            IntPolynomial((2, 1)) ** 3
            * IntPolynomial((0, 1)) ** 2
            * IntPolynomial((-6, 1))
        )
        assert got == want

    @pytest.mark.parametrize("sizes", [(3, 3, 3), (4, 2, 2, 2), (2, 1, 1, 1)])
    def test_matches_bfs_oracle(self, sizes):
        from ncgspectra import complete_multipartite

        oracle = char_poly(distance_matrix(complete_multipartite(sizes)))
        assert multipartite_distance_charpoly(sizes) == oracle

    def test_accepts_partition_structure(self):
        _, partition = part_major(
            non_commuting_graph(enumerate_elements(GroupSpec.q4n(2)))
        )
        assert multipartite_distance_charpoly(partition) == multipartite_distance_charpoly(
            (2, 2, 2)
        )

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            multipartite_distance_charpoly([])
        with pytest.raises(ValueError):
            multipartite_distance_charpoly([0, 2])


def _small_metacyclic(m):
    # graph order is linear in n: n(2m - 1) for odd m, 2n(m - 1) for even m
    unit = sum(claimed_partition_sizes(GroupSpec.metacyclic(m, 1)))
    return st.integers(1, 60 // unit).map(lambda n: GroupSpec.metacyclic(m, n))


# one family, then parameters with graph order <= 60
SMALL_SPECS = st.one_of(
    st.integers(2, 15).map(GroupSpec.q4n),
    st.integers(4, 5).map(GroupSpec.qd),
    st.integers(1, 12).map(GroupSpec.u6n),
    st.integers(3, 30).flatmap(_small_metacyclic),
)


@settings(max_examples=40, deadline=None)
@given(SMALL_SPECS)
def test_oracle_distance_charpoly_equals_quotient_formula(spec):
    staged = oracle(spec, order_cap=60)
    matrix = matrix_of_kind(staged.distance, D)
    assert char_poly(matrix) == multipartite_distance_charpoly(staged.partition)


class TestQ4nSpectra:
    def test_distance_n2(self):
        assert spectrum_for(GroupSpec.q4n(2), D).entries == ((-2, 3), (0, 2), (6, 1))

    def test_distance_general(self):
        s = spectrum_for(GroupSpec.q4n(5), D)
        assert s.entries == ((-2, 12), (0, 4), (QuadraticEig(24, 60), 1))
        assert not s.is_integral
        assert s.eigenvalue_sum == 0

    def test_dl_n2(self):
        assert spectrum_for(GroupSpec.q4n(2), DL).entries == ((0, 1), (6, 2), (8, 3))

    def test_dq_n2(self):
        assert spectrum_for(GroupSpec.q4n(2), DQ).entries == ((4, 3), (6, 2), (12, 1))

    def test_dq_n3_is_integral_with_rational_t(self):
        s = spectrum_for(GroupSpec.q4n(3), DQ)
        assert s.entries == ((8, 3), (10, 5), (12, 1), (22, 1))
        assert s.is_integral

    def test_invalid(self):
        with pytest.raises(InvalidParameters):
            spectrum_for(GroupSpec.q4n(1), D)


class TestQdSpectra:
    def test_distance_n4_normalizes_to_integers(self):
        s = spectrum_for(GroupSpec.qd(4), D)
        assert s.entries == ((-2, 9), (0, 3), (2, 1), (16, 1))
        assert s.is_integral

    def test_distance_n5(self):
        s = spectrum_for(GroupSpec.qd(5), D)
        assert s.entries == ((-2, 21), (0, 7), (QuadraticEig(42, 192), 1))

    def test_dl_n4(self):
        assert spectrum_for(GroupSpec.qd(4), DL).entries == (
            (0, 1), (14, 4), (16, 4), (20, 5)
        )

    def test_dq_n4(self):
        assert spectrum_for(GroupSpec.qd(4), DQ).entries == (
            (12, 4),
            (14, 3),
            (16, 5),
            (QuadraticEig(42, 384), 1),
        )

    def test_invalid(self):
        with pytest.raises(InvalidParameters):
            spectrum_for(GroupSpec.qd(3), D)


class TestU6nSpectra:
    def test_distance_n1(self):
        s = spectrum_for(GroupSpec.u6n(1), D)
        assert s.entries == ((-2, 1), (-1, 2), (QuadraticEig(4, -2), 1))
        assert not s.is_integral

    def test_dl_n1_drops_vanishing_multiplicity(self):
        assert spectrum_for(GroupSpec.u6n(1), DL).entries == ((0, 1), (5, 3), (7, 1))

    def test_dq_n1(self):
        assert spectrum_for(GroupSpec.u6n(1), DQ).entries == ((3, 3), (4, 1), (9, 1))

    def test_dq_always_integral(self):
        for n in range(1, 30):
            assert spectrum_for(GroupSpec.u6n(n), DQ).is_integral

    def test_counts_and_sums(self):
        for n in (1, 2, 7):
            for kind in (D, DL, DQ):
                s = spectrum_for(GroupSpec.u6n(n), kind)
                assert s.eigenvalue_count == 5 * n
                if kind == D:
                    assert s.eigenvalue_sum == 0


class TestMetacyclicSpectra:
    def test_distance_m3_matches_u6(self):
        m6 = spectrum_for(GroupSpec.metacyclic(3, 1), D)
        assert m6.entries == spectrum_for(GroupSpec.u6n(1), D).entries

    def test_dq_m4_matches_octahedron(self):
        m8 = spectrum_for(GroupSpec.metacyclic(4, 1), DQ)
        assert m8.entries == spectrum_for(GroupSpec.q4n(2), DQ).entries

    def test_dl_m4_n2_merges_overlap(self):
        m16 = spectrum_for(GroupSpec.metacyclic(4, 2), DL)
        assert m16.entries == ((0, 1), (12, 2), (16, 9))

    def test_odd_branch(self):
        # M_20 with m=5, n=2 has the same graph K_{8, 2 x 5} as Q_20
        s = spectrum_for(GroupSpec.metacyclic(5, 2), D)
        assert s.entries == spectrum_for(GroupSpec.q4n(5), D).entries
        assert s.eigenvalue_count == 18
        assert s.eigenvalue_sum == 0
        s = spectrum_for(GroupSpec.metacyclic(5, 1), DQ)
        assert s.entries == ((7, 4), (9, 3), (QuadraticEig(29, 184), 1))

    def test_invalid(self):
        with pytest.raises(InvalidParameters):
            spectrum_for(GroupSpec.metacyclic(2, 1), D)
        with pytest.raises(InvalidParameters):
            spectrum_for(GroupSpec.metacyclic(3, 0), D)


class TestSpectrumPolynomial:
    def test_single_zero(self):
        assert spectrum_to_polynomial(make_spectrum(1, D, [(0, 1)])) == IntPolynomial(
            (0, 1)
        )

    def test_pair_expands_to_quadratic(self):
        s = SpectrumSpec(2, D, ((QuadraticEig(4, -2), 1),))
        assert spectrum_to_polynomial(s) == IntPolynomial((-2, -4, 1))

    def test_octahedron_product(self):
        s = spectrum_for(GroupSpec.q4n(2), D)
        want = (
            IntPolynomial((-6, 1))
            * IntPolynomial((0, 1)) ** 2
            * IntPolynomial((2, 1)) ** 3
        )
        assert spectrum_to_polynomial(s) == want

    def test_rejects_foreign_entries(self):
        s = SpectrumSpec(1, D, (("x", 1),))
        with pytest.raises(NonIntegralSpectrum):
            spectrum_to_polynomial(s)


class TestIsIntegral:
    def test_examples(self):
        assert spectrum_for(GroupSpec.q4n(2), D).is_integral
        assert not spectrum_for(GroupSpec.u6n(3), D).is_integral
        assert spectrum_for(GroupSpec.q4n(7), DL).is_integral


class TestClosedVsOracleSmall:
    @pytest.mark.parametrize(
        "spec",
        [GroupSpec.q4n(2), GroupSpec.q4n(3), GroupSpec.u6n(1), GroupSpec.u6n(2),
         GroupSpec.metacyclic(3, 2), GroupSpec.metacyclic(4, 1)],
        ids=lambda s: s.label(),
    )
    @pytest.mark.parametrize("kind", [D, DL, DQ], ids=str)
    def test_trace_and_sum_match(self, spec, kind):
        matrix = matrix_of_kind(oracle(spec).distance, kind)
        s = spectrum_for(spec, kind)
        assert s.eigenvalue_count == matrix.n
        assert s.eigenvalue_sum == matrix.trace()


class TestEigenbasis:
    def test_distance_kind_rejected(self):
        with pytest.raises(ValueError):
            eigenbasis_q4n(D, 2)

    def test_dl_n2_examples(self):
        result = eigenbasis_q4n(DL, 2)
        by_label = {f.label: f for f in result.families}
        assert (-1, -1, 1, 1, 0, 0) in by_label["big-part-vs-one-small-part"].vectors
        assert by_label["big-part-vs-one-small-part"].eigenvalue == 6
        assert (0, 0, -1, 1, 0, 0) in by_label["small-part-difference"].vectors
        assert by_label["small-part-difference"].eigenvalue == 8
        assert by_label["all-ones"].vectors == ((1, 1, 1, 1, 1, 1),)

    def test_dq_n2_scaled_constant(self):
        result = eigenbasis_q4n(DQ, 2)
        scaled = [f for f in result.families if f.label == "scaled-constant"]
        assert {(f.eigenvalue, f.vectors[0]) for f in scaled} == {
            (12, (1, 1, 1, 1, 1, 1)),
            (6, (-2, -2, 1, 1, 1, 1)),
        }
        assert result.irrational_pair is None

    def test_dq_irrational_t_reported(self):
        result = eigenbasis_q4n(DQ, 4)
        assert result.vector_count == 4 * 4 - 4
        assert result.irrational_pair == QuadraticEig(50, 568)
        assert result.irrational_pair.integer_roots() is None

    def test_counts(self):
        for n in range(2, 8):
            assert eigenbasis_q4n(DL, n).vector_count == 4 * n - 2
            dq_count = eigenbasis_q4n(DQ, n).vector_count
            assert dq_count in (4 * n - 4, 4 * n - 2)

    def test_families_are_cross_orthogonal(self):
        for n in (2, 3, 5):
            for kind in (DL, DQ):
                result = eigenbasis_q4n(kind, n)
                fams = result.families
                for i in range(len(fams)):
                    for j in range(i + 1, len(fams)):
                        for u in fams[i].vectors:
                            for v in fams[j].vectors:
                                assert sum(a * b for a, b in zip(u, v)) == 0

    def test_within_family_vectors_need_not_be_orthogonal(self):
        # the big-vs-small-part vectors share the -1 big-part block, so their
        # pairwise inner product is 2n-2, never zero for n >= 2
        result = eigenbasis_q4n(DL, 3)
        fam = next(
            f for f in result.families if f.label == "big-part-vs-one-small-part"
        )
        u, v = fam.vectors[0], fam.vectors[1]
        assert sum(a * b for a, b in zip(u, v)) == 2 * 3 - 2

    def test_vectors_satisfy_eigen_equation(self):
        for n in (2, 4):
            graph, _ = part_major(
                non_commuting_graph(enumerate_elements(GroupSpec.q4n(n)))
            )
            dist = distance_matrix(graph)
            for kind in (DL, DQ):
                matrix = matrix_of_kind(dist, kind)
                for fam in eigenbasis_q4n(kind, n).families:
                    for vec in fam.vectors:
                        assert mat_vec(matrix, vec) == tuple(
                            fam.eigenvalue * x for x in vec
                        )


    @pytest.mark.parametrize(
        "wrong",
        [wrong_dl_eigenvalue, wrong_dl_multiplicity],
        ids=["eigenvalue", "multiplicity"],
    )
    def test_wrong_stated_spectrum_raises(self, monkeypatch, wrong):
        monkeypatch.setitem(Q4N_FAMILY.closed_forms, DL, wrong)
        for n in (2, 3, 5):
            with pytest.raises(ArithmeticError):
                eigenbasis_q4n(DL, n)

    def test_wrong_small_part_vs_small_part_eigenvalue_raises(self, monkeypatch):
        monkeypatch.setitem(
            Q4N_FAMILY.closed_forms, DQ, wrong_small_part_vs_small_part
        )
        for n in (2, 3, 5):
            big = 2 * n - 2
            vec = (0,) * big + (-1, -1, 1, 1) + (0,) * (2 * n - 4)
            message = f"vector {vec} fails M v = {4 * n - 1} v for {DQ} at n={n}"
            with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
                eigenbasis_q4n(DQ, n)

    def test_wrong_integral_scaled_constant_pair_raises(self, monkeypatch):
        monkeypatch.setitem(
            Q4N_FAMILY.closed_forms, DQ, wrong_scaled_constant_offset
        )
        for n in (2, 3, 6):
            pair = wrong_scaled_constant_offset(n, None)[3][0]
            t = rational_roots_of_quadratic(*Q4N_FAMILY.t_quadratic(n, None))[0]
            vec = (t.numerator,) * (2 * n - 2) + (t.denominator,) * (2 * n)
            message = (
                f"vector {vec} fails M v = {pair.integer_roots()[0]} v "
                f"for {DQ} at n={n}"
            )
            with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
                eigenbasis_q4n(DQ, n)

    @pytest.mark.parametrize("kind, label", DIFFERENCE_ENTRY, ids=str)
    def test_wrong_difference_eigenvalue_names_the_first_vector(
        self, monkeypatch, kind, label
    ):
        index = DIFFERENCE_ENTRY[kind, label]
        monkeypatch.setitem(Q4N_FAMILY.closed_forms, kind, shifted_entry(kind, index))
        for n in (2, 3, 5):
            # e_(f+1) - e_f for the first vertex f of the first part concerned
            big, order = 2 * n - 2, 4 * n - 2
            f = big if label == "small-part-difference" else 0
            vec = (0,) * f + (-1, 1) + (0,) * (order - f - 2)
            value = RIGHT_Q4N_FORMS[kind](n, None)[index][0] + 1
            message = f"vector {vec} fails M v = {value} v for {kind} at n={n}"
            with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
                eigenbasis_q4n(kind, n)


class TestClaimedPartitions:
    def test_values(self):
        assert claimed_partition_sizes(GroupSpec.q4n(2)) == (2, 2, 2)
        assert claimed_partition_sizes(GroupSpec.q4n(4)) == (6, 2, 2, 2, 2)
        assert claimed_partition_sizes(GroupSpec.qd(4)) == (6, 2, 2, 2, 2)
        assert claimed_partition_sizes(GroupSpec.u6n(2)) == (4, 2, 2, 2)
        assert claimed_partition_sizes(GroupSpec.metacyclic(5, 1)) == (4, 1, 1, 1, 1, 1)
        assert claimed_partition_sizes(GroupSpec.metacyclic(6, 2)) == (8, 4, 4, 4)
