"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Every comparison in here is exact; there are no tolerances anywhere.
"""

import random
import time
from contextlib import contextmanager

import pytest

from ncgspectra import (
    ALL_KINDS,
    GroupSpec,
    MatrixKind,
    center,
    char_poly,
    claimed_partition_sizes,
    complete_multipartite,
    distance_matrix,
    eigenbasis_q4n,
    enumerate_elements,
    is_ca_group,
    is_perfect_square,
    matrix_of_kind,
    multipartite_distance_charpoly,
    non_commuting_graph,
    oracle,
    part_major,
    search_integral,
    spectrum_for,
    verify_instance,
)
import ncgspectra.exactalg as exactalg
from ncgspectra.exactalg import IntMatrix
from ncgspectra.verify import _factor_out

from charpoly_reference import char_poly_interpolation
from test_kernels import mat_vec

D = MatrixKind.DISTANCE
DL = MatrixKind.DISTANCE_LAPLACIAN
DQ = MatrixKind.DISTANCE_SIGNLESS_LAPLACIAN


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {desc}")


def test_criterion_1_octahedron_triple_check():
    with criterion(1, "octahedron triple check, closed == oracle, < 1 s"):
        start = time.time()
        expected = {
            D: ((-2, 3), (0, 2), (6, 1)),
            DL: ((0, 1), (6, 2), (8, 3)),
            DQ: ((4, 3), (6, 2), (12, 1)),
        }
        for kind, entries in expected.items():
            report = verify_instance(GroupSpec.q4n(2), kind)
            assert report.matched
            assert spectrum_for(GroupSpec.q4n(2), kind).entries == entries
        assert time.time() - start < 1.0


def _stated_matches(report):
    """Whether the instance belongs to the must-match list of closed forms."""
    family, kind = report.group.family, report.kind
    if family in ("q4n", "u6n"):
        return True
    if family == "qd":
        return kind in (D, DL)
    if kind in (D, DL):
        return True
    return report.group.m % 2 == 1 or report.group.m == 4


def test_criterion_2_grid_verification(grid_results):
    with criterion(2, "grid verification with arbitration records, <= 5 min"):
        reports = grid_results.reports
        assert len(reports) == 57 * 3
        assert not any(r.error for r in reports)
        for report in reports:
            if not report.matched:
                assert report.residual is not None and not report.residual.is_zero
                assert report.diff_summary
                assert report.unmatched_closed
        for report in reports:
            if _stated_matches(report):
                assert report.matched, (report.group.label(), report.kind)
        # arbitration records for the three suspect closed forms: the report
        # must exist and be bit-stable under recomputation
        arbitration = [
            (GroupSpec.qd(4), DQ),
            (GroupSpec.metacyclic(5, 1), DQ),
            (GroupSpec.metacyclic(6, 1), DQ),
        ]
        for spec, kind in arbitration:
            report = grid_results.by_key[(spec, kind)]
            again = verify_instance(spec, kind)
            assert report == again
            outcome = "matched" if report.matched else (
                f"mismatch, residual {report.residual}"
            )
            print(f"  arbitration {spec.label()} {kind.value}: {outcome}")
        assert grid_results.elapsed <= 300, f"grid took {grid_results.elapsed:.0f}s"


def test_criterion_3_multipartite_charpoly_formula(grid_results):
    with criterion(3, "multipartite distance charpoly == oracle on grid + units"):
        for report in grid_results.reports:
            if report.kind != D:
                continue
            assert multipartite_distance_charpoly(report.partition) == report.oracle_poly
        for sizes in [(1,), (1, 1), (3, 3, 3)]:
            formula = multipartite_distance_charpoly(sizes)
            if len(sizes) == 1:
                oracle = char_poly(IntMatrix(((0,),)))
            else:
                oracle = char_poly(distance_matrix(complete_multipartite(sizes)))
            assert formula == oracle


def test_criterion_4_integrality_searches(grid_results):
    with criterion(4, "integrality searches (distance, dl, dq) at stated bounds"):
        # (a) Q_4n distance-integral parameters up to 1000
        specs = [GroupSpec.q4n(n) for n in range(2, 1001)]
        recs = search_integral(specs, D)
        found = [r.group.n for r in recs]
        condition = [
            n for n in range(2, 1001)
            if is_perfect_square(5 * (n - 1) ** 2 + 4) is not None
        ]
        assert found == condition
        assert found[:4] == [2, 4, 9, 22]
        assert all(r.agree for r in recs)
        for n in (2, 4):
            report = grid_results.by_key[(GroupSpec.q4n(n), D)]
            assert report.matched
            closed = spectrum_for(GroupSpec.q4n(n), D)
            assert closed.is_integral
            residual, leftover = _factor_out(report.oracle_poly, closed.entries)
            assert residual.coeffs == (1,) and leftover == ()
        # (b) U_6n never distance integral
        assert search_integral([GroupSpec.u6n(n) for n in range(1, 1001)], D) == []
        assert not any(
            spectrum_for(GroupSpec.u6n(n), D).is_integral for n in range(1, 1001)
        )
        # (c) distance Laplacian integral on the whole grid, all families
        for spec in grid_results.specs:
            assert spectrum_for(spec, DL).is_integral
            assert grid_results.by_key[(spec, DL)].matched
        # (d) always-integral signless-Laplacian families
        for n in range(1, 101):
            assert spectrum_for(GroupSpec.u6n(n), DQ).is_integral
        for n in range(1, 26):
            assert spectrum_for(GroupSpec.metacyclic(4, n), DQ).is_integral


def test_criterion_5_eigenvector_suites():
    with criterion(5, "explicit eigenvector families for Q_4n, n in [2, 12]"):
        for n in range(2, 13):
            group = enumerate_elements(GroupSpec.q4n(n))
            graph, _ = part_major(non_commuting_graph(group))
            dist = distance_matrix(graph)
            for kind, minimum in ((DL, 4 * n - 3), (DQ, 4 * n - 4)):
                result = eigenbasis_q4n(kind, n)
                assert result.vector_count >= minimum
                if kind == DL:
                    labels = [f.label for f in result.families]
                    assert "all-ones" in labels
                matrix = matrix_of_kind(dist, kind)
                for fam in result.families:
                    for vec in fam.vectors:
                        assert mat_vec(matrix, vec) == tuple(
                            fam.eigenvalue * x for x in vec
                        )
                families = result.families
                for i in range(len(families)):
                    for j in range(i + 1, len(families)):
                        for u in families[i].vectors:
                            for v in families[j].vectors:
                                assert sum(a * b for a, b in zip(u, v)) == 0


def criterion_6_random_matrices():
    """Criterion 6's 50 seeded random matrices, of order 1 to 40."""
    rng = random.Random(61803398)
    matrices = []
    for _ in range(50):
        n = rng.randint(1, 40)
        matrices.append(IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        ))
    return matrices


def test_criterion_6_charpoly_cross_check(grid_results, monkeypatch):
    with criterion(6, "Hessenberg char poly == Bareiss interpolation, random + grid"):
        matrices = criterion_6_random_matrices()
        expected = [char_poly(matrix) for matrix in matrices]

        def refuse(*args):
            raise AssertionError("the reference called the char-poly engine")

        # every reference call below runs with the engine disabled
        monkeypatch.setattr(exactalg, "_hessenberg_mod", refuse)
        monkeypatch.setattr(exactalg, "char_poly_factors", refuse)
        with pytest.raises(AssertionError, match="engine"):
            char_poly(matrices[0])
        assert [char_poly_interpolation(matrix) for matrix in matrices] == expected
        checked = 0
        for report in grid_results.reports:
            if report.kind != D or report.order > 60:
                continue
            matrix = matrix_of_kind(oracle(report.group).distance, D)
            assert char_poly_interpolation(matrix) == report.oracle_poly
            checked += 1
        assert checked >= 40


def test_criterion_7_structure_certification(grid_results):
    with criterion(7, "multipartition, CA property and centre sizes on the grid"):
        for spec in grid_results.specs:
            report = grid_results.by_key[(spec, D)]
            assert report.partition.sizes == claimed_partition_sizes(spec)
            group = enumerate_elements(spec)
            assert is_ca_group(group)
            z = len(center(group))
            if spec.family in ("q4n", "qd"):
                assert z == 2
            elif spec.family == "u6n":
                assert z == spec.n
            elif spec.m % 2:
                assert z == spec.n
            else:
                assert z == 2 * spec.n
