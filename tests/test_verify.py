import pytest

from ncgspectra import (
    ALL_KINDS,
    GroupSpec,
    IntPolynomial,
    MatrixKind,
    OrderCapExceeded,
    QuadraticEig,
    default_grid,
    integrality_record,
    iter_integral,
    iter_verify,
    make_spectrum,
    predicted_integral,
    search_integral,
    spectrum_for,
    spectrum_to_polynomial,
    verify_grid,
    verify_instance,
)

D = MatrixKind.DISTANCE
DL = MatrixKind.DISTANCE_LAPLACIAN
DQ = MatrixKind.DISTANCE_SIGNLESS_LAPLACIAN


class TestVerifyInstance:
    def test_octahedron_all_kinds_match(self):
        for kind in ALL_KINDS:
            report = verify_instance(GroupSpec.q4n(2), kind)
            assert report.matched
            assert report.oracle_poly == report.closed_poly
            assert report.oracle_poly.is_monic
            assert report.order == 6
            assert report.partition.sizes == (2, 2, 2)

    def test_u6n_dq_matches(self):
        report = verify_instance(GroupSpec.u6n(3), DQ)
        assert report.matched
        assert report.order == 15

    def test_qd_dq_arbitration(self):
        report = verify_instance(GroupSpec.qd(4), DQ)
        assert report.matched == (report.oracle_poly == report.closed_poly)
        again = verify_instance(GroupSpec.qd(4), DQ)
        assert report == again
        if not report.matched:
            assert report.diff_summary
            assert report.residual is not None and not report.residual.is_zero
            assert report.unmatched_closed

    def test_qd_dq_residual_quadratic(self):
        # arbitration outcome for the quasidihedral signless-Laplacian pair:
        # the oracle keeps x^2 - 50x + 568 while the stated closed form offers
        # x^2 - 42x + 384; the linear coefficients differ by 8
        report = verify_instance(GroupSpec.qd(4), DQ)
        assert not report.matched
        assert report.residual == IntPolynomial((568, -50, 1))
        assert report.unmatched_closed == ((QuadraticEig(42, 384), 1),)
        oracle_pair = QuadraticEig(50, 568)
        stated_pair = QuadraticEig(42, 384)
        assert oracle_pair.s - stated_pair.s == 8

    def test_qd_dq_corrected_constant_matches_oracle(self):
        # shifting the stated scaled-constant offset from 3*(2^(n-1)-2) to
        # 3*2^(n-1) - 2 reproduces the oracle exactly
        for n in (4, 5):
            report = verify_instance(GroupSpec.qd(n), DQ)
            half = 2 ** (n - 1)
            stated = spectrum_for(GroupSpec.qd(n), DQ)
            fixed_entries = [
                (d, m) for d, m in stated.entries if not isinstance(d, QuadraticEig)
            ]
            shift = (3 * half - 2) - 3 * (half - 2)
            (pair,) = [d for d, _ in stated.entries if isinstance(d, QuadraticEig)]
            corrected = QuadraticEig(
                pair.s + 2 * shift,
                pair.p + shift * pair.s + shift * shift,
            )
            fixed_entries.append((corrected, 1))
            fixed = make_spectrum(stated.order, DQ, fixed_entries)
            assert spectrum_to_polynomial(fixed) == report.oracle_poly

    def test_metacyclic_even_dq_arbitration(self):
        # two of the stated eigenvalue/multiplicity pairs for even m > 4 do
        # not divide the oracle polynomial; the residual for M_12 factors as
        # (x - 8)(x - 10)^2
        report = verify_instance(GroupSpec.metacyclic(6, 1), DQ)
        assert not report.matched
        assert report.residual == IntPolynomial((-800, 260, -28, 1))
        assert report.unmatched_closed == ((16, 3),)

    def test_mismatch_evaluates_closed_form_once(self, monkeypatch):
        import ncgspectra.verify as verify

        calls = []

        def counting(spec, kind):
            calls.append((spec, kind))
            return spectrum_for(spec, kind)

        monkeypatch.setattr(verify, "spectrum_for", counting)
        assert not verify_instance(GroupSpec.qd(4), DQ).matched
        assert calls == [(GroupSpec.qd(4), DQ)]

    def test_metacyclic_odd_dq_matches(self):
        for m, n in [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (9, 2)]:
            assert verify_instance(GroupSpec.metacyclic(m, n), DQ).matched

    def test_metacyclic_m4_dq_matches(self):
        for n in (1, 2, 3):
            assert verify_instance(GroupSpec.metacyclic(4, n), DQ).matched

    def test_order_cap(self):
        with pytest.raises(OrderCapExceeded):
            verify_instance(GroupSpec.qd(7), D, order_cap=100)
        assert verify_instance(GroupSpec.qd(7), D, order_cap=126).matched

    def test_dl_oracle_has_simple_zero_root(self):
        # connected graphs: the distance Laplacian annihilates exactly the
        # all-ones line, so x divides the oracle polynomial exactly once
        x = IntPolynomial((0, 1))
        for spec in [GroupSpec.q4n(3), GroupSpec.u6n(2), GroupSpec.metacyclic(6, 1)]:
            report = verify_instance(spec, DL)
            quot, rem = report.oracle_poly.divmod_monic(x)
            assert rem.is_zero
            _, rem2 = quot.divmod_monic(x)
            assert not rem2.is_zero
            closed = [m for d, m in spectrum_for(spec, DL).entries if d == 0]
            assert closed == [1]


class TestFactoredReports:
    EXPANSIONS = ("_shared_poly", "oracle_poly", "closed_poly")

    @pytest.fixture
    def expanded(self, monkeypatch):
        """The entries and starting polynomial of every expansion `verify` makes, in order."""
        import ncgspectra.verify as verify

        calls = []
        real_expand = verify._expand

        def counting(entries, poly=IntPolynomial((1,))):
            entries = tuple(entries)
            calls.append((entries, poly))
            return real_expand(entries, poly)

        monkeypatch.setattr(verify, "_expand", counting)
        return calls

    def test_a_matched_report_expands_nothing_until_read(self, expanded):
        report = verify_instance(GroupSpec.q4n(64), DL, order_cap=300)
        assert report.matched and report.diff_summary == ""
        assert expanded == []
        assert not set(self.EXPANSIONS) & set(vars(report))
        assert report.oracle_poly == report.closed_poly
        assert report.oracle_poly.degree == 254 and report.oracle_poly.is_monic
        # the shared entries were expanded once, for both polynomials, and
        # the closed one multiplied by its (empty) unmatched entries
        assert [entries for entries, _ in expanded] == [report.shared, ()]
        assert set(self.EXPANSIONS) <= set(vars(report))

    def test_a_mismatch_expands_its_residual_and_unmatched_product(self, expanded):
        report = verify_instance(GroupSpec.qd(4), DQ)
        assert not report.matched and report.diff_summary
        # the residual is the oracle's block, no twin eigenvalue left over;
        # the diff line reads the unmatched product, and no shared entry
        # is expanded
        assert expanded == [((), report.residual), (report.unmatched_closed, IntPolynomial((1,)))]
        assert not set(self.EXPANSIONS) & set(vars(report))

    def test_error_report_polynomials_are_zero(self):
        (report,) = verify_grid([GroupSpec.q4n(12)], (D,), order_cap=10)
        assert report.error is not None
        assert report.oracle_poly == report.closed_poly == IntPolynomial()

    def test_a_report_pickles_factored(self):
        import pickle

        report = verify_instance(GroupSpec.qd(5), DQ)
        again = pickle.loads(pickle.dumps(report))
        assert again == report and not set(self.EXPANSIONS) & set(vars(again))
        assert again.oracle_poly == report.oracle_poly

    def test_a_diff_line_past_the_digit_limit_is_an_error_report(self):
        import sys

        # the first differing coefficient of QD_2048 D^Q is past CPython's
        # default int-to-str limit: it raises inside the comparison, so the
        # grid run turns it into an error report with the graph order
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            (report,) = verify_grid([GroupSpec.qd(11)], (DQ,), order_cap=2100)
        finally:
            sys.set_int_max_str_digits(old)
        assert (report.order, report.matched) == (2046, False)
        assert report.error.startswith("ValueError: Exceeds the limit (4300 digits)")


class TestVerifyGrid:
    def test_small_grid_counts_and_order(self):
        specs = [GroupSpec.q4n(n) for n in (2, 3, 4)]
        reports = verify_grid(specs, ALL_KINDS)
        assert len(reports) == 9
        assert [r.group.n for r in reports] == [2, 2, 2, 3, 3, 3, 4, 4, 4]
        assert [r.kind for r in reports] == list(ALL_KINDS) * 3
        assert all(r.matched for r in reports)

    def test_errors_embedded_not_raised(self):
        specs = [GroupSpec.q4n(2), GroupSpec.q4n(12)]
        reports = verify_grid(specs, (D,), order_cap=10)
        assert len(reports) == 2
        assert reports[0].matched and reports[0].error is None
        assert not reports[1].matched
        assert "OrderCapExceeded" in reports[1].error

    def test_error_report_order_is_the_graph_order_or_none(self):
        # Q_12 is refused from its centre, with graph order 10; Q_48 from its
        # parameters alone (48 > 4 * 10), so its graph order is never computed
        reports = verify_grid([GroupSpec.q4n(3), GroupSpec.q4n(12)], (D,), order_cap=9)
        assert [r.order for r in reports] == [10, None]
        assert all(r.error.startswith("OrderCapExceeded") for r in reports)

    def test_order_cap_exceeded_carries_its_order_through_pickle(self):
        import pickle

        exc = OrderCapExceeded("Q_12 graph order 10 exceeds cap 9", 10)
        again = pickle.loads(pickle.dumps(exc))
        assert (str(again), again.order) == (str(exc), 10)
        assert OrderCapExceeded("refused unenumerated").order is None

    def test_arithmetic_error_becomes_error_report(self, monkeypatch):
        import ncgspectra.verify as verify

        def refusing(matrix):
            raise ArithmeticError("coefficient bound beyond the prime table")

        monkeypatch.setattr(verify, "char_poly_factors", refusing)
        specs = [GroupSpec.q4n(2), GroupSpec.u6n(1)]
        reports = verify_grid(specs, (D, DQ), jobs=1)
        assert [(r.group, r.kind) for r in reports] == [
            (spec, kind) for spec in specs for kind in (D, DQ)
        ]
        for report in reports:
            assert not report.matched
            assert report.error == (
                "ArithmeticError: coefficient bound beyond the prime table"
            )
        # The graph was built before the char poly failed: its order is kept.
        assert [r.order for r in reports] == [6, 6, 5, 5]

    def test_programming_errors_propagate(self, monkeypatch):
        import ncgspectra.verify as verify

        def broken(matrix):
            raise TypeError("not an instance failure")

        monkeypatch.setattr(verify, "char_poly_factors", broken)
        with pytest.raises(TypeError):
            verify_grid([GroupSpec.q4n(2)], (D,), jobs=1)

    def test_parallel_equals_serial(self):
        specs = [GroupSpec.u6n(n) for n in (1, 2, 3)]
        serial = verify_grid(specs, ALL_KINDS, jobs=1)
        parallel = verify_grid(specs, ALL_KINDS, jobs=2)
        assert serial == parallel

    @staticmethod
    def serial_pool(monkeypatch, cpus, log):
        """Replace the process pool by one that runs each chunk when it is taken.

        `log` records each pool's worker count and the groups of each
        submitted chunk, and counts the chunks in flight: submitted and not
        yet taken.
        """
        import concurrent.futures

        import ncgspectra.verify as verify

        class Taken:
            def __init__(self, fn, work):
                self.fn, self.work = fn, work

            def result(self):
                log["in_flight"] -= 1
                return self.fn(self.work)

        class SerialPool:
            def __init__(self, max_workers):
                log["workers"].append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, work):
                log["chunks"].append(len(work))
                log["in_flight"] += 1
                log["most_in_flight"] = max(log["most_in_flight"], log["in_flight"])
                return Taken(fn, work)

        log.update(workers=[], chunks=[], in_flight=0, most_in_flight=0)
        # verify_grid imports the pool class only when a pool runs
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)

    def test_pool_workers_clamped_to_cpus_and_work(self, monkeypatch):
        import ncgspectra.verify as verify

        specs = [GroupSpec.u6n(n) for n in (1, 2)]
        serial = verify_grid(specs, ALL_KINDS, jobs=1)
        log = {}
        self.serial_pool(monkeypatch, 3, log)
        assert verify_grid(specs, ALL_KINDS, jobs=5000) == serial
        assert verify_grid(specs, (D,), jobs=5000) == [r for r in serial if r.kind == D]
        # two groups: two workers, and four chunks per worker hold one group each
        assert log["workers"] == [2, 2]
        assert log["chunks"] == [1, 1] * 2
        monkeypatch.setattr(verify.os, "cpu_count", lambda: None)
        assert verify_grid(specs, ALL_KINDS, jobs=5000) == serial
        assert log["workers"] == [2, 2]
        # a grid within the first draw is cut into about four chunks per worker
        grid = default_grid()
        self.serial_pool(monkeypatch, 3, log)
        assert verify_grid(grid, (D,), jobs=2) == verify_grid(grid, (D,), jobs=1)
        assert log["workers"] == [2]
        assert log["chunks"] == [8] * 7 + [1]

    def test_pool_draws_specs_lazily_and_bounds_the_work_in_flight(self, monkeypatch):
        import ncgspectra.verify as verify

        drawn = 0

        def counting_specs(count):
            nonlocal drawn
            # from Q_4000 on, every group is refused by the cap from its parameters
            for n in range(1000, 1000 + count):
                drawn += 1
                yield GroupSpec.q4n(n)

        log = {}
        self.serial_pool(monkeypatch, 2, log)
        chunk = verify.POOL_CHUNK
        groups = 20 * chunk + 5
        taken = 0
        for taken, report in enumerate(iter_verify(counting_specs(groups), (D,), jobs=2), 1):
            assert report.group == GroupSpec.q4n(999 + taken)
            assert report.error.startswith("OrderCapExceeded")
            # the first draw of 4 * chunk groups per worker, then one chunk
            # per result taken; never the whole scan
            assert drawn <= max(8 * chunk, taken + 9 * chunk)
        assert taken == groups
        assert log["workers"] == [2]
        assert log["chunks"] == [chunk] * 20 + [5]
        assert log["most_in_flight"] == 8 and log["in_flight"] == 0
        # the scan is drawn once, and the serial path draws it lazily too
        drawn = 0
        stream = iter_verify(counting_specs(groups), (D,), jobs=1)
        next(stream)
        assert drawn == 1

    def test_serial_run_asks_for_no_cpu_count(self, monkeypatch):
        import ncgspectra.verify as verify

        specs = [GroupSpec.u6n(n) for n in (1, 2)]
        expected = verify_grid(specs, ALL_KINDS, jobs=1)

        def refuse():
            raise AssertionError("cpu_count was called")

        monkeypatch.setattr(verify.os, "cpu_count", refuse)
        for jobs in (1, 0, -3):
            assert verify_grid(specs, ALL_KINDS, jobs=jobs) == expected

    def test_one_oracle_per_group_serves_every_kind(self, monkeypatch):
        import ncgspectra.verify as verify

        calls = []
        real_oracle = verify.oracle

        def counting(spec, order_cap=None):
            calls.append(spec)
            return real_oracle(spec, order_cap)

        monkeypatch.setattr(verify, "oracle", counting)
        # Q_12 is refused at cap 9 from its centre, QD_2048 from its parameters
        specs = [GroupSpec.q4n(2), GroupSpec.q4n(3), GroupSpec.u6n(1), GroupSpec.qd(11)]
        reports = verify_grid(specs, ALL_KINDS, order_cap=9, jobs=1)
        assert calls == specs
        assert [(r.group, r.kind) for r in reports] == [
            (spec, kind) for spec in specs for kind in ALL_KINDS
        ]
        assert [r.order for r in reports] == [6] * 3 + [10] * 3 + [5] * 3 + [None] * 3
        refused = reports[3:6] + reports[9:]
        assert all(r.error.startswith("OrderCapExceeded") for r in refused)
        assert all(r.matched for r in reports[:3] + reports[6:9])

    def test_grid_equals_one_instance_at_a_time(self, grid_results):
        assert grid_results.reports == [
            verify_instance(spec, kind) for spec in default_grid() for kind in ALL_KINDS
        ]

    def test_one_report_path_on_the_default_grid(self, grid_results):
        # a match and a mismatch are built by the same code, so these agree
        reports = [r for r in grid_results.reports if r.error is None]
        assert any(r.matched for r in reports) and not all(r.matched for r in reports)
        for r in reports:
            assert r.matched == (r.oracle_poly == r.closed_poly)
            assert r.matched == (r.diff_summary == "")
            assert r.matched == (r.residual is None)
            if r.matched:
                assert r.unmatched_closed == ()

    def test_default_grid_shape(self):
        specs = default_grid()
        assert len(specs) == 11 + 4 + 10 + 32
        assert len({(s.family, s.m, s.n) for s in specs}) == len(specs)


def test_grid_traces_match_polynomial_coefficients(grid_results):
    from ncgspectra import matrix_of_kind, oracle

    by_spec = {}
    for report in grid_results.reports:
        n = report.order
        subleading = report.oracle_poly.coeffs[n - 1]
        if report.kind == D:
            assert subleading == 0
        else:
            if report.group not in by_spec:
                dist = matrix_of_kind(oracle(report.group).distance, D)
                by_spec[report.group] = sum(map(sum, dist.rows))
            assert subleading == -by_spec[report.group]


class TestPredictedIntegral:
    def test_distance_conditions(self):
        assert predicted_integral(GroupSpec.q4n(2), D)[:2] == (True, 3)
        assert predicted_integral(GroupSpec.q4n(3), D)[0] is False
        assert predicted_integral(GroupSpec.qd(4), D)[:2] == (True, 7)
        assert predicted_integral(GroupSpec.u6n(5), D)[0] is False
        assert predicted_integral(GroupSpec.metacyclic(9, 1), D)[:2] == (True, 18)

    def test_dl_always(self):
        for spec in [GroupSpec.q4n(6), GroupSpec.qd(5), GroupSpec.u6n(4),
                     GroupSpec.metacyclic(7, 2)]:
            assert predicted_integral(spec, DL)[0] is True

    def test_dq_conditions(self):
        assert predicted_integral(GroupSpec.q4n(2), DQ)[:2] == (True, 6)
        ok, witness, note = predicted_integral(GroupSpec.q4n(3), DQ)
        assert not ok and "denominator 2" in note
        assert predicted_integral(GroupSpec.u6n(9), DQ)[0] is True
        assert predicted_integral(GroupSpec.metacyclic(4, 7), DQ)[0] is True
        assert predicted_integral(GroupSpec.qd(5), DQ)[0] is False
        assert predicted_integral(GroupSpec.metacyclic(6, 1), DQ)[0] is False


class TestSearchIntegral:
    def test_q4n_distance_first_four(self):
        recs = search_integral([GroupSpec.q4n(n) for n in range(2, 31)], D)
        assert [r.group.n for r in recs] == [2, 4, 9, 22]
        assert [r.witness for r in recs] == [3, 7, 18, 47]
        assert all(r.agree for r in recs)

    def test_u6n_distance_empty(self):
        assert search_integral([GroupSpec.u6n(n) for n in range(1, 200)], D) == []

    def test_q4n_dl_all(self):
        recs = search_integral([GroupSpec.q4n(n) for n in range(2, 50)], DL)
        assert [r.group.n for r in recs] == list(range(2, 50))
        assert all(r.predicted_integral and r.computed_integral for r in recs)

    def test_q4n_dq_disagreements_are_findings(self):
        recs = search_integral([GroupSpec.q4n(n) for n in range(2, 60)], DQ)
        by_n = {r.group.n: r for r in recs}
        assert by_n[2].predicted_integral and by_n[2].computed_integral
        # the stated condition (integral t) misses parameters where the
        # eigenvalues are integral although t is a non-integer rational
        assert sorted(n for n, r in by_n.items() if not r.agree) == [3, 6, 11, 28, 57]
        for n in (3, 6, 11, 28, 57):
            assert not by_n[n].predicted_integral
            assert by_n[n].computed_integral
            assert "denominator" in by_n[n].note

    def test_q4n_dq_computed_agrees_with_oracle_at_n3(self):
        report = verify_instance(GroupSpec.q4n(3), DQ)
        assert report.matched
        rec = integrality_record(GroupSpec.q4n(3), DQ)
        assert rec.computed_integral

    def test_metacyclic_odd_dq_disagreement(self):
        recs = search_integral(
            [GroupSpec.metacyclic(m, 1) for m in range(3, 20, 2)], DQ
        )
        assert sorted(r.group.m for r in recs) == [3, 11]
        assert all(not r.predicted_integral and r.computed_integral for r in recs)

    def test_qd_distance_only_n4(self):
        recs = search_integral([GroupSpec.qd(n) for n in range(4, 16)], D)
        assert [r.group.n for r in recs] == [4]
        assert recs[0].agree


class TestStreams:
    """The list APIs are the generators' records, and the generators stream."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_grid_list_is_the_stream(self, jobs):
        specs = default_grid()
        assert verify_grid(specs, ALL_KINDS, jobs=jobs) == list(
            iter_verify(specs, ALL_KINDS, jobs=jobs)
        )
        for kind in ALL_KINDS:
            assert search_integral(specs, kind) == list(iter_integral(specs, kind))

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_q4n_list_is_the_stream(self, kind):
        specs = [GroupSpec.q4n(n) for n in range(2, 201)]
        reports = verify_grid(specs, (kind,))
        assert reports == list(iter_verify(iter(specs), (kind,)))
        assert len(reports) == 199
        # the old list loop: keep what is predicted integral or disagrees
        records = [integrality_record(spec, kind) for spec in specs]
        expected = [r for r in records if r.predicted_integral or not r.agree]
        assert search_integral(specs, kind) == expected
        assert list(iter_integral(iter(specs), kind)) == expected

    @pytest.mark.parametrize("stream", [
        lambda specs: iter_verify(specs, (DL,)),
        lambda specs: iter_integral(specs, DL),
    ], ids=["iter_verify", "iter_integral"])
    def test_first_record_before_a_later_spec_is_read(self, stream):
        def specs():
            yield GroupSpec.q4n(2)
            raise RuntimeError("second spec read")

        records = stream(specs())
        assert next(records).group == GroupSpec.q4n(2)
        with pytest.raises(RuntimeError, match="second spec read"):
            next(records)
