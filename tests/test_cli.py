import csv
import io
import json
import sys

import pytest

from argparse import Namespace

from ncgspectra import ALL_KINDS, GroupSpec, MatrixKind, search_integral, verify_grid
from ncgspectra import cli
from ncgspectra.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_closed_json(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--group", "q4n", "--n", "2", "--matrix", "dl",
        "--method", "closed", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["family"] == "q4n"
    assert record["params"] == {"n": 2}
    assert record["order"] == 6
    assert record["integral"] is True
    assert record["spectrum"] == [
        {"type": "integer", "value": "0", "mult": 1},
        {"type": "integer", "value": "6", "mult": 2},
        {"type": "integer", "value": "8", "mult": 3},
    ]


def test_spectrum_json_round_trip_is_byte_identical(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--group", "u6n", "--n", "1", "--matrix", "d",
        "--format", "json", "--charpoly",
    )
    assert code == 0
    line = out.strip()
    assert json.dumps(json.loads(line), separators=(",", ":")) == line


def test_shared_json_encoder_writes_what_dumps_writes():
    from ncgspectra.cli import _encode_json

    records = [
        {"family": "qd", "params": {"n": 5}, "matrix": "dq", "witness": None,
         "note": "rational t with denominator 2", "ok": True, "mult": 3},
        {"diff": "x^0: oracle=-12, closed=7", "unmatched_closed": [
            {"factor": "x^2 - 4074*x + 3631200", "mult": 1}], "label": "Q_8 \u2260"},
        {},
    ]
    for record in records:
        assert _encode_json(record) == json.dumps(record, separators=(",", ":"))


def test_spectrum_quadratic_pair_serialized(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--group", "u6n", "--n", "1", "--matrix", "d",
        "--format", "json",
    )
    record = json.loads(out)
    assert {"type": "quadratic", "sum": "4", "product": "-2", "mult": 1} in record[
        "spectrum"
    ]
    assert record["integral"] is False


def test_spectrum_formats_carry_identical_content(capsys):
    args = ["spectrum", "--group", "qd", "--n", "4", "--matrix", "dl"]
    _, text_out, _ = run(capsys, *args, "--format", "text")
    _, json_out, _ = run(capsys, *args, "--format", "json")
    _, csv_out, _ = run(capsys, *args, "--format", "csv")
    record = json.loads(json_out)
    json_entries = {
        (e["value"], e["mult"]) for e in record["spectrum"] if e["type"] == "integer"
    }
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    csv_entries = {(r["value"], int(r["mult"])) for r in rows if r["type"] == "integer"}
    assert json_entries == csv_entries == {("0", 1), ("14", 4), ("16", 4), ("20", 5)}
    for value, mult in json_entries:
        assert f"  {value}  multiplicity {mult}" in text_out


def test_spectrum_oracle_matches_closed_for_m8(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--group", "metacyclic", "--m", "4", "--n", "1",
        "--matrix", "dq", "--method", "oracle", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["spectrum"] == [
        {"type": "integer", "value": "4", "mult": 3},
        {"type": "integer", "value": "6", "mult": 2},
        {"type": "integer", "value": "12", "mult": 1},
    ]


def test_spectrum_oracle_unfactored_emits_charpoly(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--group", "qd", "--n", "4", "--matrix", "dq",
        "--method", "oracle", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert "spectrum" not in record
    coeffs = record["charpoly"]
    assert len(coeffs) == 15 and coeffs[-1] == "1"
    assert all(isinstance(c, str) for c in coeffs)


def test_spectrum_charpoly_flag(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--group", "q4n", "--n", "2", "--matrix", "d",
        "--format", "json", "--charpoly",
    )
    record = json.loads(out)
    assert record["charpoly"] == ["0", "0", "-48", "-64", "-24", "0", "1"]


@pytest.mark.parametrize("method", ["closed", "oracle"])
def test_spectrum_charpoly_csv_keeps_entries_and_charpoly(capsys, method):
    code, out, _ = run(
        capsys, "spectrum", "--group", "q4n", "--n", "2", "--matrix", "d",
        "--method", method, "--format", "csv", "--charpoly",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["type"], r["value"], r["mult"]) for r in rows[:-1]] == [
        ("integer", "-2", "3"), ("integer", "0", "2"), ("integer", "6", "1"),
    ]
    assert rows[-1]["type"] == "charpoly"
    assert rows[-1]["value"] == "0 0 -48 -64 -24 0 1"


def test_verify_all_matched_exit_zero(capsys):
    code, out, _ = run(
        capsys, "verify", "--group", "q4n", "--n-range", "2..4", "--matrix", "all",
    )
    assert code == 0
    assert "9/9 matched" in out


def test_verify_mismatch_exit_one_with_residual(capsys):
    code, out, _ = run(
        capsys, "verify", "--group", "qd", "--n-range", "4..4", "--matrix", "dq",
    )
    assert code == 1
    assert "MISMATCH" in out
    assert "residual oracle factor: x^2 - 50*x + 568" in out
    assert "unmatched closed factor: (x^2 - 42*x + 384)^1" in out


def test_verify_error_report_without_graph_order(capsys):
    # QD_2^40 is refused from its parameters, so no graph order is known
    code, out, _ = run(capsys, "verify", "--group", "qd", "--n-range", "40..40")
    assert code == 1
    assert out.splitlines()[0] == "[ERROR] QD_1099511627776 matrix=d order=?"
    _, out, _ = run(
        capsys, "verify", "--group", "qd", "--n-range", "40..40", "--matrix", "d",
        "--format", "json",
    )
    assert json.loads(out)["order"] is None
    _, out, _ = run(
        capsys, "verify", "--group", "qd", "--n-range", "40..40", "--matrix", "d",
        "--format", "csv",
    )
    assert next(csv.DictReader(io.StringIO(out)))["order"] == ""


def test_verify_bad_range_exit_two(capsys):
    code, _, err = run(
        capsys, "verify", "--group", "q4n", "--n-range", "0..1", "--matrix", "d",
    )
    assert code == 2
    assert "n >= 2" in err


def test_verify_json_records(capsys):
    code, out, _ = run(
        capsys, "verify", "--group", "u6n", "--n-range", "1..3", "--matrix", "d",
        "--format", "json",
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["params"]["n"] for r in records] == [1, 2, 3]
    assert all(r["matched"] for r in records)


def test_verify_metacyclic_requires_m_range(capsys):
    code, _, err = run(
        capsys, "verify", "--group", "metacyclic", "--n-range", "1..2",
    )
    assert code == 2
    assert "--m-range" in err


def test_verify_metacyclic_grid(capsys):
    code, out, _ = run(
        capsys, "verify", "--group", "metacyclic", "--m-range", "3..4",
        "--n-range", "1..2", "--matrix", "d", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["m"], r["n"]) for r in rows] == [
        ("3", "1"), ("3", "2"), ("4", "1"), ("4", "2")
    ]


def test_search_integral_csv(capsys):
    code, out, _ = run(
        capsys, "search-integral", "--group", "q4n", "--matrix", "d",
        "--max-n", "30", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == [
        "family,m,n,matrix,witness",
        "q4n,,2,d,3",
        "q4n,,4,d,7",
        "q4n,,9,d,18",
        "q4n,,22,d,47",
    ]


def test_search_integral_empty(capsys):
    code, out, _ = run(
        capsys, "search-integral", "--group", "u6n", "--matrix", "d",
        "--max-n", "100", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == ["family,m,n,matrix,witness"]


def test_search_integral_disagreement_note_in_json(capsys):
    code, out, _ = run(
        capsys, "search-integral", "--group", "q4n", "--matrix", "dq",
        "--max-n", "6", "--format", "json",
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    byn = {r["params"]["n"]: r for r in records}
    assert byn[2]["predicted"] and byn[2]["computed"]
    assert not byn[3]["predicted"] and byn[3]["computed"]
    assert "denominator" in byn[3]["note"]


def test_search_integral_u6n_dq_all_parameters(capsys):
    code, out, _ = run(
        capsys, "search-integral", "--group", "u6n", "--matrix", "dq",
        "--max-n", "5", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["n"]) for r in rows] == [1, 2, 3, 4, 5]


def test_search_integral_m8n_dq_all_parameters(capsys):
    code, out, _ = run(
        capsys, "search-integral", "--group", "metacyclic", "--m", "4",
        "--matrix", "dq", "--max-n", "6", "--format", "json",
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["params"]["n"] for r in records] == [1, 2, 3, 4, 5, 6]
    assert all(r["computed"] for r in records)


def test_search_integral_requires_m_for_metacyclic(capsys):
    code, _, err = run(
        capsys, "search-integral", "--group", "metacyclic", "--matrix", "dq",
        "--max-n", "5",
    )
    assert code == 2
    assert "--m" in err


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "spec.json"
    code, out, _ = run(
        capsys, "spectrum", "--group", "q4n", "--n", "3", "--matrix", "dq",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    record = json.loads(target.read_text())
    assert record["order"] == 10


@pytest.mark.parametrize("where", ["missing-directory", "directory", "under-a-file"])
@pytest.mark.parametrize("argv", [
    ("spectrum", "--group", "q4n", "--n", "3", "--matrix", "d"),
    ("verify", "--group", "q4n", "--n-range", "2..3"),
    ("search-integral", "--group", "q4n", "--matrix", "d", "--max-n", "10"),
], ids=["spectrum", "verify", "search-integral"])
def test_unwritable_out_refused_before_the_first_record(
    capsys, monkeypatch, tmp_path, argv, where
):
    def unreachable(*args, **kwargs):
        raise AssertionError("record computed for a refused --out")

    for name in ("spectrum_for", "iter_verify", "iter_integral"):
        monkeypatch.setattr(cli, name, unreachable)
    blocker = tmp_path / "file"
    blocker.write_bytes(b"kept\n")
    target = {
        "missing-directory": tmp_path / "missing" / "x.out",
        "directory": tmp_path,
        "under-a-file": blocker / "x.out",
    }[where]
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert (code, out, err) == (2, "", f"error: cannot write --out {target}\n")
    assert list(tmp_path.iterdir()) == [blocker]
    assert blocker.read_bytes() == b"kept\n"


def test_unknown_group_exit_two(capsys):
    code, _, _ = run(capsys, "spectrum", "--group", "dihedral", "--n", "3",
                     "--matrix", "d")
    assert code == 2


def test_order_cap_respected_for_oracle(capsys):
    code, _, err = run(
        capsys, "spectrum", "--group", "qd", "--n", "7", "--matrix", "d",
        "--method", "oracle", "--order-cap", "50",
    )
    assert code == 2
    assert "exceeds" in err


def test_search_integral_rejects_invalid_m(capsys):
    code, out, err = run(
        capsys, "search-integral", "--group", "metacyclic", "--m", "2",
        "--matrix", "d", "--max-n", "5",
    )
    assert code == 2
    assert out == ""
    assert "m >= 3" in err


def test_search_integral_rejects_m_even_for_an_empty_scan(capsys):
    code, out, _ = run(
        capsys, "search-integral", "--group", "qd", "--m", "3", "--matrix", "d",
        "--max-n", "3",
    )
    assert code == 2
    assert out == ""


def test_spectrum_oracle_unfactored_text_lists_charpoly(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--group", "qd", "--n", "4", "--matrix", "dq",
        "--method", "oracle", "--format", "text",
    )
    assert code == 0
    head, integral, charpoly = out.splitlines()
    assert head == "family=qd n=4 matrix=dq order=14"
    assert integral == "integral: false"
    coeffs = charpoly.removeprefix("charpoly (ascending): ").split()
    assert len(coeffs) == 15 and coeffs[-1] == "1"


def test_spectrum_oracle_refuses_over_cap_before_building_a_matrix(capsys, monkeypatch):
    import ncgspectra.graphs as graphs

    def fail(*args):
        raise AssertionError("matrix work done past the order cap")

    monkeypatch.setattr(graphs, "_certified_parts", fail)
    monkeypatch.setattr(graphs, "_part_major_layout", fail)
    monkeypatch.setattr(graphs, "distance_matrix", fail)
    monkeypatch.setattr(graphs, "mask_form", fail)
    code, _, err = run(
        capsys, "spectrum", "--group", "qd", "--n", "7", "--matrix", "d",
        "--method", "oracle", "--order-cap", "50",
    )
    assert code == 2
    assert "exceeds" in err


def test_spectrum_oracle_char_poly_limit_is_an_error_not_a_traceback(capsys, monkeypatch):
    import ncgspectra.verify as verify

    def refusing(matrix):
        raise ArithmeticError("coefficient bound beyond the Mersenne prime table")

    monkeypatch.setattr(verify, "char_poly_factors", refusing)
    code, out, err = run(
        capsys, "spectrum", "--group", "q4n", "--n", "2", "--matrix", "d",
        "--method", "oracle",
    )
    assert code == 2
    assert out == ""
    assert err == "error: coefficient bound beyond the Mersenne prime table\n"


def test_closed_spectrum_expands_the_charpoly_only_when_printed(capsys, monkeypatch):
    from ncgspectra import cli

    calls = []
    expand = cli.spectrum_to_polynomial
    monkeypatch.setattr(
        cli, "spectrum_to_polynomial", lambda s: calls.append(s) or expand(s)
    )
    args = ["spectrum", "--group", "q4n", "--n", "3", "--matrix", "d"]
    code, out, _ = run(capsys, *args)
    assert code == 0 and "charpoly" not in out
    assert calls == []
    code, out, _ = run(capsys, *args, "--charpoly")
    assert code == 0 and "charpoly (ascending)" in out
    assert len(calls) == 1


def test_closed_charpoly_refused_over_order_cap(capsys, monkeypatch):
    from ncgspectra import cli

    def fail(*_):
        raise AssertionError("expanded a polynomial past the cap")

    monkeypatch.setattr(cli, "spectrum_to_polynomial", fail)
    code, out, err = run(
        capsys, "spectrum", "--group", "qd", "--n", "40", "--matrix", "d",
        "--charpoly",
    )
    assert code == 2 and out == ""
    assert err == (
        "error: QD_1099511627776 graph order 1099511627774 exceeds cap 150\n"
    )


def test_closed_charpoly_runs_under_a_raised_order_cap(capsys):
    args = ["spectrum", "--group", "q4n", "--n", "50", "--matrix", "d", "--charpoly",
            "--format", "json"]
    code, _, err = run(capsys, *args)
    assert code == 2 and err == "error: Q_200 graph order 198 exceeds cap 150\n"
    code, out, _ = run(capsys, *args, "--order-cap", "198")
    assert code == 0
    record = json.loads(out)
    assert record["order"] == 198 and len(record["charpoly"]) == 199


@pytest.fixture
def low_digit_limit():
    """CPython's int-to-str digit limit at its minimum, 640, for this test."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("argv", [
    ("spectrum", "--group", "qd", "--n", "1100", "--matrix", "d"),
    ("spectrum", "--group", "qd", "--n", "1100", "--matrix", "dq", "--format", "csv"),
    ("search-integral", "--group", "qd", "--matrix", "d", "--max-n", "1100"),
], ids=["spectrum-d", "spectrum-dq-csv", "search-integral"])
def test_int_to_str_limit_is_an_error_not_a_traceback(capsys, low_digit_limit, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: Exceeds the limit (640 digits)")
    assert err.count("\n") == 1


def test_spectrum_refuses_m_for_a_family_without_it(capsys):
    code, out, err = run(
        capsys, "spectrum", "--group", "q4n", "--n", "3", "--m", "2", "--matrix", "d",
    )
    assert (code, out) == (2, "")
    assert err == "error: q4n takes no --m\n"


@pytest.mark.parametrize("argv", [
    ("verify", "--group", "q4n", "--n-range", "2..30000000", "--matrix", "d"),
    ("search-integral", "--group", "q4n", "--matrix", "dl", "--max-n", "1000000"),
    ("verify", "--group", "metacyclic", "--m-range", f"3..{10**19}", "--n-range", "1..1"),
], ids=["verify", "search-integral", "verify-m-past-ssize_t"])
def test_wide_scan_refused_before_any_group_is_built(capsys, monkeypatch, argv):
    import ncgspectra.cli as cli

    def unreachable(*args):
        raise AssertionError("group built for a refused scan")

    monkeypatch.setattr(cli, "GroupSpec", unreachable)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "exceed the limit 200000" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, instances", [
    (("verify", "--group", "q4n", "--n-range", "2..3"), 6),
    (("verify", "--group", "q4n", "--n-range", "2..4"), 9),
    (("verify", "--group", "q4n", "--n-range", "2..7", "--matrix", "d"), 6),
    (("verify", "--group", "metacyclic", "--m-range", "3..4", "--n-range", "1..1"), 6),
    (("verify", "--group", "metacyclic", "--m-range", "3..5", "--n-range", "1..1"), 9),
    (("search-integral", "--group", "q4n", "--matrix", "dl", "--max-n", "7"), 6),
    (("search-integral", "--group", "q4n", "--matrix", "dl", "--max-n", "8"), 7),
])
def test_instance_bound_is_inclusive(capsys, monkeypatch, argv, instances):
    import ncgspectra.cli as cli

    monkeypatch.setattr(cli, "MAX_INSTANCES", 6)
    code, out, err = run(capsys, *argv)
    if instances <= 6:
        assert (code, err) == (0, "")
    else:
        assert (code, out) == (2, "")
        assert err == f"error: {instances} groups x kinds exceed the limit 6\n"


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_text_rendering_failure_writes_nothing(capsys, tmp_path, low_digit_limit, to_file):
    # QD_2^20000's label passes CPython's int-to-str limit only in text
    target = tmp_path / "verify.txt"
    argv = ["verify", "--group", "qd", "--n-range", "20000..20000", "--matrix", "d"]
    code, out, err = run(capsys, *argv, *(["--out", str(target)] if to_file else []))
    assert (code, out) == (2, "")
    assert err.startswith("error: Exceeds the limit (640 digits)")
    assert not target.exists()
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 1
    assert json.loads(out)["error"].startswith("ValueError: Exceeds the limit")


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("argv, expected", [
    (("--group", "q4n", "--n-range", "2..4"), 0),
    # M_12 (m = 6) D^Q is refuted; M_14 (m = 7) D^Q matches after it
    (("--group", "metacyclic", "--m-range", "6..7", "--n-range", "1..1", "--matrix", "dq"), 1),
], ids=["all-match", "mismatch-then-match"])
def test_verify_exit_code_in_every_format(capsys, fmt, argv, expected):
    code, out, err = run(capsys, "verify", *argv, "--format", fmt)
    assert (code, err) == (expected, "")
    assert out.count("\n") >= 2


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_failed_search_writes_nothing(capsys, tmp_path, low_digit_limit, fmt, to_file):
    # QD_16 is found first; a later square core passes the int-to-str limit
    target = tmp_path / "search.out"
    target.write_bytes(b"kept\n")
    argv = ["search-integral", "--group", "qd", "--matrix", "d", "--max-n", "1100",
            "--format", fmt]
    code, out, err = run(capsys, *argv, *(["--out", str(target)] if to_file else []))
    assert (code, out) == (2, "")
    assert err.startswith("error: Exceeds the limit (640 digits)")
    assert target.read_bytes() == b"kept\n"


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_failed_json_verify_writes_nothing(capsys, tmp_path, monkeypatch, to_file):
    encode = cli._encode_json
    encoded = []

    def fail_on_the_second(record):
        if encoded:
            raise ValueError("cannot render")
        encoded.append(record)
        return encode(record)

    monkeypatch.setattr(cli, "_encode_json", fail_on_the_second)
    target = tmp_path / "verify.json"
    target.write_bytes(b"kept\n")
    argv = ["verify", "--group", "q4n", "--n-range", "2..4", "--format", "json"]
    code, out, err = run(capsys, *argv, *(["--out", str(target)] if to_file else []))
    assert (code, out, err) == (2, "", "error: cannot render\n")
    assert len(encoded) == 1
    assert target.read_bytes() == b"kept\n"


def _verify_records():
    specs = [GroupSpec.q4n(2), GroupSpec.qd(4), GroupSpec.q4n(6)]
    reports = verify_grid(specs, ALL_KINDS, order_cap=20)
    # ok, the refuted QD_16 D^Q and Q_24's refusal by the order cap
    assert {(r.matched, r.error is None) for r in reports} == {
        (True, True), (False, True), (False, False)
    }
    return [cli._verify_record(r) for r in reports], cli._verify_text, cli._verify_rows


def _search_records():
    found = search_integral(
        (GroupSpec.q4n(n) for n in range(2, 21)), MatrixKind.DISTANCE_LAPLACIAN
    )
    assert len(found) == 19
    records = [cli._search_record(r) for r in found]
    return records, cli._search_text, lambda d: [cli._csv_key(d) + [d["witness"] or ""]]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("records_of", [_verify_records, _search_records],
                         ids=["verify", "search"])
def test_write_of_a_generator_equals_write_of_the_list(tmp_path, fmt, records_of):
    records, text, rows = records_of()
    written = []
    for k, feed in enumerate([records, (r for r in records)]):
        target = tmp_path / f"{k}.{fmt}"
        cli._write(Namespace(format=fmt, out=str(target)), feed, text, ["head"], rows)
        written.append(target.read_bytes())
    assert written[0] == written[1]
    assert written[0].count(b"\n") >= len(records)
