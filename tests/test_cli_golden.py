"""Byte-for-byte CLI output against a recorded reference.

`cli_golden.json` holds, for every invocation listed in `invocations()`, the
exit code and the exact standard output the CLI gave when the file was
recorded.  CLI output stays byte-identical across refactors unless a change
says otherwise; these cases hold the code to that.  After a deliberate output
change, re-record with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from ncgspectra.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
FORMATS = ("text", "json", "csv")
KINDS = ("d", "dl", "dq")
GROUPS = (
    ("--group", "q4n", "--n", "3"),
    ("--group", "qd", "--n", "4"),
    ("--group", "u6n", "--n", "2"),
    ("--group", "metacyclic", "--m", "5", "--n", "2"),
    ("--group", "metacyclic", "--m", "6", "--n", "1"),
    ("--group", "metacyclic", "--m", "4", "--n", "2"),
)
SCANS = (
    ("--group", "q4n", "--max-n", "30"),
    ("--group", "qd", "--max-n", "8"),
    ("--group", "u6n", "--max-n", "12"),
    ("--group", "metacyclic", "--m", "3", "--max-n", "12"),
    ("--group", "metacyclic", "--m", "4", "--max-n", "12"),
    ("--group", "metacyclic", "--m", "5", "--max-n", "12"),
    ("--group", "metacyclic", "--m", "6", "--max-n", "12"),
)
VERIFY_GRIDS = (
    ("--group", "q4n", "--n-range", "2..3", "--matrix", "all"),
    ("--group", "qd", "--n-range", "4..4", "--matrix", "dq"),
    ("--group", "u6n", "--n-range", "1..2", "--matrix", "dl"),
    ("--group", "metacyclic", "--m-range", "3..6", "--n-range", "1..1", "--matrix", "dq"),
    ("--group", "q4n", "--n-range", "2..3", "--matrix", "d", "--order-cap", "5"),
)


def invocations() -> list[list[str]]:
    calls = []
    for group in GROUPS:
        for kind in KINDS:
            for fmt in FORMATS:
                calls.append(["spectrum", *group, "--matrix", kind,
                              "--method", "closed", "--format", fmt])
    for fmt in FORMATS:
        calls.append(["spectrum", "--group", "u6n", "--n", "1", "--matrix", "d",
                      "--charpoly", "--format", fmt])
        calls.append(["spectrum", "--group", "q4n", "--n", "3", "--matrix", "dq",
                      "--method", "oracle", "--format", fmt])
        if fmt != "text":  # text output of this case is tested in test_cli.py
            calls.append(["spectrum", "--group", "qd", "--n", "4", "--matrix", "dq",
                          "--method", "oracle", "--format", fmt])
        for grid in VERIFY_GRIDS:
            calls.append(["verify", *grid, "--format", fmt])
        for scan in SCANS:
            for kind in KINDS:
                calls.append(["search-integral", *scan, "--matrix", kind,
                              "--format", fmt])
    calls.append(["spectrum", "--group", "qd", "--n", "5", "--matrix", "d",
                  "--method", "oracle", "--order-cap", "10"])
    calls.append(["verify", "--group", "metacyclic", "--n-range", "1..2"])
    calls.append(["search-integral", "--group", "q4n", "--matrix", "d", "--max-n", "0"])
    calls.append(["search-integral", "--group", "qd", "--matrix", "d", "--max-n", "3"])
    return calls


def invoke(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


CASES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_golden_covers_every_invocation():
    assert [case["argv"] for case in CASES] == invocations()


@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["argv"]))
def test_cli_output_is_byte_identical(case):
    assert invoke(case["argv"]) == case


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([invoke(argv) for argv in invocations()], indent=1) + "\n")
