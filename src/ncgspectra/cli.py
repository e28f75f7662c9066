"""Command-line front end: spectra, grid verification, integrality searches.

All big integers are serialized as decimal strings in JSON so that 64-bit
consumers never lose precision; characteristic polynomial coefficients exceed
2^63 almost immediately.  Exit codes: 0 success (verify: all matched), 1
verification mismatch found, 2 usage error.  An exception that escapes a
command maps to an exit code with one line on stderr and nothing on stdout:
NotCompleteMultipartite prints "structural violation: ..." and exits 1; the
rest of `verify.INSTANCE_FAILURES`, the rule a grid run uses for one
instance, prints "error: ..." and exits 2.  Any other exception propagates.
A failed run writes nothing: output is copied out only after the last record.
An --out that cannot be opened for writing is refused before the first
record: "error: ..." and exit 2, with --out left as it was.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import sys
import tempfile
from contextlib import nullcontext
from typing import Callable, Iterable, Iterator

from .closedform import (
    QuadraticEig,
    SpectrumSpec,
    spectrum_for,
    spectrum_to_polynomial,
)
from .families import (
    ALL_KINDS,
    FAMILIES,
    FAMILY_RECORDS,
    GroupSpec,
    InvalidParameters,
    MatrixKind,
)
from .graphs import NotCompleteMultipartite, check_order_cap
from .verify import (
    DEFAULT_ORDER_CAP,
    INSTANCE_FAILURES,
    IntegralityRecord,
    VerificationReport,
    iter_integral,
    iter_verify,
    verify_instance,
)

USAGE_ERROR = 2

# A verify or search-integral scan of more instances (groups x matrix kinds) is
# refused before any group is built.  Run serially, both stream their records,
# so this bounds the run time: at the bound either peaks below 20 MB.
MAX_INSTANCES = 200_000

# One compact encoder for every JSON record; `json.dumps` with separators
# builds a new JSONEncoder per call.
_encode_json = json.JSONEncoder(separators=(",", ":")).encode


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a range like 2..12, got {text!r}"
        ) from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncgspectra",
        description=(
            "Exact distance, distance Laplacian and distance signless "
            "Laplacian spectra of non-commuting graphs of finite groups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    kinds = [k.value for k in ALL_KINDS]

    sp = sub.add_parser("spectrum", help="print one spectrum")
    sp.add_argument("--group", required=True, choices=FAMILIES)
    sp.add_argument("--n", required=True, type=int)
    sp.add_argument("--m", type=int, help="required for metacyclic")
    sp.add_argument("--matrix", required=True, choices=kinds)
    sp.add_argument("--method", default="closed", choices=["closed", "oracle"])
    sp.add_argument("--format", default="text", choices=["text", "json", "csv"])
    sp.add_argument("--charpoly", action="store_true",
                    help="include characteristic polynomial coefficients")
    sp.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP)
    sp.add_argument("--out", help="write to a file instead of standard output")

    vp = sub.add_parser("verify", help="closed forms vs oracle over a grid")
    vp.add_argument("--group", required=True, choices=FAMILIES)
    vp.add_argument("--n-range", required=True, type=_parse_range)
    vp.add_argument("--m-range", type=_parse_range, help="required for metacyclic")
    vp.add_argument("--matrix", default="all", choices=kinds + ["all"])
    vp.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP)
    vp.add_argument("--jobs", type=int, default=1)
    vp.add_argument("--format", default="text", choices=["text", "json", "csv"])
    vp.add_argument("--out", help="write to a file instead of standard output")

    ip = sub.add_parser("search-integral", help="scan parameters for integral spectra")
    ip.add_argument("--group", required=True, choices=FAMILIES)
    ip.add_argument("--matrix", required=True, choices=kinds)
    ip.add_argument("--max-n", required=True, type=int)
    ip.add_argument("--m", type=int, help="required for metacyclic")
    ip.add_argument("--format", default="csv", choices=["text", "json", "csv"])
    ip.add_argument("--out", help="write to a file instead of standard output")
    return parser


def _takes_m(family: str, flag: str, given: object) -> bool:
    """Whether the family takes m; refuses `flag` unless given exactly then."""
    takes_m = FAMILY_RECORDS[family].min_m is not None
    if takes_m != (given is not None):
        need = "requires" if takes_m else "takes no"
        raise InvalidParameters(f"{family} {need} {flag}")
    return takes_m


def _record_head(spec: GroupSpec, kind: MatrixKind, **rest: object) -> dict:
    """A record's leading keys, which fix the JSON bytes and `_csv_key`."""
    return dict(family=spec.family, params=spec.params(), matrix=kind.value, **rest)


def _spectrum_entries(spectrum: SpectrumSpec) -> list[dict]:
    out = []
    for desc, mult in spectrum.entries:
        if isinstance(desc, QuadraticEig):
            out.append(
                {
                    "type": "quadratic",
                    "sum": str(desc.s),
                    "product": str(desc.p),
                    "mult": mult,
                }
            )
        else:
            out.append({"type": "integer", "value": str(desc), "mult": mult})
    return out


def _write(
    args: argparse.Namespace,
    records: Iterable[dict],
    text: Callable[[Iterable[dict]], Iterable[str]],
    csv_header: list[str],
    csv_rows: Callable[[dict], list[list]],
) -> None:
    """Write one command's records, read once, in --format to --out or stdout.

    Records go one by one to an anonymous temporary file, copied out after
    the last: a failed run writes nothing and leaves --out as it was.
    """
    with tempfile.TemporaryFile("w+", newline="") as tmp:
        if args.format == "json":
            tmp.writelines(_encode_json(r) + "\n" for r in records)
        elif args.format == "csv":
            writer = csv.writer(tmp, lineterminator="\n")
            writer.writerow(csv_header)
            writer.writerows(row for r in records for row in csv_rows(r))
        else:
            tmp.writelines(line + "\n" for line in text(records))
        tmp.seek(0)
        with open(args.out, "w") if args.out else nullcontext(sys.stdout) as out:
            shutil.copyfileobj(tmp, out)


def _check_out(path: str | None) -> None:
    """Refuse an --out path that `open(path, "w")` would fail on."""
    if path is None:
        return
    parent = os.path.dirname(path) or "."
    target = path if os.path.exists(path) else parent
    if os.path.isdir(path) or not os.path.isdir(parent) or not os.access(target, os.W_OK):
        raise InvalidParameters(f"cannot write --out {path}")


def _check_instances(count: int) -> None:
    if count > MAX_INSTANCES:
        raise InvalidParameters(f"{count} groups x kinds exceed the limit {MAX_INSTANCES}")


def _csv_key(record: dict) -> list:
    """The leading CSV cells every command shares: family, m, n, matrix."""
    params = record["params"]
    return [record["family"], params.get("m", ""), params["n"], record["matrix"]]


def _spectrum_text(records: Iterable[dict]) -> Iterator[str]:
    for record in records:
        yield " ".join(
            [f"family={record['family']}"]
            + [f"{k}={v}" for k, v in record["params"].items()]
            + [f"matrix={record['matrix']}", f"order={record['order']}"]
        )
        for e in record.get("spectrum", ()):
            if e["type"] == "integer":
                yield f"  {e['value']}  multiplicity {e['mult']}"
            else:
                quad = QuadraticEig(int(e["sum"]), int(e["product"]))
                yield f"  roots of {quad}  multiplicity {e['mult']}"
        yield f"integral: {str(record['integral']).lower()}"
        if "charpoly" in record:
            yield "charpoly (ascending): " + " ".join(record["charpoly"])


def _spectrum_rows(record: dict) -> list[list]:
    """One row per spectrum entry, then one row of char poly coefficients."""
    cells = [
        [e["type"], e.get("value", ""), e.get("sum", ""), e.get("product", ""), e["mult"]]
        for e in record.get("spectrum", ())
    ]
    if "charpoly" in record:
        cells.append(["charpoly", " ".join(record["charpoly"]), "", "", ""])
    head = _csv_key(record) + [record["order"]]
    return [head + row + [str(record["integral"]).lower()] for row in cells]


def cmd_spectrum(args: argparse.Namespace) -> int:
    _takes_m(args.group, "--m", args.m)
    spec = GroupSpec(args.group, args.n, args.m)
    kind = MatrixKind(args.matrix)
    closed = spectrum_for(spec, kind)
    record = _record_head(spec, kind, order=closed.order, method=args.method)
    poly = None
    if args.method == "closed":
        record["spectrum"] = _spectrum_entries(closed)
        if args.charpoly:
            check_order_cap(spec, closed.order, args.order_cap)
            poly = spectrum_to_polynomial(closed)
    else:
        report = verify_instance(spec, kind, args.order_cap)
        if report.matched:
            record["spectrum"] = _spectrum_entries(closed)
        if args.charpoly or not report.matched:
            poly = report.oracle_poly
    record["integral"] = closed.is_integral
    if poly is not None:
        record["charpoly"] = [str(c) for c in poly.coeffs]
    _write(
        args, [record], _spectrum_text,
        ["family", "m", "n", "matrix", "order", "type", "value", "sum", "product",
         "mult", "integral"],
        _spectrum_rows,
    )
    return 0


def _verify_record(report: VerificationReport) -> dict:
    record = _record_head(
        report.group, report.kind, order=report.order, matched=report.matched
    )
    if report.error:
        record["error"] = report.error
    elif not report.matched:
        record["diff"] = report.diff_summary
        record["residual"] = str(report.residual)
        record["unmatched_closed"] = [
            {"factor": str(d), "mult": m} for d, m in report.unmatched_closed
        ]
    return record


def _verify_text(records: Iterable[dict]) -> Iterator[str]:
    ok = total = 0
    for total, rec in enumerate(records, 1):
        ok += rec["matched"]
        params = rec["params"]
        label = FAMILY_RECORDS[rec["family"]].label(params["n"], params.get("m"))
        tag = "ERROR" if rec.get("error") else "ok" if rec["matched"] else "MISMATCH"
        order = "?" if rec["order"] is None else rec["order"]
        yield f"[{tag}] {label} matrix={rec['matrix']} order={order}"
        if rec.get("error"):
            yield f"    {rec['error']}"
        elif not rec["matched"]:
            yield f"    {rec['diff']}"
            yield f"    residual oracle factor: {rec['residual']}"
            for item in rec["unmatched_closed"]:
                yield f"    unmatched closed factor: ({item['factor']})^{item['mult']}"
    yield f"{ok}/{total} matched"


def _verify_rows(record: dict) -> list[list]:
    return [
        _csv_key(record) + [record["order"], str(record["matched"]).lower(),
                            record.get("error") or record.get("diff", "")]
    ]


def cmd_verify(args: argparse.Namespace) -> int:
    lo, hi = args.n_range
    takes_m = _takes_m(args.group, "--m-range", args.m_range)
    kinds = ALL_KINDS if args.matrix == "all" else (MatrixKind(args.matrix),)
    m_count = args.m_range[1] - args.m_range[0] + 1 if takes_m else 1
    _check_instances(m_count * (hi - lo + 1) * len(kinds))
    ms = range(args.m_range[0], args.m_range[1] + 1) if takes_m else (None,)
    specs = (GroupSpec(args.group, n, m) for m in ms for n in range(lo, hi + 1))
    all_matched = True

    def records() -> Iterator[dict]:
        nonlocal all_matched
        for report in iter_verify(specs, kinds, order_cap=args.order_cap, jobs=args.jobs):
            all_matched &= report.matched
            yield _verify_record(report)

    _write(
        args, records(), _verify_text,
        ["family", "m", "n", "matrix", "order", "matched", "detail"], _verify_rows,
    )
    return 0 if all_matched else 1


def _search_record(rec: IntegralityRecord) -> dict:
    return _record_head(
        rec.group,
        rec.kind,
        predicted=rec.predicted_integral,
        computed=rec.computed_integral,
        witness=None if rec.witness is None else str(rec.witness),
        note=rec.note,
    )


def _search_text(records: Iterable[dict]) -> Iterator[str]:
    d = None
    for d in records:
        mark = "integral" if d["computed"] else "NOT integral"
        extra = "" if d["predicted"] == d["computed"] else (
            f"  [condition disagrees: predicted="
            f"{str(d['predicted']).lower()}, {d['note']}]"
        )
        params = " ".join(f"{k}={v}" for k, v in d["params"].items())
        witness = f" witness={d['witness']}" if d["witness"] else ""
        yield f"{d['family']} {params} matrix={d['matrix']}: {mark}{witness}{extra}"
    if d is None:
        yield "no integral parameters found"


def cmd_search_integral(args: argparse.Namespace) -> int:
    if args.max_n < 1:
        raise InvalidParameters(f"--max-n must be at least 1, got {args.max_n}")
    _takes_m(args.group, "--m", args.m)
    lowest = FAMILY_RECORDS[args.group].min_n
    _check_instances(args.max_n - lowest + 1)
    specs = (GroupSpec(args.group, n, args.m) for n in range(lowest, args.max_n + 1))
    records = iter_integral(specs, MatrixKind(args.matrix))
    _write(
        args, map(_search_record, records), _search_text,
        ["family", "m", "n", "matrix", "witness"],
        lambda d: [_csv_key(d) + [d["witness"] or ""]],
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        _check_out(args.out)
        if args.command == "spectrum":
            return cmd_spectrum(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_search_integral(args)
    except NotCompleteMultipartite as exc:
        print(f"structural violation: {exc}", file=sys.stderr)
        return 1
    except INSTANCE_FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entrypoint() -> None:
    raise SystemExit(main())
