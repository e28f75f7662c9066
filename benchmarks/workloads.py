"""Workloads of the ncgspectra benchmark: inputs, timed calls, output checks and traced replays.

Each workload is a closed loop: one client calls the library synchronously and
sends the next item only after the previous one returned.  A workload exposes

* a constructor ``(seed, workdir, smoke)``: ``workdir`` is a scratch
  directory for output files and ``smoke`` selects a reduced instance set;
* ``items``: the generated inputs, in the order set by the seed;
* ``units(item)``: how many counted items one call handles;
* ``run(item)``: the untraced call;
* ``measure(item)``: ``run(item)`` and its time at reference speed;
* ``check(item, output, expected)``: problems with that output, empty when correct;
* ``output_digest(output)``: the digest ``check`` compares with ``expected``;
* ``trace(item, tracer)``: the same work again, untraced and then replayed
  stage by stage through public functions inside tracer spans.

Outputs are checked against digests recorded at the seed commit
(``expected.json``), keyed by instance so submission order does not matter.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

from ncgspectra import (
    ALL_KINDS,
    DEFAULT_ORDER_CAP,
    GroupSpec,
    MatrixKind,
    OrderCapExceeded,
    center,
    char_poly,
    claimed_partition_sizes,
    default_grid,
    distance_matrix,
    eigenbasis_q4n,
    enumerate_elements,
    is_ca_group,
    matrix_of_kind,
    multipartite_distance_charpoly,
    non_commuting_graph,
    part_major,
    predicted_integral,
    search_integral,
    spectrum_for,
    spectrum_to_polynomial,
    verify_grid,
    verify_instance,
)
from ncgspectra.cli import main as cli_main

EXPECTED_PATH = Path(__file__).with_name("expected.json")
DQ = MatrixKind.DISTANCE_SIGNLESS_LAPLACIAN

# Instances of the default grid up to this graph order make one oracle-grid
# pass about 8.5 s on a 2-core machine, so a 40 s run repeats it four times.
# Larger orders cost too much for a 40 s run until a faster char poly
# engine lands (QD_128 alone takes about 80 s for its three kinds).
ORACLE_MAX_GRAPH_ORDER = 42


def digest(value) -> str:
    """Short sha256 of a JSON-serializable value (big integers as strings)."""
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def spec_key(spec: GroupSpec) -> str:
    params = ",".join(f"{k}={v}" for k, v in sorted(spec.params().items()))
    return f"{spec.family}:{params}"


def load_expected() -> dict[str, str]:
    return json.loads(EXPECTED_PATH.read_text())


class Tracer:
    """Per-layer span totals, counts and maxima, kept in memory.

    A span is the wall time of one call into a public ncgspectra function,
    recorded by the benchmark around the call; totals are summed per name.
    """

    def __init__(self) -> None:
        self.totals: Counter = Counter()
        self.maxima: dict[str, int] = {}

    def span(self, name: str) -> "_Span":
        return _Span(self.totals, name)

    def add(self, name: str, value: float = 1) -> None:
        self.totals[name] += value

    def maximum(self, name: str, value: int) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)


class _Span:
    __slots__ = ("totals", "name", "start")

    def __init__(self, totals: Counter, name: str) -> None:
        self.totals = totals
        self.name = name

    def __enter__(self) -> None:
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self.totals[self.name] += time.perf_counter() - self.start


class _NoTrace:
    """Stand-in tracer for untraced runs: spans and counts cost nothing."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def add(self, name: str, value: float = 1) -> None:
        pass

    def maximum(self, name: str, value: int) -> None:
        pass


NO_TRACE = _NoTrace()


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


# Nominal time of one reference_work() call.  On a shared host the CPU speed
# one process sees drifts by up to 1.7x over minutes.  Untraced item times
# are therefore rescaled to the speed at which reference_work() takes exactly
# REFERENCE_S, measured next to every timed call; a Gauge does the rescaling.
REFERENCE_S = 0.001


def reference_work() -> int:
    """Fixed pure-Python work, independent of ncgspectra, that gauges CPU speed."""
    acc = 0
    table = {}
    for i in range(4000):
        acc = (acc * 1103515245 + 12345 + i) % 2147483648
        table[i & 127] = (acc >> 8, i)
    return acc + len(table)


def reference_time() -> float:
    """Fastest of three reference_work() calls, in seconds."""
    return min(timed(reference_work)[1] for _ in range(3))


class Gauge(_NoTrace):
    """Sums span wall times rescaled to reference speed.

    A span's time is multiplied by REFERENCE_S over the mean of the reference
    times measured just before and just after it.  Consecutive spans share
    the reference measured between them.  It stands in for a Tracer, so a
    stage sequence written once can be gauged step by step.
    """

    def __init__(self) -> None:
        self.total = 0.0
        self._reference = reference_time()

    def span(self, name: str) -> "Gauge":
        return self

    def __enter__(self) -> None:
        self._start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._start
        reference = reference_time()
        self.total += elapsed * 2 * REFERENCE_S / (self._reference + reference)
        self._reference = reference


def gauged(fn, *args):
    """fn(*args) and its time at reference speed."""
    gauge = Gauge()
    with gauge:
        out = fn(*args)
    return out, gauge.total


# ---------------------------------------------------------------- oracle-grid

def expected_mismatch(spec: GroupSpec, kind: MatrixKind) -> bool:
    """The transcribed D^Q closed forms that the oracle refutes.

    QD_2^n, and M_2mn for even m other than 4; every other instance matches.
    """
    if kind != DQ:
        return False
    return spec.family == "qd" or (
        spec.family == "metacyclic" and spec.m % 2 == 0 and spec.m != 4
    )


def _report_digest(report) -> str:
    return digest(
        [
            report.order,
            report.matched,
            report.oracle_poly.coeffs,
            report.closed_poly.coeffs,
            None if report.partition is None else report.partition.sizes,
            report.diff_summary,
            None if report.residual is None else report.residual.coeffs,
            [(str(d), m) for d, m in report.unmatched_closed],
            report.error,
        ]
    )


class OracleGrid:
    """verify over the default grid up to ORACLE_MAX_GRAPH_ORDER, one instance per call."""

    name = "oracle-grid"
    POOL_JOBS = 2

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        cap = 14 if smoke else ORACLE_MAX_GRAPH_ORDER
        specs = [s for s in default_grid() if sum(claimed_partition_sizes(s)) <= cap]
        random.Random(seed).shuffle(specs)
        self.specs = specs
        self.items = [(spec, kind) for spec in specs for kind in ALL_KINDS]
        random.Random(seed).shuffle(self.items)

    @staticmethod
    def key(item) -> str:
        spec, kind = item
        return f"{spec_key(spec)}:{kind.value}"

    @staticmethod
    def units(item) -> int:
        return 1

    @staticmethod
    def run(item):
        spec, kind = item
        return verify_grid([spec], (kind,), jobs=1)[0]

    def measure(self, item):
        return gauged(self.run, item)

    def check(self, item, report, expected) -> list[str]:
        spec, kind = item
        problems = []
        if report.error is not None:
            problems.append(f"error report: {report.error}")
        if report.matched == expected_mismatch(spec, kind):
            problems.append(f"matched={report.matched}, expected the opposite")
        if not report.matched and (report.residual is None or report.residual.degree < 1):
            problems.append("mismatch without a non-empty residual")
        if _report_digest(report) != expected.get(self.key(item)):
            problems.append("report differs from the recorded digest")
        return problems

    output_digest = staticmethod(_report_digest)

    def trace(self, item, tracer: Tracer):
        spec, kind = item
        report, real = timed(self.run, item)
        tracer.add("verify.instance_s", real)
        tracer.add("verify.mismatches", int(not report.matched))
        start = time.perf_counter()
        with tracer.span("groups.enumerate_s"):
            group = enumerate_elements(spec)
        tracer.add("groups.elements", group.order)
        with tracer.span("graphs.ncg_build_s"):
            graph = non_commuting_graph(group)
        with tracer.span("graphs.certify_s"):
            graph, partition = part_major(graph)
        with tracer.span("graphs.bfs_s"):
            dist = distance_matrix(graph)
        tracer.add("graphs.vertices", graph.order)
        with tracer.span("graphs.matrix_s"):
            matrix = matrix_of_kind(dist, kind)
        with tracer.span("exactalg.charpoly_s"):
            oracle = char_poly(matrix)
        tracer.add("exactalg.charpoly_calls")
        tracer.maximum(
            "exactalg.coeff_bits_max", max(abs(c).bit_length() for c in oracle.coeffs)
        )
        with tracer.span("closedform.spectrum_s"):
            spectrum = spectrum_for(spec, kind)
        with tracer.span("closedform.expand_s"):
            closed = spectrum_to_polynomial(spectrum)
        replay = time.perf_counter() - start
        tracer.add("trace.overhead_s", replay - real)
        replayed = (oracle, partition, graph.order, oracle == closed)
        actual = (report.oracle_poly, report.partition, report.order, report.matched)
        if replayed != actual:
            raise AssertionError(f"replay of {self.key(item)} differs from verify_instance")
        return report, real

    def pool_pass(self) -> tuple[list, float]:
        """One verify_grid pass over the same instances with a process pool."""
        return timed(verify_grid, self.specs, ALL_KINDS, DEFAULT_ORDER_CAP, self.POOL_JOBS)


# ------------------------------------------------------------ structure-large

# One group per family, and per parity of m, just beyond the default verify
# cap of 150: graph orders 254, 158, 155, 153 and 154.  QD_256 is the first
# quasidihedral group past the cap.  Their times are well apart, so the
# median item does not flip between two groups from run to run.  One pass
# takes about 6 s on a 2-core machine, so a 40 s run repeats it six times.
STRUCTURE_SPECS = (
    GroupSpec.qd(8),
    GroupSpec.q4n(40),
    GroupSpec.u6n(31),
    GroupSpec.metacyclic(9, 9),
    GroupSpec.metacyclic(12, 7),
)


def certify_structure(spec: GroupSpec, tracer) -> dict:
    """Group and graph layers at a graph order beyond the verify cap, with no char poly."""
    with tracer.span("verify.reject_s"):
        try:
            verify_instance(spec, MatrixKind.DISTANCE)
            refused = False
        except OrderCapExceeded:
            refused = True
    with tracer.span("groups.enumerate_s"):
        group = enumerate_elements(spec)
    tracer.add("groups.elements", group.order)
    with tracer.span("groups.center_s"):
        z = center(group)
    with tracer.span("groups.ca_check_s"):
        ca = is_ca_group(group)
    with tracer.span("graphs.ncg_build_s"):
        graph = non_commuting_graph(group)
    with tracer.span("graphs.certify_s"):
        graph, partition = part_major(graph)
    with tracer.span("graphs.bfs_s"):
        dist = distance_matrix(graph)
    tracer.add("graphs.vertices", graph.order)
    with tracer.span("graphs.matrix_s"):
        matrices = [matrix_of_kind(dist, kind) for kind in ALL_KINDS]
    with tracer.span("closedform.quotient_s"):
        quotient = multipartite_distance_charpoly(partition)
    with tracer.span("closedform.spectrum_s"):
        spectrum = spectrum_for(spec, MatrixKind.DISTANCE)
    with tracer.span("closedform.expand_s"):
        closed = spectrum_to_polynomial(spectrum)
    eigenbases = []
    if spec.family == "q4n":
        with tracer.span("closedform.eigenbasis_s"):
            for kind in ALL_KINDS[1:]:
                eigenbases.append(eigenbasis_q4n(kind, spec.n))
    return {
        "refused": refused,
        "center": len(z),
        "ca": ca,
        "order": graph.order,
        "partition": partition.sizes,
        "claimed": claimed_partition_sizes(spec),
        "quotient": quotient,
        "closed": closed,
        "matrices": matrices,
        "eigenbases": eigenbases,
    }


def _structure_digest(out: dict) -> str:
    return digest(
        [
            out["center"],
            out["ca"],
            out["order"],
            out["partition"],
            out["quotient"].coeffs,
            [m.rows for m in out["matrices"]],
            [
                (b.kind.value, [(f.eigenvalue, f.label, f.vectors) for f in b.families],
                 str(b.irrational_pair))
                for b in out["eigenbases"]
            ],
        ]
    )


class StructureLarge:
    """Enumerate, certify and build every matrix of groups beyond the default order cap."""

    name = "structure-large"

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        specs = list(STRUCTURE_SPECS[3:4] if smoke else STRUCTURE_SPECS)
        random.Random(seed).shuffle(specs)
        self.items = specs

    @staticmethod
    def key(spec) -> str:
        return f"structure:{spec_key(spec)}"

    @staticmethod
    def units(spec) -> int:
        return 1

    @staticmethod
    def run(spec) -> dict:
        return certify_structure(spec, NO_TRACE)

    @staticmethod
    def measure(spec):
        """Gauged step by step: one group's stages take up to a few seconds."""
        gauge = Gauge()
        out = certify_structure(spec, gauge)
        return out, gauge.total

    def check(self, spec, out, expected) -> list[str]:
        problems = []
        if not out["refused"]:
            problems.append("verify_instance did not refuse an over-cap instance")
        if out["partition"] != out["claimed"]:
            problems.append(f"partition {out['partition']} != claimed {out['claimed']}")
        if out["quotient"] != out["closed"]:
            problems.append("multipartite D char poly != expanded closed form")
        if _structure_digest(out) != expected.get(self.key(spec)):
            problems.append("structure differs from the recorded digest")
        return problems

    output_digest = staticmethod(_structure_digest)

    def trace(self, spec, tracer: Tracer):
        out, real = timed(self.run, spec)
        start = time.perf_counter()
        replayed = certify_structure(spec, tracer)
        tracer.add("trace.overhead_s", time.perf_counter() - start - real)
        if _structure_digest(replayed) != _structure_digest(out):
            raise AssertionError(f"traced replay of {self.key(spec)} differs")
        return out, real


# ----------------------------------------------------------- integrality-scan

def _scan_calls(smoke: bool) -> list[list[str]]:
    calls = []
    for group, max_n in (("q4n", 25000), ("u6n", 25000), ("qd", 4000)):
        for k in ("d", "dl", "dq"):
            calls.append(["--group", group, "--matrix", k, "--max-n", str(max_n)])
    for m in range(3, 13):
        for k in ("d", "dl", "dq"):
            calls.append(["--group", "metacyclic", "--m", str(m), "--matrix", k,
                          "--max-n", "2500"])
    return calls[9:12] if smoke else calls


def _scan_range(call: list[str]) -> tuple[str, int | None, range]:
    """Family, m and the n range one search-integral call scans, as the CLI builds them."""
    opts = dict(zip(call[::2], call[1::2]))
    group, max_n = opts["--group"], int(opts["--max-n"])
    if group == "metacyclic":
        return group, int(opts["--m"]), range(1, max_n + 1)
    lowest = {"q4n": 2, "qd": 4, "u6n": 1}[group]
    return group, None, range(lowest, max_n + 1)


def scan_specs(call: list[str]) -> list[GroupSpec]:
    group, m, ns = _scan_range(call)
    return [GroupSpec(group, n, m) for n in ns]


class IntegralityScan:
    """search-integral through the CLI, JSON to a file, over all families and kinds."""

    name = "integrality-scan"

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        calls = _scan_calls(smoke)
        random.Random(seed).shuffle(calls)
        self.items = calls
        self.points = {tuple(c): len(_scan_range(c)[2]) for c in calls}
        self.out_path = workdir / "search.json"

    @staticmethod
    def key(call) -> str:
        return "search-integral " + " ".join(call)

    def units(self, call) -> int:
        return self.points[tuple(call)]

    def run(self, call):
        argv = ["search-integral", *call, "--format", "json", "--out", str(self.out_path)]
        code = cli_main(argv)
        return code, self.out_path.read_bytes()

    def measure(self, call):
        return gauged(self.run, call)

    def check(self, call, out, expected) -> list[str]:
        code, data = out
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if self.output_digest(out) != expected.get(self.key(call)):
            problems.append("output bytes differ from the recorded digest")
        return problems

    @staticmethod
    def output_digest(out) -> str:
        return hashlib.sha256(out[1]).hexdigest()[:32]

    def trace(self, call, tracer: Tracer):
        out, real = timed(self.run, call)
        tracer.add("cli.main_s", real)
        tracer.add("cli.bytes_out", len(out[1]))
        specs = scan_specs(call)
        kind = MatrixKind(dict(zip(call[::2], call[1::2]))["--matrix"])
        records, search = timed(search_integral, specs, kind)
        tracer.add("verify.search_s", search)
        start = time.perf_counter()
        replayed = []
        for spec in specs:
            with tracer.span("verify.predict_s"):
                predicted = predicted_integral(spec, kind)
            with tracer.span("closedform.spectrum_s"):
                computed = spectrum_for(spec, kind).is_integral
            if predicted[0] or predicted[0] != computed:
                replayed.append((spec, predicted, computed))
        tracer.add("trace.overhead_s", time.perf_counter() - start - search)
        actual = [
            (r.group, (r.predicted_integral, r.witness, r.note), r.computed_integral)
            for r in records
        ]
        if replayed != actual:
            raise AssertionError(f"replay of {self.key(call)} differs from search_integral")
        return out, real


WORKLOADS = {w.name: w for w in (OracleGrid, StructureLarge, IntegralityScan)}
