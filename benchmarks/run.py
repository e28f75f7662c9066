"""Benchmark of the ncgspectra package: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload oracle-grid --seed 1 --seconds 40 --trace 0

The package is imported from ``src/`` of the same checkout.  The run repeats
whole passes over the workload's inputs until another pass would overrun
``--seconds`` (at least one pass), checks every output, prints each metric
named in ``BENCHMARK.json`` with its unit, and ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A failed check prints no metrics and exits 1; a checkout without the package
source exits 2.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
SETUP_PROBES = 11
COVERAGE_FLOOR = 0.9


def load_workloads():
    """Import the benchmark's workloads against the checkout's package source."""
    if not (SRC / "ncgspectra" / "__init__.py").is_file():
        raise FileNotFoundError(f"no ncgspectra package source under {SRC}")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    return workloads


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric names and units from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def p90_or_none(samples: list[float]) -> float | None:
    """90th percentile, withheld (None) when fewer than ten samples lie beyond it."""
    if len(samples) < 2:
        return None
    value = statistics.quantiles(samples, n=10)[-1]
    return value if sum(s > value for s in samples) >= 10 else None


def measure_setup(workload: str, seed: int) -> float:
    """Median time from process start to workload ready over fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident set over this process and every child it waited for, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def run_passes(wl, step, seconds: float, expected: dict, log) -> dict:
    """Whole passes over wl.items until another pass would overrun `seconds`.

    `step(item)` returns (output, seconds); per-item times are kept by key.
    A failed check or exception counts the item as failed and ends the run
    after the current pass.
    """
    samples = defaultdict(list)
    attempted = failed = passes = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for item in wl.items:
            attempted += 1
            try:
                out, elapsed = step(item)
                problems = wl.check(item, out, expected)
            except Exception:  # a failing item is reported, not fatal
                problems = [traceback.format_exc()]
            if problems:
                failed += 1
                log(f"FAILED {wl.key(item)}: {'; '.join(problems)}")
            else:
                samples[wl.key(item)].append(elapsed)
        passes += 1
        now = time.perf_counter()
        if failed or now - start + (now - pass_start) > seconds:
            break
    return {"samples": samples, "attempted": attempted, "failed": failed, "passes": passes}


def end_to_end(wl, run: dict) -> dict[str, float]:
    """Throughput and median item time from each item's median over passes.

    Item times are at reference speed (see workloads.Gauge), which removes
    the drift of the host's CPU speed; the median over passes removes the
    remaining error of single measurements.
    """
    units = {wl.key(item): wl.units(item) for item in wl.items}
    medians = {key: statistics.median(ts) for key, ts in run["samples"].items()}
    return {
        "items_per_s": sum(units.values()) / sum(medians.values()),
        "item_p50_s": statistics.median(medians[k] / units[k] for k in medians),
        "peak_rss_mb": peak_rss_mb(),
    }


REPLAY_STAGES = (
    "groups.enumerate_s", "graphs.ncg_build_s", "graphs.certify_s", "graphs.bfs_s",
    "graphs.matrix_s", "exactalg.charpoly_s", "closedform.spectrum_s",
    "closedform.expand_s",
)


def per_layer(tracer, run: dict, log) -> dict[str, float]:
    """Span totals per pass, plus the ratios derived from them."""
    values = {name: total / run["passes"] for name, total in tracer.totals.items()}
    values.update(tracer.maxima)
    instance = values.get("verify.instance_s", 0.0)
    if instance:
        replayed = sum(values.get(name, 0.0) for name in REPLAY_STAGES)
        values["verify.coverage"] = replayed / instance
        values["verify.unattributed_s"] = instance - replayed
        if values["verify.coverage"] < COVERAGE_FLOOR:
            log(f"WARNING verify.coverage {values['verify.coverage']:.3f} is below "
                f"{COVERAGE_FLOOR}: verify_instance spends time the replay does not time")
        times = [t for ts in run["samples"].values() for t in ts]
        values["verify.item_p90_s"] = p90_or_none(times) or 0.0
        values["verify.item_p90_samples"] = len(times)
    if "cli.main_s" in values:
        values["cli.format_s"] = values["cli.main_s"] - values["verify.search_s"]
    return values


def pool_metrics(wl, pool: tuple[list, float], serial_s: float, run: dict,
                 expected: dict, log) -> dict[str, float]:
    """Checks and rates of one verify_grid pass with a process pool."""
    reports, wall = pool
    run["attempted"] += len(reports)
    for report in reports:
        item = (report.group, report.kind)
        problems = wl.check(item, report, expected)
        if problems:
            run["failed"] += 1
            log(f"FAILED pool {wl.key(item)}: {'; '.join(problems)}")
    return {
        "verify.pool_items_per_s": len(reports) / wall,
        "verify.pool_efficiency": serial_s / (wl.POOL_JOBS * wall),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, expected: dict | None = None, log=None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    log = log or (lambda msg: print(msg, file=sys.stderr))
    workloads = load_workloads()
    e2e_units, layer_units = metric_units()
    expected = workloads.load_expected() if expected is None else expected
    setup = None if trace else measure_setup(name, seed)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as tmp:
        wl = workloads.WORKLOADS[name](seed, Path(tmp), smoke=smoke)
        if trace:
            tracer = workloads.Tracer()
            # The pool pass counts against the run's time like the traced passes.
            pool = wl.pool_pass() if isinstance(wl, workloads.OracleGrid) else None
            budget = seconds - (pool[1] if pool else 0.0)
            run = run_passes(wl, lambda item: wl.trace(item, tracer), budget, expected, log)
            units, values = layer_units, per_layer(tracer, run, log)
            if pool:
                values.update(
                    pool_metrics(wl, pool, values["verify.instance_s"], run, expected, log))
        else:
            run = run_passes(wl, wl.measure, seconds, expected, log)
            units = e2e_units
            values = {"setup_s": setup, **end_to_end(wl, run)} if run["samples"] else {}
    correct = run["failed"] == 0
    metrics = {}
    if correct:
        metrics = {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        }
    return {"correct": correct, "attempted": run["attempted"], "failed": run["failed"],
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["oracle-grid", "structure-large", "integrality-scan"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        workloads = load_workloads()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed, ROOT)
        print("ready", flush=True)
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result)
    return 0 if result["correct"] else 1


def print_result(result: dict) -> None:
    """One line per metric with its unit, then the result object as the last line."""
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
