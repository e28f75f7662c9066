"""Self-tests of the benchmark: metric names, the correctness gate, the p90 rule.

Run from the root of a source checkout (about 25 s):

    python3 -m unittest benchmarks/selftest.py
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

WORKLOAD_NAMES = [w["name"] for w in json.loads((run.ROOT / "BENCHMARK.json").read_text())["workloads"]]


def smoke(name: str, trace: bool, expected=None, log=None) -> dict:
    return run.run_workload(name, seed=5, seconds=0, trace=trace, smoke=True,
                            expected=expected, log=log or (lambda msg: None))


class SmokeRuns(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        e2e, layers = run.metric_units()
        for name in WORKLOAD_NAMES:
            for trace, units in ((False, e2e), (True, layers)):
                with self.subTest(workload=name, trace=trace):
                    result = smoke(name, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    out = io.StringIO()
                    with redirect_stdout(out):
                        run.print_result(result)
                    lines = out.getvalue().splitlines()
                    self.assertEqual(json.loads(lines[-1]), result)
                    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]}
                    self.assertEqual(printed, units)

    def test_end_to_end_metrics_are_never_zero(self):
        for name in WORKLOAD_NAMES:
            with self.subTest(workload=name):
                metrics = smoke(name, False)["metrics"]
                self.assertTrue(all(m["value"] > 0 for m in metrics.values()), metrics)


class CorrectnessGate(unittest.TestCase):
    def test_gate_trips_on_a_corrupted_expected_digest(self):
        workloads = run.load_workloads()
        for name in WORKLOAD_NAMES:
            with self.subTest(workload=name), tempfile.TemporaryDirectory() as tmp:
                wl = workloads.WORKLOADS[name](5, Path(tmp), smoke=True)
                expected = workloads.load_expected()
                expected[wl.key(wl.items[0])] = "0" * 32
                messages = []
                result = smoke(name, False, expected, messages.append)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)
                self.assertEqual(result["metrics"], {})
                self.assertIn(wl.key(wl.items[0]), messages[0])

    def test_exits_nonzero_without_the_package_source(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / run.HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{run.HERE.name}/run.py", "--workload", WORKLOAD_NAMES[0],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class TailPercentile(unittest.TestCase):
    def test_p90_is_withheld_below_ten_samples_beyond_it(self):
        self.assertIsNone(run.p90_or_none([float(i) for i in range(99)]))
        self.assertIsNone(run.p90_or_none([1.0]))
        samples = [float(i) for i in range(200)]
        p90 = run.p90_or_none(samples)
        self.assertIsNotNone(p90)
        self.assertGreaterEqual(sum(s > p90 for s in samples), 10)


if __name__ == "__main__":
    unittest.main()
