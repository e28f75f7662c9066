"""Record the output digests the benchmark checks against, into benchmarks/expected.json.

Run from the root of a source checkout, only when outputs are meant to
change (the change must say so); every benchmark run compares with them:

    python3 benchmarks/record_expected.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from run import DEFAULT_SEED, ROOT, load_workloads


def main() -> None:
    workloads = load_workloads()
    expected = {}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as tmp:
        for cls in workloads.WORKLOADS.values():
            wl = cls(DEFAULT_SEED, Path(tmp))
            for item in wl.items:
                expected[wl.key(item)] = wl.output_digest(wl.run(item))
    text = json.dumps(expected, indent=1, sort_keys=True) + "\n"
    workloads.EXPECTED_PATH.write_text(text)
    print(f"{len(expected)} digests written to {workloads.EXPECTED_PATH}")


if __name__ == "__main__":
    main()
