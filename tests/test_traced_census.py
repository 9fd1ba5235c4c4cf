"""The benchmark's traced census gate, run as part of the test suite.

``bench/run.py --trace 1`` counts the size-3 search's fail-fast leaf checks,
survivors and canonical representatives, and fails unless they equal
``bench/expected.py``'s ``CENSUS_SEARCH``; no other test reads that gate.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import expected  # noqa: E402


def test_the_traced_census_counts_the_frozen_search():
    command = ["bench/run.py", "--workload", "census", "--seconds", "0", "--trace", "1"]
    done = subprocess.run(
        [sys.executable, *command], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    record, result = map(json.loads, done.stdout.splitlines()[-2:])
    assert result["correct"] and result["failed"] == 0
    assert record["trace_details"]["searches"]["3"] == expected.CENSUS_SEARCH
