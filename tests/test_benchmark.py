"""The benchmark under perfbench/ calls the public API, some of it by
position; its self-test runs every workload's checks on the small group,
so a change that breaks those calls fails here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    # the one test left out asserts a 0.1-s busy loop to within 10 ms of wall
    # time, which a loaded host can miss
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "perfbench/selftest.py", "-k", "not timing_leaves_out"],
        cwd=ROOT, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
