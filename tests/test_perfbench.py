"""The benchmark harness still runs against the package."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    # every workload at toy size, plain and traced: a layer name the
    # benchmark reads that the package no longer has fails here
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
