"""The benchmark's smoke run: every workload at tiny sizes, untraced and
traced, with its output checks.  It guards the names the benchmark
patches in ``fnr.model`` against refactors of the program."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_run_passes():
    result = subprocess.run([sys.executable, "benchmarks/smoke.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
