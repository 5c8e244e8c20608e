"""Smoke run of the checked-in benchmark against this checkout."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_corpus_cli_traced_run_is_correct():
    # The traced run wraps program functions by name, so it also fails when
    # one of them is renamed or removed.
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus_cli",
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert '"correct": true' in result.stdout
