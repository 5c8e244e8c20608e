"""Smoke runs of the checked-in benchmark against this checkout."""
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _traced_run(workload: str) -> subprocess.CompletedProcess:
    # A traced run starts no cold-start subprocesses.
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_bench_corpus_cli_traced_run_is_correct():
    # The traced run wraps program functions by name, so it also fails when
    # one of them is renamed or removed.
    result = _traced_run("corpus_cli")
    assert result.returncode == 0, result.stderr
    assert '"correct": true' in result.stdout


@pytest.mark.parametrize("workload", ["fleet_adaptive", "crowd_baseline"])
def test_bench_online_traced_run_is_correct(workload):
    # The online workloads step the tracker over `measurements_from` frames,
    # iterate every report's rows and read `tracker.tracks` after each step.
    # The association span wraps `tracker.associate`, so it reads zero if
    # `step` stops calling the matcher through that module global.
    result = _traced_run(workload)
    assert result.returncode == 0, result.stderr
    assert '"correct": true' in result.stdout
    layers = json.loads(result.stdout.splitlines()[-1])["metrics"]
    assert layers["tracker.associate.s"]["value"] > 0
    assert layers["tracker.associate.cells"]["value"] > 0


def test_bench_untraced_run_times_cold_starts():
    # Only an untraced run starts the fresh interpreters that `setup_s` times.
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fleet_adaptive",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["correct"] is True
    setup_s = report["metrics"]["setup_s"]["value"]
    assert setup_s is not None and math.isfinite(setup_s) and setup_s > 0
