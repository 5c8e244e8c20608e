"""dynatrack benchmark: one workload, one seed, one measuring window.

    python3 bench/run.py --workload fleet_adaptive --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program under test is imported
from `src/` beside this directory, never from an installed copy. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of a traced run with `--trace 1`. End-to-end times are scaled
to a reference machine speed measured alongside them (clock.py). Lines before
it carry the provenance, raw times, sample counts and checks. See README.md
beside this file.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Matrices here are at most 8x8, so extra BLAS threads only add contention;
# one thread each also stays within a two-core machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
COLD_STARTS = 7

# name: (dynamics enabled, (mota floor, idf1 floor)); sizes are in main().
WORKLOADS = {
    "fleet_adaptive": (True, (0.93, 0.75)),
    "crowd_baseline": (False, (0.9, 0.93)),
    "corpus_cli": (True, (0.65, 0.55)),
}

COLD_START = """
import sys, time
sys.path.insert(0, {src!r})
from dynatrack.config import RunConfig
from dynatrack.tracker import MultiObjectTracker
MultiObjectTracker(RunConfig(dynamics_enabled={dynamics}))
built = time.monotonic()
sys.path.insert(0, {bench!r})
import statistics, clock
speed = clock.Speed()
took = [speed.sample() for _ in range(41)][1:]
print(built, statistics.median(took))
"""


def setup_seconds(dynamics: bool) -> tuple[float, list, list]:
    """Median time from a fresh interpreter's spawn to its first tracker.

    One untimed start first fills the bytecode and file caches. Both clocks
    are CLOCK_MONOTONIC, which Linux shares between processes. Each start is
    scaled by the reference computation the same interpreter runs right after
    (see clock.py); the samples are returned raw and scaled.
    """
    code = COLD_START.format(src=str(SRC), bench=str(HERE), dynamics=dynamics)
    raw, scaled = [], []
    for k in range(COLD_STARTS + 1):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, check=True)
        if k:
            built, reference = map(float, done.stdout.split()[-2:])
            raw.append(built - start)
            scaled.append(raw[-1] * clock.REFERENCE_S / reference)
    return statistics.median(scaled), raw, scaled


def provenance(dynatrack) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "dynatrack").glob("*.py")):
        source.update(path.read_bytes())
    import numpy
    import scipy
    return {
        "import_path": dynatrack.__file__,
        "commit": commit,
        "src_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dynatrack" / "__init__.py").is_file():
        print(f"error: no dynatrack sources under {SRC}", file=sys.stderr)
        return 1
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    # The CLI would otherwise read a user's config file instead of the defaults.
    os.environ.pop("DYNATRACK_CONFIG", None)
    sys.path.insert(0, str(SRC))
    import dynatrack
    if not Path(dynatrack.__file__).resolve().is_relative_to(SRC):
        print(f"error: dynatrack imported from {dynatrack.__file__}, not {SRC}",
              file=sys.stderr)
        return 1
    import inputs
    import workloads
    from dynatrack.config import RunConfig

    dynamics, floors = WORKLOADS[args.workload]
    print("# provenance " + json.dumps(provenance(dynatrack)))
    if not args.trace:
        setup_s, raw, scaled = setup_seconds(dynamics)
        print(f"# setup_s cold starts raw: {', '.join(f'{s:.4f}' for s in raw)}; "
              f"scaled: {', '.join(f'{s:.4f}' for s in scaled)}")

    cfg = RunConfig(dynamics_enabled=dynamics)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.workload == "fleet_adaptive":
            seq = inputs.fleet(args.seed, n_objects=100, n_frames=500)
            outcome = workloads.run_online(seq, cfg, args.seconds, args.trace, floors)
        elif args.workload == "crowd_baseline":
            seq = inputs.crowd(args.seed, n_objects=1000, n_frames=30,
                               clutter_share=0.1)
            outcome = workloads.run_online(seq, cfg, args.seconds, args.trace, floors)
        else:
            corpus = inputs.corpus(args.seed, n_sequences=3, n_objects=25,
                                   min_frames=100, max_frames=180)
            for seq in corpus:
                inputs.write_sequence(seq, work / "in" / seq.name)
            outcome = workloads.run_corpus(corpus, work, args.seconds, args.trace,
                                           floors)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# raw pass_s untraced: "
          f"{', '.join(f'{s:.3f}' for s in outcome.pass_s(False, scaled=False))}; "
          f"traced: "
          f"{', '.join(f'{s:.3f}' for s in outcome.pass_s(True, scaled=False))}")
    print(f"# {outcome.raw()}")
    print(f"# timed steps: {len(outcome.step_start)}; "
          f"error_rate: {outcome.failed / outcome.attempted:.6f} "
          f"({outcome.failed}/{outcome.attempted})")
    for check, ok in outcome.checks.items():
        print(f"# check {'ok  ' if ok else 'FAIL'} {check}")
    if args.trace:
        values = outcome.per_layer()
        outcome.tracer.save(OUT / f"spans-{args.workload}.npz")
    else:
        values = outcome.end_to_end()
        values["setup_s"] = (setup_s, "s")
    # A metric left undefined by failed operations is reported as null.
    finite = all(math.isfinite(value) for value, _ in values.values())
    correct = all(outcome.checks.values()) and outcome.failed == 0 and finite
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
