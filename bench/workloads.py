"""The three workloads: two in-memory step loops and a CLI corpus.

Each workload repeats passes over one fixed, seeded input until the measuring
window closes; a pass is one whole run over that input (a fresh tracker over
the sequence, or occlude + track + evaluate over the corpus). Without tracing
every pass is timed. With tracing, untraced and traced passes alternate, so
the same run also gives the tracing overhead. Between timed operations the
reference computation of `clock` runs every few tens of milliseconds, and
reported times are scaled by it (see clock.py); the raw times are printed too.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import resource
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from dynatrack import cli, metrics
from dynatrack.errors import DynatrackError
from dynatrack.tracker import MultiObjectTracker

import clock
import score
import spans


@dataclass
class Outcome:
    """What one run measured and checked."""

    speed: clock.Speed = field(default_factory=clock.Speed)
    passes: list = field(default_factory=list)        # (start, end)
    traced_passes: list = field(default_factory=list)
    step_start: list = field(default_factory=list)    # untraced steps
    step_end: list = field(default_factory=list)
    live_track_frames: int = 0                        # after untraced steps
    attempted: int = 0
    failed: int = 0
    mota: float = float("nan")
    idf1: float = float("nan")
    peak_rss_mb: float = float("nan")
    checks: dict = field(default_factory=dict)
    tracer: spans.Tracer | None = None

    def pass_s(self, traced: bool, scaled: bool) -> list:
        """Pass times less the reference runs inside them, optionally scaled."""
        times = []
        for start, end in self.traced_passes if traced else self.passes:
            starts, ends = self.speed.stretches(start, end)
            took = ends - starts
            if scaled:
                took = took * self.speed.scale(starts, ends)
            times.append(float(took.sum()))
        return times

    def step_s(self, scaled: bool) -> np.ndarray:
        start, end = np.array(self.step_start), np.array(self.step_end)
        took = end - start
        return took * self.speed.scale(start, end) if scaled else took

    def end_to_end(self) -> dict:
        step_s = self.step_s(scaled=True)
        step_ms = step_s * 1e3
        return {
            "step_ms_p50": (float(np.percentile(step_ms, 50)), "ms"),
            "step_ms_p90": (float(np.percentile(step_ms, 90)), "ms"),
            "track_frames_per_s": (self.live_track_frames / step_s.sum(), "1/s"),
            "corpus_s": (statistics.median(self.pass_s(False, scaled=True)), "s"),
            "mota": (self.mota, "ratio"),
            "idf1": (self.idf1, "ratio"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def per_layer(self) -> dict:
        values = spans.layer_metrics(self.tracer, len(self.traced_passes))
        values["trace.overhead"] = (
            statistics.median(self.pass_s(True, scaled=True))
            / statistics.median(self.pass_s(False, scaled=True)) - 1.0, "ratio")
        return values

    def raw(self) -> str:
        """Unscaled timings and the reference samples, for the log."""
        step_ms = self.step_s(scaled=False) * 1e3
        took = np.frombuffer(self.speed.took, dtype=float) * 1e3
        return (f"raw step_ms p50 {np.percentile(step_ms, 50):.4f} "
                f"p90 {np.percentile(step_ms, 90):.4f}; raw pass_s median "
                f"{statistics.median(self.pass_s(False, scaled=False)):.4f}; "
                f"reference ms "
                f"median {np.median(took):.4f} quartiles "
                f"{np.percentile(took, 25):.4f}-{np.percentile(took, 75):.4f} "
                f"over {len(took)} runs")


def _passes(seconds: float, trace: bool, out: Outcome):
    """Yield (traced, context) per pass until the window is spent.

    A pass starts only if, at the length of the longest recent pass, it would
    end less than half a pass after the deadline; so runs end close to the
    window on average. At least one pass runs, and with tracing at least one
    of each kind.
    """
    deadline = perf_counter() + seconds
    for k in itertools.count():
        last = max((end - start for start, end in
                    out.passes[-1:] + out.traced_passes[-1:]), default=0.0)
        if k >= (2 if trace else 1) and perf_counter() + last / 2 >= deadline:
            return
        traced = trace and k % 2 == 1
        yield traced, out.tracer.installed() if traced else contextlib.nullcontext()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- online step loops -------------------------------------------------------

def _online_pass(frames, cfg, out: Outcome, timed: bool):
    tracker = MultiObjectTracker(cfg)
    outputs = []
    for frame, detections in enumerate(frames):
        out.speed.tick()
        out.attempted += 1
        start = perf_counter()
        try:
            snapshots = tracker.step(frame, detections)
        except DynatrackError:
            out.failed += 1
            snapshots = []
        end = perf_counter()
        if timed:
            out.step_start.append(start)
            out.step_end.append(end)
            out.live_track_frames += len(tracker.tracks)
        outputs.append(snapshots)
    return outputs


def run_online(seq, cfg, seconds: float, trace: bool, floors) -> Outcome:
    """Repeat `MultiObjectTracker.step` over the sequence, one step timed at a time."""
    out = Outcome(tracer=spans.Tracer() if trace else None)
    first = None
    digests = set()
    for traced, context in _passes(seconds, trace, out):
        start = perf_counter()
        with context:
            outputs = _online_pass(seq.frames, cfg, out, timed=not traced)
        end = perf_counter()
        (out.traced_passes if traced else out.passes).append((start, end))
        pairs = score.snapshot_pairs(outputs)
        digests.add(score.digest(pairs))
        first = first or (outputs, pairs)
    out.peak_rss_mb = _peak_rss_mb()
    outputs, pairs = first
    out.mota = metrics.clearmot(seq.truth, outputs).mota
    out.idf1 = score.idf1(seq.truth, pairs)
    out.checks = {
        "same output every pass": len(digests) == 1,
        "finite positions, unique ids": score.well_formed(pairs),
        f"mota >= {floors[0]}": out.mota >= floors[0],
        f"idf1 >= {floors[1]}": out.idf1 >= floors[1],
    }
    return out


# -- CLI corpus --------------------------------------------------------------

def _cli(*argv) -> tuple[int, str]:
    """`dynatrack <argv>` in-process; returns (exit code, standard output)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main([str(a) for a in argv])
    return code, buffer.getvalue()


def _report(text: str) -> dict:
    """`evaluate`'s printed `key: value` lines as numbers."""
    values = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            values[key] = float(value)
    return values


def _labeled_positions(path: Path) -> list:
    """Per-frame (id, ground x/z) from a KITTI label or track file.

    Parsed here, not with `kitti_io`, so the IDF1 check shares no code with
    the `evaluate` run it checks.
    """
    frames: list = []
    for line in path.read_text().splitlines():
        tokens = line.split()
        if not tokens:
            continue
        frame = int(tokens[0])
        while len(frames) <= frame:
            frames.append([])
        frames[frame].append((int(tokens[1]),
                              (float(tokens[13]), float(tokens[15]))))
    return frames


def _step_timer(out: Outcome):
    """Time every `MultiObjectTracker.step` the CLI makes (one clock pair each)."""
    step = MultiObjectTracker.step

    def timed(tracker, frame, detections):
        out.speed.tick()
        start = perf_counter()
        result = step(tracker, frame, detections)
        end = perf_counter()
        out.step_start.append(start)
        out.step_end.append(end)
        out.live_track_frames += len(tracker.tracks)
        return result

    return spans.patched([(MultiObjectTracker, "step", timed)])


def _corpus_pass(names, inputs: Path, work: Path, out: Outcome) -> dict:
    occluded, results = work / "occluded", work / "out"
    codes = []
    reports = {}
    for name in names:
        out.speed.tick()
        code, _ = _cli("occlude", inputs / name / "detections.txt",
                       inputs / name / "gt.txt", "--kind", "mid",
                       "--start-after", 35, "--length", 20,
                       "--output", occluded / f"{name}.txt")
        codes.append(code)
    out.speed.tick()
    code, _ = _cli("track", occluded, "--output", results, "--jobs", 1)
    codes.append(code)
    for name in names:
        out.speed.tick()
        code, text = _cli("evaluate", inputs / name / "gt.txt",
                          results / "tracks" / f"{name}.txt")
        codes.append(code)
        if code == 0:
            reports[name] = _report(text)
    out.attempted += len(codes)
    out.failed += sum(code != 0 for code in codes)
    return reports


def _tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(directory)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _corpus_checks(names, inputs: Path, work: Path, reports: dict) -> dict:
    """Occlusion passes lines through; evaluate's IDF1 matches the reference."""
    subset = idf1_agrees = True
    for name in names:
        occluded = work / "occluded" / f"{name}.txt"
        original = (inputs / name / "detections.txt").read_text().splitlines()
        kept = occluded.read_text().splitlines() if occluded.is_file() else None
        subset &= (kept is not None and len(kept) < len(original)
                   and set(kept) <= set(original))
        if name in reports:
            reference = score.idf1(
                _labeled_positions(inputs / name / "gt.txt"),
                _labeled_positions(work / "out" / "tracks" / f"{name}.txt"))
            idf1_agrees &= abs(reference - reports[name]["idf1"]) <= 1e-6
    return {"occluded files keep only input lines": subset,
            "evaluate idf1 matches reference": idf1_agrees,
            "every sequence scored": len(reports) == len(names)}


def _pooled(reports: dict) -> tuple[float, float]:
    """Corpus MOTA and IDF1 pooled from evaluate's per-sequence counters."""
    total = {key: sum(r[key] for r in reports.values())
             for key in ("false_positives", "false_negatives", "id_switches",
                         "gt_total", "idtp", "idfp", "idfn")}
    mota = 1.0 - (total["false_positives"] + total["false_negatives"]
                  + total["id_switches"]) / total["gt_total"]
    idf1 = 2 * total["idtp"] / (2 * total["idtp"] + total["idfp"] + total["idfn"])
    return mota, idf1


def run_corpus(sequences, work: Path, seconds: float, trace: bool, floors) -> Outcome:
    """Occlude, track and evaluate every sequence through `cli.main`."""
    out = Outcome(tracer=spans.Tracer() if trace else None)
    inputs = work / "in"
    names = [seq.name for seq in sequences]
    first = None
    digests = set()
    for traced, context in _passes(seconds, trace, out):
        for stale in (work / "occluded", work / "out"):
            shutil.rmtree(stale, ignore_errors=True)
        timer = contextlib.nullcontext() if traced else _step_timer(out)
        start = perf_counter()
        with context, timer:
            reports = _corpus_pass(names, inputs, work, out)
        end = perf_counter()
        (out.traced_passes if traced else out.passes).append((start, end))
        digests.add(_tree_digest(work / "occluded") + _tree_digest(work / "out"))
        if first is None:
            first = reports
            out.checks = _corpus_checks(names, inputs, work, reports)
    out.peak_rss_mb = _peak_rss_mb()
    out.checks["same output every pass"] = len(digests) == 1
    if len(first) == len(names):
        out.mota, out.idf1 = _pooled(first)
    out.checks[f"mota >= {floors[0]}"] = out.mota >= floors[0]
    out.checks[f"idf1 >= {floors[1]}"] = out.idf1 >= floors[1]
    return out
