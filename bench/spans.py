"""Spans around calls into dynatrack's modules, recorded from outside the program.

`Tracer.installed()` replaces public functions on their modules (and methods on
their classes) with timing wrappers and puts the originals back on exit. This
reaches every call because the program looks them up through the module or
class at call time: `tracker` calls `flt.*`/`dyn.*` and the module global
`associate`, `cli` calls `kitti_io.*`/`metrics.*`/`occlusion.*` and builds its
subcommand table from the module's `cmd_*` globals on every `main` call.

Each span records name, start, end, parent span and root span (one root per
tracker step or CLI command). Spans stay in memory until `save`. A span's self
time is its duration minus its children's durations; calls run on one thread,
so children never overlap. When the program stops making a wrapped call, its
cost moves into the caller's self time.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from dynatrack import cli, kitti_io, metrics, occlusion
from dynatrack import dynamics as dyn
from dynatrack import filtering as flt
from dynatrack import tracker as trk


def _records(frames) -> int:
    return sum(len(f) for f in frames)


def _pairs(gt, hyp) -> int:
    """gt x hyp comparisons `metrics.idf1` makes, frame by frame."""
    return sum(len(g) * len(h)
               for g, h in itertools.zip_longest(gt, hyp, fillvalue=()))


class Tracer:
    """In-memory span log plus counters keyed by metric name."""

    def __init__(self):
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, span: str, fn, count=None):
        """`fn` timed as `span`; `count(args, result)` runs outside the span."""
        name_id = self.name_ids.setdefault(span, len(self.name_ids))
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.root.append(stack[0] if stack else idx)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if count is not None:
                count(args, result)
            return result

        return wrapper

    def _count(self, key: str, value: float):
        self.counts[key] += value

    def _step_wrapper(self, step):
        """MultiObjectTracker.step span plus lifecycle counts from `tracks`."""
        timed = self.wrap("tracker.step", step)

        def wrapper(tracker, frame, detections):
            before = {t.track_id for t in tracker.tracks}
            result = timed(tracker, frame, detections)
            after = {t.track_id for t in tracker.tracks}
            self._count("tracker.births", len(after - before))
            self._count("tracker.deaths", len(before - after))
            self._count("tracker.live_track_frames", len(after))
            return result

        return wrapper

    def _targets(self):
        """(owner, attribute, replacement) for every traced call."""
        c = self._count

        def assoc_count(args, result):
            c("tracker.associate.cells", len(args[0]) * len(args[1]))
            c("tracker.associate.matches", len(result.matches))
            c("tracker.associate.detections", len(args[1]))

        def predict_count(args, result):
            c("filtering.predict.weighted", args[2] is not None)

        def parsed_dataset(args, result):
            c("kitti_io.records_parsed", _records(result.detections))

        def parsed_frames(args, result):
            c("kitti_io.records_parsed", _records(result))

        def idf1_pairs(args, result):
            c("metrics.pairs", _pairs(args[0], args[1]))

        w = self.wrap
        return [
            (flt, "predict", w("filtering.predict", flt.predict, predict_count)),
            (flt, "update", w("filtering.update", flt.update)),
            (flt, "post_measurement",
             w("filtering.post_measurement", flt.post_measurement)),
            (dyn, "dynamics_vectors",
             w("dynamics.dynamics_vectors", dyn.dynamics_vectors)),
            (dyn, "update_weights", w("dynamics.update_weights", dyn.update_weights)),
            (dyn, "weight_diagonal",
             w("dynamics.weight_diagonal", dyn.weight_diagonal)),
            (dyn.DynamicsWindow, "push",
             w("dynamics.push", dyn.DynamicsWindow.push)),
            (trk, "associate", w("tracker.associate", trk.associate, assoc_count)),
            (trk.MultiObjectTracker, "step",
             self._step_wrapper(trk.MultiObjectTracker.step)),
            (kitti_io, "parse_detections", w("kitti_io.parse_detections",
                                             kitti_io.parse_detections,
                                             parsed_dataset)),
            (kitti_io, "parse_annotations", w("kitti_io.parse_labeled",
                                              kitti_io.parse_annotations,
                                              parsed_frames)),
            (kitti_io, "parse_tracks", w("kitti_io.parse_labeled",
                                         kitti_io.parse_tracks, parsed_frames)),
            (kitti_io, "measurements_from",
             w("kitti_io.measurements_from", kitti_io.measurements_from)),
            (kitti_io, "write_tracks", w("kitti_io.write_tracks",
                                         kitti_io.write_tracks)),
            (kitti_io, "write_detections", w("kitti_io.write_detections",
                                             kitti_io.write_detections)),
            (kitti_io, "export_trajectory_csv",
             w("kitti_io.export_trajectory_csv", kitti_io.export_trajectory_csv)),
            (occlusion, "occlude_dataset",
             w("occlusion.occlude_dataset", occlusion.occlude_dataset)),
            (metrics, "clearmot", w("metrics.clearmot", metrics.clearmot)),
            (metrics, "idf1", w("metrics.idf1", metrics.idf1, idf1_pairs)),
            (cli, "cmd_occlude", w("cli.occlude", cli.cmd_occlude)),
            (cli, "cmd_track", w("cli.track", cli.cmd_track)),
            (cli, "cmd_evaluate", w("cli.evaluate", cli.cmd_evaluate)),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Trace every target inside the block; originals restored after."""
        with patched(self._targets()):
            yield self

    def totals(self):
        """{span name: (calls, inclusive seconds, self seconds)}."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        names = list(self.name_ids)
        n = len(names)
        calls = np.bincount(name, minlength=n)
        incl = np.bincount(name, weights=dur, minlength=n)
        self_s = np.bincount(name, weights=dur - child, minlength=n)
        return {names[i]: (int(calls[i]), float(incl[i]), float(self_s[i]))
                for i in range(n)}

    def save(self, path: Path):
        """Write every span as arrays; `names[name[i]]` is span i's name."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(list(self.name_ids)),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 root=np.frombuffer(self.root, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float))


@contextlib.contextmanager
def patched(targets):
    """Set each (owner, attribute, value) for the block, then restore."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer figures per traced pass over the workload's input."""
    totals = tracer.totals()
    counts = tracer.counts

    def span(name, kind="s"):
        calls, incl, self_s = totals.get(name, (0, 0.0, 0.0))
        return {"calls": calls, "s": incl, "self_s": self_s}[kind] / passes

    def group(prefix, kind):
        return sum(span(n, kind) for n in totals if n.startswith(prefix))

    detections = counts["tracker.associate.detections"]
    steps = totals.get("tracker.step", (0, 0.0, 0.0))[0]
    values = {
        "filtering.update.s": (span("filtering.update"), "s"),
        "filtering.update.calls": (span("filtering.update", "calls"), "count"),
        "filtering.predict.s": (span("filtering.predict"), "s"),
        "filtering.predict.calls": (span("filtering.predict", "calls"), "count"),
        "filtering.predict.weighted": (
            counts["filtering.predict.weighted"] / passes, "count"),
        "filtering.post_measurement.s": (span("filtering.post_measurement"), "s"),
        "dynamics.s": (group("dynamics.", "s"), "s"),
        "dynamics.calls": (group("dynamics.", "calls"), "count"),
        "tracker.associate.s": (span("tracker.associate"), "s"),
        "tracker.associate.cells": (
            counts["tracker.associate.cells"] / passes, "count"),
        "tracker.associate.match_ratio": (
            counts["tracker.associate.matches"] / detections if detections else 0.0,
            "ratio"),
        "tracker.step.s": (span("tracker.step"), "s"),
        "tracker.step.self_s": (span("tracker.step", "self_s"), "s"),
        "tracker.live_tracks": (
            counts["tracker.live_track_frames"] / steps if steps else 0.0, "count"),
        "tracker.births": (counts["tracker.births"] / passes, "count"),
        "tracker.deaths": (counts["tracker.deaths"] / passes, "count"),
        "kitti_io.parse_detections.s": (span("kitti_io.parse_detections"), "s"),
        "kitti_io.parse_labeled.s": (span("kitti_io.parse_labeled"), "s"),
        "kitti_io.records_parsed": (
            counts["kitti_io.records_parsed"] / passes, "count"),
        "kitti_io.measurements_from.s": (span("kitti_io.measurements_from"), "s"),
        "kitti_io.write_tracks.s": (span("kitti_io.write_tracks"), "s"),
        "kitti_io.write_detections.s": (span("kitti_io.write_detections"), "s"),
        "kitti_io.export_trajectory_csv.s": (
            span("kitti_io.export_trajectory_csv"), "s"),
        "occlusion.occlude_dataset.s": (span("occlusion.occlude_dataset"), "s"),
        "metrics.clearmot.s": (span("metrics.clearmot"), "s"),
        "metrics.idf1.s": (span("metrics.idf1"), "s"),
        "metrics.pairs": (counts["metrics.pairs"] / passes, "count"),
    }
    for command in ("occlude", "track", "evaluate"):
        values[f"cli.{command}.s"] = (span(f"cli.{command}"), "s")
        values[f"cli.{command}.self_s"] = (span(f"cli.{command}", "self_s"), "s")
    return values
