"""Seeded workload inputs, built before any timing starts.

Objects start uniformly over a square sized so that each has about
`SPACING` metres to itself, and move in random 2-D directions. Two objects
rarely come within the tracker's 2.5 m gate of each other at the same time,
so identity errors come mostly from the filter and the lifecycle. Fast
objects move enough on both axes to saturate their weights; slow and
stationary ones do not. The program only ever sees finished detections:
`synth` builds truth and noisy detections, and the functions here add
detection gaps and clutter on top.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dynatrack import kitti_io, synth
from dynatrack.kitti_io import DetectionRecord

CLUTTER_TYPE = "Clutter"
SPACING = 60.0


@dataclass
class Sequence:
    """One tracker input: per-frame measurements plus truth for scoring."""

    name: str
    frames: list          # per-frame lists of dynatrack Measurement
    truth: list           # per-frame lists of (object id, ground position)
    gt_records: list      # per-frame GroundTruthRecord lists (for writing)
    det_records: list     # per-frame DetectionRecord lists (for writing)


def _segments(rng, n_frames: int, kinds):
    """Random regime segments covering exactly `n_frames` frames."""
    segments = []
    left = n_frames
    while left > 0:
        kind = kinds[rng.integers(len(kinds))]
        if kind == "cj":
            duration = int(rng.integers(20, 50))
            value = tuple(rng.uniform(-0.3, 0.3, size=2))
        elif kind == "ca":
            duration = int(rng.integers(30, 80))
            value = tuple(rng.uniform(-0.6, 0.6, size=2))
        elif kind == "cv":
            duration = int(rng.integers(40, 120))
            value = tuple(rng.uniform(-6.0, 6.0, size=2))
        else:
            duration = int(rng.integers(40, 120))
            value = None
        duration = min(duration, left)
        segments.append(synth.RegimeSegment(kind=kind, duration=duration,
                                            value=value))
        left -= duration
    return segments


def _side(n_objects: int) -> float:
    return SPACING * n_objects ** 0.5


def _scenario(rng, n_objects: int, lengths, kinds) -> synth.ScenarioSpec:
    side = _side(n_objects)
    objects = []
    for length in lengths:
        objects.append(synth.ObjectSpec(
            initial_position=tuple(rng.uniform(0.0, side, size=2)),
            velocity=tuple(rng.uniform(-6.0, 6.0, size=2)),
            segments=_segments(rng, int(length), kinds)))
    return synth.ScenarioSpec(objects=objects, noise_sigma=0.3,
                              seed=int(rng.integers(2**31)))


def _drop_gaps(rng, det_frames, n_objects: int, share: float, min_len: int,
               max_len: int):
    """Remove one run of detections from a `share` of the objects.

    Gaps sit in the middle half of the sequence and are shorter than the
    tracker's coasting limit, so the track coasts and is reacquired.
    """
    n_frames = len(det_frames)
    for obj in np.flatnonzero(rng.random(n_objects) < share):
        length = int(rng.integers(min_len, max_len + 1))
        start = int(rng.integers(n_frames // 4, 3 * n_frames // 4 - length))
        for frame in range(start, start + length):
            # synth emits object i as the i-th record of every frame it lives in
            det_frames[frame][obj] = None
    for frame, records in enumerate(det_frames):
        det_frames[frame] = [r for r in records if r is not None]


def _add_clutter(rng, det_frames, rate: float, side: float):
    """Poisson(rate) false detections per frame, uniform over the square."""
    for frame, records in enumerate(det_frames):
        for _ in range(rng.poisson(rate)):
            x, y = rng.uniform(0.0, side, size=2)
            records.append(DetectionRecord(
                frame=frame, obj_type=CLUTTER_TYPE, truncated=0.0, occluded=0,
                alpha=0.0, bbox2d=synth.DEFAULT_BBOX, dims=synth.DEFAULT_DIMS,
                location=kitti_io.camera_location((x, y),
                                                  synth.DEFAULT_ELEVATION),
                rotation_y=0.0, score=0.5))


def _sequence(name: str, gt, dets) -> Sequence:
    return Sequence(name=name, frames=kitti_io.measurements_from(dets),
                    truth=kitti_io.id_position_frames(gt.ground_truth),
                    gt_records=gt.ground_truth, det_records=dets.detections)


def fleet(seed: int, n_objects: int, n_frames: int) -> Sequence:
    """Long-lived objects mixing all four regimes, with mid-sequence gaps."""
    rng = np.random.default_rng([seed, 1])
    spec = _scenario(rng, n_objects, [n_frames] * n_objects, synth.SEGMENT_KINDS)
    gt, dets = synth.generate(spec)
    _drop_gaps(rng, dets.detections, n_objects, share=0.3, min_len=5, max_len=15)
    return _sequence("fleet", gt, dets)


def crowd(seed: int, n_objects: int, n_frames: int, clutter_share: float) -> Sequence:
    """Many constant-velocity objects plus Poisson clutter detections."""
    rng = np.random.default_rng([seed, 2])
    spec = _scenario(rng, n_objects, [n_frames] * n_objects, ("cv",))
    gt, dets = synth.generate(spec)
    side = _side(n_objects)
    _add_clutter(rng, dets.detections, clutter_share * n_objects, side)
    return _sequence("crowd", gt, dets)


def corpus(seed: int, n_sequences: int, n_objects: int, min_frames: int,
           max_frames: int) -> list:
    """Several independent sequences whose objects have varied lifespans."""
    rng = np.random.default_rng([seed, 3])
    sequences = []
    for k in range(n_sequences):
        lengths = rng.integers(min_frames, max_frames + 1, size=n_objects)
        spec = _scenario(rng, n_objects, lengths, synth.SEGMENT_KINDS)
        sequences.append(_sequence(f"seq{k:02d}", *synth.generate(spec)))
    return sequences


def write_sequence(seq: Sequence, directory: Path):
    """KITTI-format gt.txt and detections.txt for one corpus sequence."""
    directory.mkdir(parents=True, exist_ok=True)
    kitti_io.write_annotations(seq.gt_records, directory / "gt.txt")
    kitti_io.write_detections(seq.det_records, directory / "detections.txt")

