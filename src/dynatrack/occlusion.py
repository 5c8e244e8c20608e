"""Synthetic occlusion injection: delete detection runs from matched tracklets."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import require
from .errors import InputError
from .kitti_io import SequenceDataset, as_labels, ground_position
from .tracker import gated_pairs

OCCLUSION_KINDS = ("mid", "late")


@dataclass(frozen=True)
class OcclusionSpec:
    """Where and how long detections disappear for each eligible object."""

    kind: str
    start_after: int       # minimum observations before an occlusion may begin
    length: int            # consecutive detections removed
    match_threshold: float = 2.0

    def __post_init__(self):
        require(self.kind in OCCLUSION_KINDS, "kind",
                f"must be one of {OCCLUSION_KINDS}, got {self.kind!r}")
        require(self.start_after >= 1, "start_after",
                f"must be >= 1, got {self.start_after}")
        require(self.length >= 1, "length", f"must be >= 1, got {self.length}")
        require(self.match_threshold > 0, "match_threshold",
                f"must be positive, got {self.match_threshold}")


@dataclass
class ObjectTracklet:
    """One ground-truth object's matched detections as (frame, index) pairs."""

    track_id: int
    observations: list


def match_detections_to_gt(dataset: SequenceDataset, gt_frames,
                           threshold: float = 2.0):
    """Associate detections with ground-truth frames, frame by frame.

    Returns one tracklet per matched ground-truth id, in ascending id order.
    """
    if gt_frames is None:
        raise InputError("ground truth is required to build tracklets")
    if len(dataset.detections) != len(gt_frames):
        raise InputError(
            f"frame ranges differ: detections cover {len(dataset.detections)} "
            f"frames, ground truth covers {len(gt_frames)}")
    observations: dict = {}
    for frame, (dets, gts) in enumerate(zip(map(as_labels, dataset.detections),
                                            map(as_labels, gt_frames))):
        rows, cols = gated_pairs(ground_position(gts), ground_position(dets),
                                 threshold)
        for track_id, c in zip(gts.track_id[rows].tolist(), cols.tolist()):
            observations.setdefault(track_id, []).append((frame, c))
    return [ObjectTracklet(track_id=tid, observations=obs)
            for tid, obs in sorted(observations.items())]


def occlusion_cut(n_observations: int, spec: OcclusionSpec):
    """Ordinal range [start, stop) of detections to delete; None if ineligible."""
    if n_observations < spec.start_after + spec.length:
        return None
    if spec.kind == "late":
        start = n_observations - spec.length
    else:
        start = max(spec.start_after, (n_observations - spec.length) // 2)
    return start, start + spec.length


def simulate_occlusion(dataset: SequenceDataset, tracklets, spec: OcclusionSpec):
    """Remove each eligible tracklet's occluded run; everything else unchanged.

    Returns (occluded dataset, {track_id: [occluded frames]}).
    """
    deleted: dict = {}     # frame -> indices of its deleted detections
    occluded_frames: dict = {}
    for tracklet in tracklets:
        cut = occlusion_cut(len(tracklet.observations), spec)
        if cut is None:
            continue
        start, stop = cut
        chunk = tracklet.observations[start:stop]
        for frame, j in chunk:
            deleted.setdefault(frame, []).append(j)
        occluded_frames[tracklet.track_id] = [frame for frame, _ in chunk]
    frames = list(map(as_labels, dataset.detections))
    for frame, rows in deleted.items():
        keep = np.ones(len(frames[frame]), dtype=bool)
        keep[rows] = False
        frames[frame] = frames[frame].take(keep)
    out = SequenceDataset(sequence_id=dataset.sequence_id, detections=frames,
                          ground_truth=dataset.ground_truth)
    return out, occluded_frames


def occlude_dataset(dataset: SequenceDataset, gt_frames, spec: OcclusionSpec):
    """Match then simulate in one call; see the two steps for details."""
    tracklets = match_detections_to_gt(dataset, gt_frames, spec.match_threshold)
    return simulate_occlusion(dataset, tracklets, spec)
