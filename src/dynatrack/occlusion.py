"""Synthetic occlusion injection: delete detection runs from matched tracklets."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import require
from .errors import InputError
from .kitti_io import SequenceDataset, as_labels, stack_frames
from .tracker import _gated_candidates, frame_chunks, in_gate_by_frame

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

    The frames are matched a chunk at a time (`frame_chunks`): one grouped
    `in_gate_by_frame` call, then one min-distance pairing of all of the
    chunk's pairs, which is each frame's own pairing, since no connected
    block of pairs spans two frames. Returns one tracklet per matched
    ground-truth id, in ascending id order, its observations in frame order.
    """
    if gt_frames is None:
        raise InputError("ground truth is required to build tracklets")
    if len(dataset.detections) != len(gt_frames):
        raise InputError(
            f"frame ranges differ: detections cover {len(dataset.detections)} "
            f"frames, ground truth covers {len(gt_frames)}")
    g_counts = np.array([len(frame) for frame in gt_frames], dtype=np.intp)
    d_counts = np.array([len(frame) for frame in dataset.detections], dtype=np.intp)
    observations: dict = {}
    for frames in frame_chunks(g_counts, d_counts):
        track_id, g_pos = stack_frames(gt_frames[frames])
        _, d_pos = stack_frames(dataset.detections[frames])
        rows, cols, dist = in_gate_by_frame(g_pos, d_pos, g_counts[frames],
                                            d_counts[frames], threshold)
        matched = _gated_candidates(rows, cols, dist, threshold)
        # Each id's matches in frame order: sort them by id, stably.
        tids = track_id.take(rows.take(matched))
        by_id = np.argsort(tids, kind="stable")
        ids, starts = np.unique(tids.take(by_id), return_index=True)
        cols = cols.take(matched.take(by_id))
        counts = d_counts[frames]
        frame = np.repeat(np.arange(len(counts)), counts).take(cols)
        index = cols - (np.cumsum(counts) - counts).take(frame)
        # One int object per frame, shared by its observations, not one each.
        frame_ints = list(range(frames.start, frames.stop))
        chunk = list(zip(map(frame_ints.__getitem__, frame.tolist()),
                         index.tolist()))
        bounds = starts.tolist() + [len(chunk)]
        for tid, start, stop in zip(ids.tolist(), bounds, bounds[1:]):
            observations.setdefault(tid, []).extend(chunk[start:stop])
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
