"""Synthetic occlusion injection: delete a run of each object's matched detections."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .association import gated_candidates
from .config import MATCH_DISTANCE, OCCLUSION_KINDS, check_kind, require
from .errors import InputError
from .kitti_io import SequenceDataset, as_labels
from .metrics import gated_chunks


@dataclass(frozen=True)
class OcclusionSpec:
    """Where and how long detections disappear for each eligible object."""

    kind: str
    start_after: int       # minimum observations before an occlusion may begin
    length: int            # consecutive detections removed
    match_threshold: float = MATCH_DISTANCE

    def __post_init__(self):
        require(self.kind in OCCLUSION_KINDS, "kind",
                f"must be one of {OCCLUSION_KINDS}, got {self.kind!r}")
        require(check_kind(self.start_after, "int", "start_after") >= 1,
                "start_after", f"must be >= 1, got {self.start_after}")
        require(check_kind(self.length, "int", "length") >= 1, "length",
                f"must be >= 1, got {self.length}")
        require(check_kind(self.match_threshold, "float", "match_threshold") > 0,
                "match_threshold",
                f"must be positive, got {self.match_threshold}")


def occlusion_cut(n_observations: int, spec: OcclusionSpec):
    """Ordinal range [start, stop) of detections to delete; None if ineligible."""
    if n_observations < spec.start_after + spec.length:
        return None
    if spec.kind == "late":
        start = n_observations - spec.length
    else:
        start = max(spec.start_after, (n_observations - spec.length) // 2)
    return start, start + spec.length


def occlude_dataset(dataset: SequenceDataset, gt_frames, spec: OcclusionSpec):
    """Remove a run of each eligible object's matched detections; everything
    else is unchanged. Returns (occluded dataset, {track_id: [occluded
    frames]}), ids ascending.

    Detections match ground truth as CLEAR-MOT pairs them: one
    `gated_candidates` call per chunk of `metrics.gated_chunks`, which is
    each frame's own pairing, since no connected block of pairs spans two
    frames. The two may differ in length: a detection frame past the last
    ground-truth frame matches nothing and is kept. Each object's matches, in
    frame order, lose the run that `occlusion_cut` picks for their count. One
    keep mask over the sequence's detection rows takes every cut; only the
    frames that lose a row are rebuilt. Ground truth without track ids
    raises ContractViolationError.
    """
    if gt_frames is None:
        raise InputError("ground truth is required to build tracklets")
    frames = list(map(as_labels, dataset.detections))
    counts = np.array([len(labels) for labels in frames], dtype=np.intp)
    ids, rows, d0 = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.intp)], 0
    for gids, _, _, d_counts, (g, d, dist) in gated_chunks(
            gt_frames, frames, spec.match_threshold):
        matched = gated_candidates(g, d, dist, spec.match_threshold)
        ids.append(gids.take(g.take(matched)))
        rows.append(d.take(matched) + d0)
        d0 += int(d_counts.sum())
    # Each id's matches in frame order: sort them by id, stably.
    ids = np.concatenate(ids)
    by_id = np.argsort(ids, kind="stable")
    tids, starts, n_matches = np.unique(ids.take(by_id), return_index=True,
                                        return_counts=True)
    rows = np.concatenate(rows).take(by_id)
    frame_of = np.repeat(np.arange(len(frames)), counts)
    keep = np.ones(len(frame_of), dtype=bool)
    dropped = {}
    for tid, start, n in zip(tids.tolist(), starts.tolist(), n_matches.tolist()):
        cut = occlusion_cut(n, spec)
        if cut is not None:
            cut_rows = rows[start + cut[0]:start + cut[1]]
            keep[cut_rows] = False
            dropped[tid] = frame_of.take(cut_rows).tolist()
    ends = np.cumsum(counts)
    for f in np.unique(frame_of[~keep]).tolist():
        frames[f] = frames[f].take(keep[ends[f] - counts[f]:ends[f]])
    return SequenceDataset(sequence_id=dataset.sequence_id, detections=frames,
                           ground_truth=dataset.ground_truth), dropped
