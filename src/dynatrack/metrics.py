"""Tracking quality metrics: CLEAR-MOT counters, identity F1, latency."""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, UndefinedMetricError
from .kitti_io import as_labels, ground_position, stack_frames
from .tracker import (FrameReport, MultiObjectTracker, _gated_candidates,
                      component_assignment, frame_chunks, in_gate_by_frame)


@dataclass
class MotSummary:
    mota: float
    false_positives: int
    false_negatives: int
    id_switches: int
    gt_total: int
    matches: int
    threshold: float


@dataclass
class IdSummary:
    idf1: float
    idp: float
    idr: float
    idtp: int
    idfp: int
    idfn: int
    threshold: float


@dataclass
class LatencyReport:
    baseline_ms: list
    dynamic_ms: list
    mean_baseline_ms: float
    mean_dynamic_ms: float
    mean_delta_ms: float
    warmup: int
    baseline_reports: list = field(repr=False)
    dynamic_reports: list = field(repr=False)

    @property
    def ratio(self) -> float:
        """The adaptive mean over the baseline mean. On a shared host it
        moves less from run to run than `mean_delta_ms`, which scales with
        the host's speed."""
        return self.mean_dynamic_ms / self.mean_baseline_ms


def _is_labels(frame) -> bool:
    """Whether a frame is KITTI labels: not a `FrameReport` and not a list of
    (id, position) pairs."""
    return not isinstance(frame, FrameReport) and not (
        isinstance(frame, list) and frame and isinstance(frame[0], tuple))


def _frame_arrays(frame):
    """One frame as (ids, positions (n, 2)): from a `FrameReport`'s columns,
    from a list of (id, position) pairs, or from id-bearing KITTI labels."""
    if isinstance(frame, FrameReport):
        return frame.ids, frame.position
    if not _is_labels(frame):
        return (np.array([i for i, _ in frame], dtype=np.int64),
                np.array([p for _, p in frame], dtype=float).reshape(len(frame), 2))
    labels = as_labels(frame)
    return labels.track_id, ground_position(labels)


def _stacked(frames):
    """Frames stacked in order, as (ids, positions (N, 2))."""
    if all(map(_is_labels, frames)):   # one column selection, not one a frame
        return stack_frames(frames)
    parts = [_frame_arrays(frame) for frame in frames]
    ids = np.concatenate([np.zeros(0, dtype=np.int64)] + [i for i, _ in parts])
    positions = np.concatenate([np.zeros((0, 2))] + [p for _, p in parts])
    return ids, positions


def _gated_chunks(gt, hyp, threshold: float):
    """Both sequences, padded to one length, a chunk of frames at a time
    (`frame_chunks`). Yields per chunk (gt ids, gt rows per frame, hyp ids,
    hyp rows per frame, (gt rows, hyp rows, distances)), the last holding
    its frames' in-gate pairs (`in_gate_by_frame`) as rows of the chunk."""
    gt, hyp = list(gt), list(hyp)
    g_counts, h_counts = (np.zeros(max(len(gt), len(hyp)), dtype=np.intp)
                          for _ in range(2))
    g_counts[:len(gt)] = [len(frame) for frame in gt]
    h_counts[:len(hyp)] = [len(frame) for frame in hyp]
    for frames in frame_chunks(g_counts, h_counts):
        (gids, gpos), (hids, hpos) = _stacked(gt[frames]), _stacked(hyp[frames])
        yield gids, g_counts[frames], hids, h_counts[frames], in_gate_by_frame(
            gpos, hpos, g_counts[frames], h_counts[frames], threshold)


def _last_of_id(ids, counts):
    """Whether each row is the last of its id in its frame; frames hold
    `counts` rows each, in order."""
    frame = np.repeat(np.arange(len(counts)), counts)
    order = np.lexsort((ids, frame))
    last = np.ones(len(ids), dtype=bool)
    last[order[:-1]] = ((np.diff(frame.take(order)) != 0)
                        | (np.diff(ids.take(order)) != 0))
    return last


def clearmot(gt, hyp, threshold: float = 2.0) -> MotSummary:
    """CLEAR-MOT on center distance.

    Correspondences from the previous frame are kept while still within the
    threshold; the remainder is matched by min-distance assignment. A switch
    is counted when a ground-truth object's matched id changes relative to
    its last known correspondence.

    The in-gate pairs come from one grouped `in_gate_by_frame` call per
    chunk of frames; the frame loop keeps only the carry-over, which
    depends on the frame before, and the assignment of each frame's
    remaining pairs.
    """
    fp = fn = idsw = gt_total = matches_total = 0
    active: dict = {}      # gt id -> hyp id carried from the previous frame
    last_match: dict = {}  # gt id -> most recent matched hyp id
    for gids, g_counts, hids, h_counts, (rows, cols, dist) in _gated_chunks(
            gt, hyp, threshold):
        gt_total += len(gids)
        p_end = np.searchsorted(rows, np.cumsum(g_counts))
        # A pair carries a correspondence over only through the last row of
        # its hyp id in the frame, as the carried id's row is looked up by id.
        carries = _last_of_id(hids, h_counts).take(cols).tolist()
        pair_gid, pair_hid = gids.take(rows).tolist(), hids.take(cols).tolist()
        rows, cols, dist = rows.tolist(), cols.tolist(), dist.tolist()
        g0 = h0 = p0 = 0
        for n_g, n_h, p1 in zip(g_counts.tolist(), h_counts.tolist(),
                                p_end.tolist()):
            matched: dict = {}
            used = set()
            for k in range(p0, p1):   # carried over while still in the gate
                hid = pair_hid[k]
                if carries[k] and active.get(pair_gid[k]) == hid and hid not in used:
                    matched[pair_gid[k]] = hid
                    used.add(hid)
            rest = [k for k in range(p0, p1)
                    if pair_gid[k] not in matched and pair_hid[k] not in used]
            if rest:
                for j in _gated_candidates(
                        np.array([rows[k] - g0 for k in rest]),
                        np.array([cols[k] - h0 for k in rest]),
                        np.array([dist[k] for k in rest]), threshold).tolist():
                    matched[pair_gid[rest[j]]] = pair_hid[rest[j]]
            for gid, hid in matched.items():
                if gid in last_match and last_match[gid] != hid:
                    idsw += 1
                last_match[gid] = hid
            fn += n_g - len(matched)
            fp += n_h - len(matched)
            matches_total += len(matched)
            active = matched
            g0, h0, p0 = g0 + n_g, h0 + n_h, p1
    if gt_total == 0:
        raise UndefinedMetricError("MOTA undefined: ground truth holds no objects")
    mota = 1.0 - (fn + fp + idsw) / gt_total
    return MotSummary(mota=mota, false_positives=fp, false_negatives=fn,
                      id_switches=idsw, gt_total=gt_total,
                      matches=matches_total, threshold=threshold)


def idf1(gt, hyp, threshold: float = 2.0) -> IdSummary:
    """Identity scores from the globally optimal one-to-one id pairing.

    A (gt id, hyp id) pair gains one per frame in which the two are `in_gate`;
    the pairs come from one grouped `in_gate_by_frame` call per chunk of
    frames. The pairing maximises the summed gain over the overlapping
    pairs, one connected component of them at a time
    (`component_assignment`), so no gt x hyp gain matrix is built; a
    component spanning more than `tracker.MAX_CONTESTED_CELLS` cells raises
    InputError.
    """
    total_gt = total_hyp = 0
    pair_gid, pair_hid = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for gids, _, hids, _, (rows, cols, _) in _gated_chunks(gt, hyp, threshold):
        total_gt += len(gids)
        total_hyp += len(hids)
        pair_gid.append(gids.take(rows))
        pair_hid.append(hids.take(cols))
    # Ids as their ranks, and an overlapping pair as one integer key; the
    # keys sort as the (gt id, hyp id) pairs do.
    g_at = np.unique(np.concatenate(pair_gid), return_inverse=True)[1]
    h_ids, h_at = np.unique(np.concatenate(pair_hid), return_inverse=True)
    stride = max(len(h_ids), 1)
    overlap, counts = np.unique(g_at * stride + h_at, return_counts=True)
    matched = component_assignment(overlap // stride, overlap % stride, -counts,
                                   lambda shape: 0.0)
    idtp = int(counts[matched].sum())
    idfn = total_gt - idtp
    idfp = total_hyp - idtp
    denom = 2 * idtp + idfp + idfn
    score = (2 * idtp / denom) if denom else 0.0
    idp = idtp / total_hyp if total_hyp else 0.0
    idr = idtp / total_gt if total_gt else 0.0
    return IdSummary(idf1=score, idp=idp, idr=idr, idtp=idtp, idfp=idfp,
                     idfn=idfn, threshold=threshold)


def measure_latency(frames, baseline_cfg, dynamic_cfg,
                    warmup: int = 10) -> LatencyReport:
    """Per-frame wall time of both configurations on identical input.

    The two trackers step in lockstep, frame by frame, and take turns at
    going first, so a slow spell of the machine lands on both alike rather
    than on whichever pass it falls in. The means cover the frames after
    the first `warmup`, so there must be more frames than that. The report
    also keeps each tracker's per-frame reports, so a caller can score them
    instead of tracking the sequence again.
    """
    if warmup >= len(frames):
        raise InputError(f"warmup of {warmup} frames leaves none of the "
                         f"{len(frames)} frames to time")
    trackers = (MultiObjectTracker(baseline_cfg), MultiObjectTracker(dynamic_cfg))
    times, reports = ([], []), ([], [])
    for frame, detections in enumerate(frames):
        for k in ((0, 1), (1, 0))[frame % 2]:
            start = time.perf_counter()
            report = trackers[k].step(frame, detections)
            times[k].append((time.perf_counter() - start) * 1e3)
            reports[k].append(report)
    (baseline_ms, dynamic_ms), (baseline_reports, dynamic_reports) = times, reports
    mean_b = float(np.mean(baseline_ms[warmup:]))
    mean_d = float(np.mean(dynamic_ms[warmup:]))
    return LatencyReport(baseline_ms=baseline_ms, dynamic_ms=dynamic_ms,
                         mean_baseline_ms=mean_b, mean_dynamic_ms=mean_d,
                         mean_delta_ms=mean_d - mean_b, warmup=warmup,
                         baseline_reports=baseline_reports,
                         dynamic_reports=dynamic_reports)
