"""Tracking quality metrics: CLEAR-MOT counters, identity F1, latency."""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, UndefinedMetricError
from .kitti_io import as_labels, ground_position
from .tracker import (FrameReport, MultiObjectTracker, component_assignment,
                      distance, gated_pairs, in_gate)


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


def _frame_arrays(frame):
    """One frame as (ids, positions (n, 2)): from a `FrameReport`'s columns,
    from a list of (id, position) pairs, or from id-bearing KITTI labels."""
    if isinstance(frame, FrameReport):
        return frame.ids, frame.position
    if isinstance(frame, list) and frame and isinstance(frame[0], tuple):
        return (np.array([i for i, _ in frame], dtype=np.int64),
                np.array([p for _, p in frame], dtype=float).reshape(len(frame), 2))
    labels = as_labels(frame)
    return labels.track_id, ground_position(labels)


def _as_frames(gt, hyp):
    """Both inputs as per-frame (ids, positions) arrays, padded to one length."""
    frames = [[_frame_arrays(frame) for frame in obj] for obj in (gt, hyp)]
    n = max(map(len, frames))
    empty = _frame_arrays([])
    return [f + [empty] * (n - len(f)) for f in frames]


def clearmot(gt, hyp, threshold: float = 2.0) -> MotSummary:
    """CLEAR-MOT on center distance.

    Correspondences from the previous frame are kept while still within the
    threshold; the remainder is matched by min-distance assignment. A switch
    is counted when a ground-truth object's matched id changes relative to
    its last known correspondence.
    """
    fp = fn = idsw = gt_total = matches_total = 0
    active: dict = {}      # gt id -> hyp id carried from the previous frame
    last_match: dict = {}  # gt id -> most recent matched hyp id
    for (gids, gpos), (hids, hpos) in zip(*_as_frames(gt, hyp)):
        gids, hids = gids.tolist(), hids.tolist()
        gt_total += len(gids)
        hyp_row = {hid: k for k, hid in enumerate(hids)}  # last row of an id
        # Carry-over candidates: gt rows whose last hyp id is present again,
        # with every candidate's distance from one `distance` call.
        carried = [(g, hyp_row[active[gid]]) for g, gid in enumerate(gids)
                   if active.get(gid) in hyp_row]
        g_at, h_at = np.array(carried, dtype=np.intp).reshape(len(carried), 2).T
        near = (distance(gpos[g_at], hpos[h_at]) <= threshold).tolist()
        matched: dict = {}
        used = set()
        for g, k, inside in zip(g_at.tolist(), h_at.tolist(), near):
            if inside and hids[k] not in used:
                matched[gids[g]] = hids[k]
                used.add(hids[k])
        rest_gt = [g for g, gid in enumerate(gids) if gid not in matched]
        rest_hyp = [k for k, hid in enumerate(hids) if hid not in used]
        rows, cols = gated_pairs(gpos[rest_gt], hpos[rest_hyp], threshold)
        for r, c in zip(rows.tolist(), cols.tolist()):
            matched[gids[rest_gt[r]]] = hids[rest_hyp[c]]
        for gid, hid in matched.items():
            if gid in last_match and last_match[gid] != hid:
                idsw += 1
            last_match[gid] = hid
        fn += len(gids) - len(matched)
        fp += len(hids) - len(matched)
        matches_total += len(matched)
        active = matched
    if gt_total == 0:
        raise UndefinedMetricError("MOTA undefined: ground truth holds no objects")
    mota = 1.0 - (fn + fp + idsw) / gt_total
    return MotSummary(mota=mota, false_positives=fp, false_negatives=fn,
                      id_switches=idsw, gt_total=gt_total,
                      matches=matches_total, threshold=threshold)


def idf1(gt, hyp, threshold: float = 2.0) -> IdSummary:
    """Identity scores from the globally optimal one-to-one id pairing.

    A (gt id, hyp id) pair gains one per frame in which the two are `in_gate`.
    The pairing maximises the summed gain over the overlapping pairs, one
    connected component of them at a time (`component_assignment`), so no
    gt x hyp gain matrix is built; a component spanning more than
    `tracker.MAX_CONTESTED_CELLS` cells raises InputError.
    """
    gt_frames, hyp_frames = _as_frames(gt, hyp)
    total_gt = sum(len(gids) for gids, _ in gt_frames)
    total_hyp = sum(len(hids) for hids, _ in hyp_frames)
    pairs = [np.zeros((0, 2), dtype=np.int64)]
    for (gids, gpos), (hids, hpos) in zip(gt_frames, hyp_frames):
        rows, cols, _ = in_gate(gpos, hpos, threshold)
        pairs.append(np.column_stack((gids[rows], hids[cols])))
    overlap, counts = np.unique(np.concatenate(pairs), axis=0, return_counts=True)
    g_at = np.unique(overlap[:, 0], return_inverse=True)[1]
    h_at = np.unique(overlap[:, 1], return_inverse=True)[1]
    matched = component_assignment(g_at, h_at, -counts, lambda shape: 0.0)
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
