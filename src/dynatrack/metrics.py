"""Tracking quality metrics: CLEAR-MOT counters, identity F1, latency."""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .association import component_assignment, gated_candidates, in_gate
from .config import MATCH_DISTANCE
from .errors import ContractViolationError, InputError, UndefinedMetricError
from .kitti_io import as_labels, ground_position
from .tracker import FrameReport, MultiObjectTracker


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


def _frame_arrays(frame):
    """One frame as (ids, positions (n, 2)): from a `FrameReport`'s columns,
    from a list of (id, position) pairs, or from KITTI labels or records,
    whose ids are None when they have none (detections)."""
    if isinstance(frame, FrameReport):
        return frame.ids, frame.position
    if isinstance(frame, list) and frame and isinstance(frame[0], tuple):
        return (np.array([i for i, _ in frame], dtype=np.int64),
                np.array([p for _, p in frame], dtype=float).reshape(len(frame), 2))
    labels = as_labels(frame)
    return labels.track_id, ground_position(labels)


def _stacked(frames):
    """Frames stacked in order, as (ids, positions (N, 2)); the ids are None
    when any frame has none."""
    ids, positions = zip((np.zeros(0, dtype=np.int64), np.zeros((0, 2))),
                         *map(_frame_arrays, frames))
    return (None if any(i is None for i in ids) else np.concatenate(ids),
            np.concatenate(positions))


# Most rows of either side in one chunk of `frame_chunks`. A sequence gated a
# chunk at a time allocates what one chunk needs however long it is; one
# chunk of this many points takes a few milliseconds.
GATE_CHUNK_POINTS = 1 << 14


def frame_chunks(a_counts, b_counts) -> list:
    """Runs of whole frames, as slices in frame order, each holding at most
    GATE_CHUNK_POINTS rows of either side unless it is one frame; frame f
    has `a_counts[f]` and `b_counts[f]` rows."""
    a_end, b_end = np.cumsum(a_counts), np.cumsum(b_counts)
    chunks, f = [], 0
    while f < len(a_end):
        a0 = a_end[f - 1] if f else 0
        b0 = b_end[f - 1] if f else 0
        stop = max(f + 1, int(min(
            np.searchsorted(a_end, a0 + GATE_CHUNK_POINTS, side="right"),
            np.searchsorted(b_end, b0 + GATE_CHUNK_POINTS, side="right"))))
        chunks.append(slice(f, stop))
        f = stop
    return chunks


def gated_chunks(gt, hyp, threshold: float):
    """Both sequences, the shorter padded with empty frames to the length of
    the longer, a chunk of frames at a time (`frame_chunks`): the one place
    two sequences are aligned. Yields per chunk (gt ids, gt rows per frame,
    hyp ids, hyp rows per frame, (gt rows, hyp rows, distances)), the last
    holding each frame's `in_gate` pairs as rows of the chunk, rows
    ascending: one `in_gate` call grouped by frame, so no pair spans two
    frames. Hyp ids are None where the hypotheses have none; ground truth
    without track ids raises ContractViolationError."""
    gt, hyp = list(gt), list(hyp)
    g_counts, h_counts = (np.zeros(max(len(gt), len(hyp)), dtype=np.intp)
                          for _ in range(2))
    g_counts[:len(gt)] = [len(frame) for frame in gt]
    h_counts[:len(hyp)] = [len(frame) for frame in hyp]
    for frames in frame_chunks(g_counts, h_counts):
        (gids, gpos), (hids, hpos) = _stacked(gt[frames]), _stacked(hyp[frames])
        if gids is None:
            raise ContractViolationError("ground truth frames hold no track ids")
        label = np.arange(frames.stop - frames.start)
        groups = np.repeat(label, g_counts[frames]), np.repeat(label, h_counts[frames])
        yield gids, g_counts[frames], hids, h_counts[frames], in_gate(
            gpos, hpos, threshold, groups)


def _last_of_id(ids, counts):
    """Whether each row is the last of its id in its frame; frames hold
    `counts` rows each, in order."""
    frame = np.repeat(np.arange(len(counts)), counts)
    order = np.lexsort((ids, frame))
    last = np.ones(len(ids), dtype=bool)
    last[order[:-1]] = ((np.diff(frame.take(order)) != 0)
                        | (np.diff(ids.take(order)) != 0))
    return last


class _ClearMotCounts:
    """CLEAR-MOT counters on center distance, fed one `gated_chunks` chunk
    at a time.

    Correspondences from the previous frame are kept while still within the
    threshold; the remainder is matched by min-distance assignment. A switch
    is counted when a ground-truth object's matched id changes relative to
    its last known correspondence. The frame loop keeps only the carry-over,
    which depends on the frame before, and the assignment of each frame's
    remaining pairs.
    """

    def __init__(self, threshold: float):
        self.threshold = threshold
        self.fp = self.fn = self.idsw = self.gt_total = self.matches = 0
        self.active: dict = {}      # gt id -> hyp id carried from the previous frame
        self.last_match: dict = {}  # gt id -> most recent matched hyp id

    def add(self, gids, g_counts, hids, h_counts, pairs):
        rows, cols, dist = pairs
        last_match = self.last_match
        self.gt_total += len(gids)
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
                if carries[k] and self.active.get(pair_gid[k]) == hid \
                        and hid not in used:
                    matched[pair_gid[k]] = hid
                    used.add(hid)
            rest = [k for k in range(p0, p1)
                    if pair_gid[k] not in matched and pair_hid[k] not in used]
            if rest:
                for j in gated_candidates(
                        np.array([rows[k] - g0 for k in rest]),
                        np.array([cols[k] - h0 for k in rest]),
                        np.array([dist[k] for k in rest]), self.threshold).tolist():
                    matched[pair_gid[rest[j]]] = pair_hid[rest[j]]
            for gid, hid in matched.items():
                if gid in last_match and last_match[gid] != hid:
                    self.idsw += 1
                last_match[gid] = hid
            self.fn += n_g - len(matched)
            self.fp += n_h - len(matched)
            self.matches += len(matched)
            self.active = matched
            g0, h0, p0 = g0 + n_g, h0 + n_h, p1

    def summary(self) -> MotSummary:
        if self.gt_total == 0:
            raise UndefinedMetricError("MOTA undefined: ground truth holds no objects")
        mota = 1.0 - (self.fn + self.fp + self.idsw) / self.gt_total
        return MotSummary(mota=mota, false_positives=self.fp,
                          false_negatives=self.fn, id_switches=self.idsw,
                          gt_total=self.gt_total, matches=self.matches,
                          threshold=self.threshold)


class _IdCounts:
    """Identity counters, fed one `gated_chunks` chunk at a time: each
    chunk's overlapping (gt id, hyp id) pairs, one per frame in which the
    two are in the gate, and the row totals of both sides."""

    def __init__(self, threshold: float):
        self.threshold = threshold
        self.total_gt = self.total_hyp = 0
        self.pair_gid = [np.zeros(0, dtype=np.int64)]
        self.pair_hid = [np.zeros(0, dtype=np.int64)]

    def add(self, gids, g_counts, hids, h_counts, pairs):
        rows, cols, _ = pairs
        self.total_gt += len(gids)
        self.total_hyp += len(hids)
        self.pair_gid.append(gids.take(rows))
        self.pair_hid.append(hids.take(cols))

    def summary(self) -> IdSummary:
        # Ids as their ranks, and an overlapping pair as one integer key; the
        # keys sort as the (gt id, hyp id) pairs do.
        g_at = np.unique(np.concatenate(self.pair_gid), return_inverse=True)[1]
        h_ids, h_at = np.unique(np.concatenate(self.pair_hid), return_inverse=True)
        stride = max(len(h_ids), 1)
        overlap, counts = np.unique(g_at * stride + h_at, return_counts=True)
        matched = component_assignment(overlap // stride, overlap % stride,
                                       -counts, lambda shape: 0.0)
        total_gt, total_hyp = self.total_gt, self.total_hyp
        idtp = int(counts[matched].sum())
        idfn = total_gt - idtp
        idfp = total_hyp - idtp
        denom = 2 * idtp + idfp + idfn
        return IdSummary(idf1=(2 * idtp / denom) if denom else 0.0,
                         idp=idtp / total_hyp if total_hyp else 0.0,
                         idr=idtp / total_gt if total_gt else 0.0,
                         idtp=idtp, idfp=idfp, idfn=idfn,
                         threshold=self.threshold)


def _walk(gt, hyp, threshold: float, counters) -> tuple:
    """Feed every chunk of one `gated_chunks` walk to each counter in turn;
    their summaries, in order. Hypotheses without track ids raise
    ContractViolationError."""
    for chunk in gated_chunks(gt, hyp, threshold):
        if chunk[2] is None:
            raise ContractViolationError("hypothesis frames hold no track ids")
        for counter in counters:
            counter.add(*chunk)
    return tuple(counter.summary() for counter in counters)


def clearmot(gt, hyp, threshold: float = MATCH_DISTANCE) -> MotSummary:
    """CLEAR-MOT on center distance, counted by `_ClearMotCounts` over the
    in-gate pairs of `gated_chunks`, one grouped call per chunk of frames."""
    return _walk(gt, hyp, threshold, [_ClearMotCounts(threshold)])[0]


def idf1(gt, hyp, threshold: float = MATCH_DISTANCE) -> IdSummary:
    """Identity scores from the globally optimal one-to-one id pairing.

    A (gt id, hyp id) pair gains one per frame in which the two are `in_gate`;
    the pairs come from `gated_chunks`, one grouped call per chunk of
    frames. The pairing maximises the summed gain over the overlapping
    pairs, one connected component of them at a time
    (`component_assignment`), so no gt x hyp gain matrix is built; a
    component spanning more than `association.MAX_CONTESTED_CELLS` cells
    raises InputError.
    """
    return _walk(gt, hyp, threshold, [_IdCounts(threshold)])[0]


def score(gt, hyp,
          threshold: float = MATCH_DISTANCE) -> tuple[MotSummary, IdSummary]:
    """(`clearmot`, `idf1`) of the pair from one walk of `gated_chunks`, so
    each chunk is stacked and gated once for both scores. Errors are those
    of `clearmot` first, then those of `idf1`."""
    return _walk(gt, hyp, threshold,
                 [_ClearMotCounts(threshold), _IdCounts(threshold)])


def measure_latency(frames, baseline_cfg, dynamic_cfg,
                    warmup: int = 10) -> LatencyReport:
    """Per-frame wall time of both configurations on identical input.

    The two trackers step in lockstep, frame by frame, and take turns at
    going first, so a slow spell of the machine lands on both alike rather
    than on whichever pass it falls in. The means cover the frames after
    the first `warmup`, at least 0 and fewer than the frames. The report
    also keeps each tracker's per-frame reports, so a caller can score them
    instead of tracking the sequence again.
    """
    if warmup < 0:
        raise InputError(f"warmup must be >= 0, got {warmup}")
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
