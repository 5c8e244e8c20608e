"""Shared fixtures: detection factories, reference implementations, checks."""
import csv
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.linalg

import dynatrack
from dynatrack import association as asc
from dynatrack import dynamics, kitti_io
from dynatrack.association import associate
from dynatrack.config import RunConfig
from dynatrack.errors import (ConfigurationError, ContractViolationError,
                              InsufficientDataError, ParseError)
from dynatrack.filtering import NoiseModel, StateEstimate
from dynatrack.kitti_io import TRAJECTORY_HEADER, TRAJECTORY_SOURCES
from dynatrack.occlusion import occlusion_cut
from dynatrack.synth import ObjectSpec
from dynatrack.tracker import Detections, MultiObjectTracker

DETECTION_DEFAULTS = dict(elevation=1.5, yaw=0.0, dims=(1.5, 1.8, 4.2),
                          score=0.9, bbox2d=(0.0, 0.0, 80.0, 40.0))


def detections(points=(), obj_type="Car", **fields):
    """One frame's `Detections` at `points` [(x, y), ...]; every detection
    takes the value of each other field from `fields` or the defaults."""
    position = np.array(points, dtype=float).reshape(-1, 2)
    rows = len(position)
    columns = {name: np.repeat(np.asarray(value, dtype=float)[None], rows, axis=0)
               for name, value in {**DETECTION_DEFAULTS, **fields}.items()}
    return Detections(position=position,
                      obj_type=np.array([obj_type] * rows, dtype=object), **columns)


def frames_from_positions(per_frame):
    """[[(x, y), ...], ...] -> per-frame `Detections`."""
    return [detections(frame) for frame in per_frame]


def single_target_config(**overrides):
    """Config that confirms instantly and never gates out or drops the target."""
    base = dict(min_hits=1, gate_distance=1e6, max_misses=10 ** 6)
    base.update(overrides)
    return RunConfig(**base)


def run_single_target(positions, cfg, gaps=()):
    """Track one object through a position list; gaps are frames with no detection.

    Returns the tracker (trajectory recording on) after the full run.
    """
    gaps = set(gaps)
    tracker = MultiObjectTracker(cfg, record_trajectories=True)
    for frame, pos in enumerate(positions):
        tracker.step(frame, detections([] if frame in gaps else [pos]))
    return tracker


def trajectory_by_source(tracker, source):
    """{frame: (x, y)} for one trajectory source of a single-target run."""
    code = TRAJECTORY_SOURCES.index(source)
    return {frame: tuple(xy[k].tolist())
            for frame, _, xy, sources in tracker.trajectory
            for k in np.flatnonzero(sources == code)}


def validate_estimate(est, tol=1e-9):
    """Check that each covariance block of `est.cov (..., n, n)` is symmetric
    with an eigenvalue floor scaled by its trace."""
    for cov in np.reshape(est.cov, (-1,) + np.shape(est.cov)[-2:]):
        scale = max(np.abs(cov).max(), 1.0)
        if not np.allclose(cov, cov.T, atol=tol * scale):
            return False
        eigvals = np.linalg.eigvalsh(0.5 * (cov + cov.T))
        floor = -tol * max(np.trace(cov), 0.0) - tol
        if eigvals.min() < floor:
            return False
    return True


# -- reference filter: one dense state over both axes per call ---------------
# The per-track loop's arithmetic from before the bank ran one filter per axis.

def pack(P):
    """The unique entries `P[..., I, J]` of symmetric blocks (..., n, n), in
    the filter's row-major upper-triangle order."""
    return P[(...,) + np.triu_indices(P.shape[-1])]


def unpack(packed):
    """Packed blocks (..., U) as full symmetric blocks (..., n, n)."""
    packed = np.asarray(packed, dtype=float)
    n = (math.isqrt(8 * packed.shape[-1] + 1) - 1) // 2
    I, J = np.triu_indices(n)
    full = np.empty(packed.shape[:-1] + (n, n))
    full[..., I, J] = packed
    full[..., J, I] = packed
    return full


def dense_model(F, noise, axes=2):
    """The per-axis transition and packed noise as one dense model over the
    stacked state [axis 0 block, axis 1 block, ...], with the
    position-selecting `H`."""
    n = F.shape[0]
    H = np.zeros((axes, axes * n))
    H[range(axes), range(0, axes * n, n)] = 1.0
    return (scipy.linalg.block_diag(*[F] * axes),
            NoiseModel(Q=scipy.linalg.block_diag(*[unpack(noise.Q)] * axes),
                       R=noise.R * np.eye(axes)), H)


def dense_state(mean, cov):
    """One per-axis state `mean (axes, n)`, packed `cov (axes, U)` as a dense
    one."""
    return StateEstimate(mean=np.ravel(mean),
                         cov=scipy.linalg.block_diag(*unpack(cov)))


def reference_predict(est, F, weights, noise):
    """Weighted predict of one dense state (`noise.Q` dense too); `weights` is
    its diagonal or None."""
    F = F if weights is None else F * np.asarray(weights, dtype=float)
    cov = F @ est.cov @ F.T + noise.Q
    return StateEstimate(mean=F @ est.mean, cov=0.5 * (cov + cov.T))


def reference_update(pred, z, noise, H):
    """Joseph-form update of one state, gain by Cholesky; returns (posterior,
    gain, residual)."""
    residual = z - H @ pred.mean
    PHt = pred.cov @ H.T
    S = H @ PHt + noise.R
    L = np.linalg.cholesky(0.5 * (S + S.T))
    K = scipy.linalg.cho_solve((L, True), PHt.T, check_finite=False).T
    A = np.eye(pred.mean.shape[0]) - K @ H
    cov = A @ pred.cov @ A.T + K @ noise.R @ K.T
    return (StateEstimate(mean=pred.mean + K @ residual, cov=0.5 * (cov + cov.T)),
            K, residual)


def smooth_weights(history, window):
    """Mean of the most recent `window` raw weight vectors."""
    if window < 1:
        raise ConfigurationError(
            f"config key 'smoothing_window': must be >= 1, got {window}")
    stack = np.asarray(list(history)[-window:], dtype=float)
    if stack.shape[0] == 0:
        raise InsufficientDataError("weight history is empty")
    return stack.mean(axis=0)


# -- reference track lifecycle: an explicit state machine per object ----------

LIFECYCLE_STATUSES = ("tentative", "confirmed", "coasting", "dead")
TENTATIVE, CONFIRMED, COASTING, DEAD = range(len(LIFECYCLE_STATUSES))


def reference_lifecycle(seen, min_hits, max_misses):
    """Per frame, the reported (ids, status names) and the births so far.

    `seen[frame][k]` says whether object k is detected that frame. Objects
    are far enough apart that a detection only ever matches its own object's
    track. A track is born tentative (confirmed when `min_hits` is 1),
    confirmed at its `min_hits`-th match, and dies at a miss while tentative
    or at its `max_misses + 1`-th miss in a row; a coasting track that
    matches is confirmed again. A dead track's object starts a new track,
    with a new id, at its next detection.
    """
    tracks = {}   # object -> [id, status, hits, misses]
    births = 0
    steps = []
    for flags in seen:
        for obj, detected in enumerate(flags):
            track = tracks.get(obj)
            if track is None:
                if detected:
                    births += 1
                    tracks[obj] = [births,
                                   CONFIRMED if min_hits <= 1 else TENTATIVE, 1, 0]
                continue
            if detected:
                track[2] += 1
                track[3] = 0
                if track[1] == COASTING or (track[1] == TENTATIVE
                                            and track[2] >= min_hits):
                    track[1] = CONFIRMED
            else:
                track[3] += 1
                track[1] = (DEAD if track[1] == TENTATIVE or track[3] > max_misses
                            else COASTING)
            if track[1] == DEAD:
                del tracks[obj]
        shown = sorted((track_id, LIFECYCLE_STATUSES[status])
                       for track_id, status, _, _ in tracks.values()
                       if status in (CONFIRMED, COASTING))
        steps.append(([i for i, _ in shown], [s for _, s in shown], births))
    return steps


# -- reference gate ----------------------------------------------------------

def reference_in_gate(a, b, gate, groups=None):
    """`association.in_gate` with both x columns sorted stably, through numpy's
    wrappers. It returns the same pairs and distances; only the order of a
    row's pairs may differ, where x holds a tie."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        none = np.zeros(0, dtype=np.intp)
        return none, none, np.zeros(0)
    order = np.argsort(b[:, 0], kind="stable")
    bx = b[order, 0]
    by_x = np.argsort(a[:, 0], kind="stable")
    ax = a[by_x, 0]
    reach = gate + asc.X_WINDOW_MARGIN * (np.abs(ax) + gate)
    lo = np.empty(len(a), dtype=np.intp)
    counts = np.empty(len(a), dtype=np.intp)
    lo[by_x] = np.searchsorted(bx, ax - reach, side="left")
    counts[by_x] = np.searchsorted(bx, ax + reach, side="right")
    if groups is not None:
        order, lo, counts = asc._label_windows(order, lo, counts, *groups)
    counts -= lo
    rows = np.repeat(np.arange(len(a)), counts)
    first = np.cumsum(counts) - counts
    cols = order[np.arange(len(rows)) + np.repeat(lo - first, counts)]
    dist = asc.distance(a[rows], b[cols])
    inside = np.flatnonzero(dist <= gate)
    return rows[inside], cols[inside], dist[inside]


def pair_set(pairs):
    """`in_gate`'s (rows, cols, distances) sorted by (row, col): the pairs and
    distances its contract fixes, whatever the order of each row's pairs."""
    rows, cols, dist = pairs
    by_pair = np.lexsort((cols, rows))
    return rows.take(by_pair), cols.take(by_pair), dist.take(by_pair)


def row_permutation(rng, rows):
    """A permutation, drawn from `rng`, of pairs whose `rows` ascend that
    keeps them ascending: it reorders each row's pairs only."""
    order = rng.permutation(len(rows))
    return order.take(rows.take(order).argsort(kind="stable"))


def row_shuffled_in_gate(rng):
    """`association.in_gate` with each row's pairs put in an order drawn from
    `rng`: any order its contract allows."""
    in_gate = asc.in_gate

    def shuffled(a, b, gate, groups=None):
        rows, cols, dist = in_gate(a, b, gate, groups)
        order = row_permutation(rng, rows)
        return rows.take(order), cols.take(order), dist.take(order)
    return shuffled


def tied_grid_scene(rng, n_frames=12, side=6):
    """Gt/hyp frames of (id, position) pairs full of exact distance ties:
    up to 5 objects on a 0.5 m grid of side x side points, each standing
    still or stepping one point a frame. A frame may hold an object's gt
    id twice, a detection twice at one point, and clutter on the grid."""
    n_objects = int(rng.integers(1, 6))
    cells = rng.integers(0, side, (n_objects, 2))
    gt, hyp = [], []
    for frame in range(n_frames):
        step = rng.integers(-1, 2, cells.shape) * (rng.random((n_objects, 1)) < 0.3)
        cells = np.clip(cells + step, 0, side - 1)
        points = 0.5 * cells
        gts, hyps = [], []
        for obj, point in enumerate(points):
            gts.append((obj + 1, point))
            if rng.random() < 0.2:   # the same id again, here or a point away
                gts.append((obj + 1, point + 0.5 * rng.integers(-1, 2, 2)))
            if rng.random() < 0.85:
                hyps.append((101 + obj, point.copy()))
                if rng.random() < 0.3:
                    hyps.append((300 + 10 * frame + obj, point.copy()))
        for k in range(int(rng.integers(0, 3))):
            hyps.append((200 + 10 * frame + k, 0.5 * rng.integers(0, side, 2)))
        gt.append(gts)
        hyp.append(hyps)
    return gt, hyp


# -- reference metric implementations (exhaustive, tiny inputs only) --------

def _min_cost_pairs(dist, threshold):
    """Best one-to-one pairing by exhaustive search.

    Maximizes the number of within-threshold pairs, then minimizes their
    summed distance; mirrors a gated min-cost assignment.
    """
    n_g, n_h = dist.shape
    best_key, best_pairs = None, []
    if n_g <= n_h:
        choices = itertools.permutations(range(n_h), n_g)
        make = lambda perm: [(r, c) for r, c in enumerate(perm)
                             if dist[r, c] <= threshold]
    else:
        choices = itertools.permutations(range(n_g), n_h)
        make = lambda perm: [(r, c) for c, r in enumerate(perm)
                             if dist[r, c] <= threshold]
    for perm in choices:
        pairs = make(perm)
        key = (-len(pairs), sum(dist[r, c] for r, c in pairs))
        if best_key is None or key < best_key:
            best_key, best_pairs = key, pairs
    return best_pairs


def reference_clearmot(gt_frames, hyp_frames, threshold=2.0):
    """CLEAR-MOT counters with the assignment step done by brute force.

    Frames are [(id, position), ...] lists. Returns a dict of counters.
    """
    n = max(len(gt_frames), len(hyp_frames))
    gt_frames = list(gt_frames) + [[]] * (n - len(gt_frames))
    hyp_frames = list(hyp_frames) + [[]] * (n - len(hyp_frames))
    fp = fn = idsw = gt_total = matches_total = 0
    active = {}
    last_match = {}
    for gts, hyps in zip(gt_frames, hyp_frames):
        gt_total += len(gts)
        hyp_pos = {hid: np.asarray(pos, dtype=float) for hid, pos in hyps}
        matched = {}
        used = set()
        for gid, gpos in gts:
            hid = active.get(gid)
            if hid is not None and hid in hyp_pos and hid not in used:
                if np.linalg.norm(np.asarray(gpos) - hyp_pos[hid]) <= threshold:
                    matched[gid] = hid
                    used.add(hid)
        rest_gt = [(gid, np.asarray(gpos, dtype=float))
                   for gid, gpos in gts if gid not in matched]
        rest_hyp = [(hid, pos) for hid, pos in hyps if hid not in used]
        if rest_gt and rest_hyp:
            dist = np.array([[float(np.linalg.norm(gpos - hpos))
                              for _, hpos in rest_hyp]
                             for _, gpos in rest_gt])
            for r, c in _min_cost_pairs(dist, threshold):
                matched[rest_gt[r][0]] = rest_hyp[c][0]
        for gid, hid in matched.items():
            if gid in last_match and last_match[gid] != hid:
                idsw += 1
            last_match[gid] = hid
        fn += len(gts) - len(matched)
        fp += len(hyps) - len(matched)
        matches_total += len(matched)
        active = matched
    mota = 1.0 - (fn + fp + idsw) / gt_total
    return dict(mota=mota, false_positives=fp, false_negatives=fn,
                id_switches=idsw, gt_total=gt_total, matches=matches_total)


def reference_idf1(gt_frames, hyp_frames, threshold=2.0):
    """Identity F1 with the global id pairing enumerated exhaustively."""
    n = max(len(gt_frames), len(hyp_frames))
    gt_frames = list(gt_frames) + [[]] * (n - len(gt_frames))
    hyp_frames = list(hyp_frames) + [[]] * (n - len(hyp_frames))
    gt_count, hyp_count, overlap = {}, {}, {}
    for gts, hyps in zip(gt_frames, hyp_frames):
        for gid, _ in gts:
            gt_count[gid] = gt_count.get(gid, 0) + 1
        for hid, _ in hyps:
            hyp_count[hid] = hyp_count.get(hid, 0) + 1
        for gid, gpos in gts:
            for hid, hpos in hyps:
                d = np.linalg.norm(np.asarray(gpos, dtype=float)
                                   - np.asarray(hpos, dtype=float))
                if d <= threshold:
                    overlap[(gid, hid)] = overlap.get((gid, hid), 0) + 1
    gt_ids = sorted(gt_count)
    hyp_ids = sorted(hyp_count)
    idtp = 0
    if gt_ids and hyp_ids:
        k = min(len(gt_ids), len(hyp_ids))
        for gsub in itertools.permutations(gt_ids, k):
            for hsub in itertools.permutations(hyp_ids, k):
                total = sum(overlap.get((g, h), 0) for g, h in zip(gsub, hsub))
                idtp = max(idtp, total)
    total_gt = sum(gt_count.values())
    total_hyp = sum(hyp_count.values())
    idfn = total_gt - idtp
    idfp = total_hyp - idtp
    denom = 2 * idtp + idfp + idfn
    return dict(idf1=(2 * idtp / denom) if denom else 0.0, idtp=idtp,
                idfp=idfp, idfn=idfn)


def random_tracking_scene(rng, n_objects=3, n_frames=10, drop=0.2,
                          spurious=0.3, jitter=0.5, threshold=2.0):
    """Random gt/hyp frame lists for metric cross-checks."""
    starts = rng.uniform(-20.0, 20.0, size=(n_objects, 2))
    vels = rng.uniform(-1.0, 1.0, size=(n_objects, 2))
    gt_frames, hyp_frames = [], []
    for frame in range(n_frames):
        gts, hyps = [], []
        for obj in range(n_objects):
            pos = starts[obj] + vels[obj] * frame
            gts.append((obj + 1, pos.copy()))
            if rng.random() >= drop:
                hyps.append((101 + obj, pos + rng.normal(0.0, jitter, size=2)))
        if rng.random() < spurious:
            hyps.append((200 + frame, rng.uniform(-30.0, 30.0, size=2)))
        gt_frames.append(gts)
        hyp_frames.append(hyps)
    return gt_frames, hyp_frames


def read_trajectory_csv(path):
    """Rows back as (frame, track_id, x, y, source) tuples."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if header != TRAJECTORY_HEADER:
            raise ParseError(f"{path}:1: unexpected trajectory header {header}")
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 5:
                raise ParseError(f"{path}:{line_no}: expected 5 columns, got {len(row)}")
            if row[4] not in TRAJECTORY_SOURCES:
                raise ParseError(f"{path}:{line_no}: column 5: unknown source {row[4]!r}")
            rows.append((int(row[0]), int(row[1]), float(row[2]),
                         float(row[3]), row[4]))
    return rows


def segment_frames(obj: ObjectSpec):
    """(kind, start, stop) frame ranges of an object's segments."""
    ranges = []
    start = 0
    for segment in obj.segments:
        ranges.append((segment.kind, start, start + segment.duration))
        start += segment.duration
    return ranges


# -- single-window dynamics and the algebraic clamp -------------------------

def _reference_finite_differences(positions):
    """First and second differences along the second-to-last axis."""
    z = np.asarray(positions, dtype=float)
    if z.shape[-2] < dynamics.MIN_WINDOW:
        raise InsufficientDataError(
            f"dynamics window holds {z.shape[-2]} positions, need {dynamics.MIN_WINDOW}")
    d1 = z[..., 1:, :] - z[..., :-1, :]
    d2 = d1[..., 1:, :] - d1[..., :-1, :]
    return d1, d2


def _reference_sample_std(series):
    """Sample standard deviation over the second-to-last axis (divisor n-1)."""
    n = series.shape[-2]
    if n < 2:
        return np.zeros(series.shape[:-2] + series.shape[-1:])
    mean = series.sum(axis=-2) / n
    dev = series - mean[..., None, :]
    return np.sqrt((dev * dev).sum(axis=-2) / (n - 1))


def reference_dynamics_vectors(stacks):
    """`dynamics.dynamics_vectors` reducing over the window axis where it
    lies, the middle axis of (batch, n, axes): the reference the time-major
    code must match bitwise."""
    z = np.asarray(stacks, dtype=float)
    if z.ndim != 3:
        raise ContractViolationError(
            f"expected a (batch, n, axes) stack, got shape {z.shape}")
    d1, d2 = _reference_finite_differences(z)
    d = np.empty((z.shape[0], z.shape[2], dynamics.WEIGHT_COLUMNS))
    d[:, :, 0] = 1.0
    d[:, :, 1] = _reference_sample_std(z)
    d[:, :, 2] = _reference_sample_std(d1)
    d[:, :, 3] = _reference_sample_std(d2)
    return d


def dynamics_vector(positions):
    """Per-axis [1, sigma_pos, sigma_vel, sigma_acc] of one window, (axes, 4),
    from the reference."""
    z = np.asarray(positions, dtype=float)
    if z.ndim != 2:
        raise ContractViolationError(
            f"expected an (n, axes) position array, got shape {z.shape}")
    return reference_dynamics_vectors(z[None])[0]


def clamped_weights_algebraic(d_norm):
    """Clamp written without branching: (1 + d - |1 - d|) / 2."""
    d_norm = np.asarray(d_norm, dtype=float)
    return 0.5 * (1.0 + d_norm - np.abs(1.0 - d_norm))


# -- records: the per-line parser, the per-record formatters ----------------

def _float_field(token, path, line_no, column):
    try:
        value = float(token)
    except ValueError:
        raise ParseError(
            f"{path}:{line_no}: column {column}: not a number: {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(
            f"{path}:{line_no}: column {column}: non-finite value: {token!r}")
    return value


def _int_field(token, path, line_no, column):
    try:
        value = int(token)
    except ValueError:
        raise ParseError(
            f"{path}:{line_no}: column {column}: not an integer: {token!r}") from None
    if not kitti_io.INT64.min <= value <= kitti_io.INT64.max:
        raise ParseError(
            f"{path}:{line_no}: column {column}: integer out of range: {token!r}")
    return value


def _shared_columns(tokens, offset, path, line_no):
    """The 15 columns type..rotation_y from token `offset`, in record order."""
    head = (tokens[offset],
            _float_field(tokens[offset + 1], path, line_no, offset + 2),
            _int_field(tokens[offset + 2], path, line_no, offset + 3),
            _float_field(tokens[offset + 3], path, line_no, offset + 4))
    f = [_float_field(tokens[i], path, line_no, i + 1)
         for i in range(offset + 4, offset + 15)]
    return head + (tuple(f[0:4]), tuple(f[4:7]), tuple(f[7:10]), f[10])


def reference_parse(path, kind):
    """The per-line parser: (per-frame records, per-frame raw lines).

    `kind` is "detections", "annotations" or "tracks". Each line is checked
    and converted field by field, left to right (a track line's score
    first), then its frame range; the first failure raises ParseError.
    """
    path = Path(path)
    n_fields = {"detections": kitti_io.DETECTION_FIELDS,
                "annotations": kitti_io.ANNOTATION_FIELDS,
                "tracks": kitti_io.TRACK_FIELDS}[kind]
    frames, raw = [], []
    for line_no, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) != n_fields:
            raise ParseError(
                f"{path}:{line_no}: expected {n_fields} fields, got {len(tokens)}")
        if kind == "detections":
            record = kitti_io.DetectionRecord(
                _int_field(tokens[0], path, line_no, 1),
                *_shared_columns(tokens, 1, path, line_no),
                _float_field(tokens[16], path, line_no, 17))
        else:
            score = (_float_field(tokens[17], path, line_no, 18)
                     if kind == "tracks" else 1.0)
            frame = _int_field(tokens[0], path, line_no, 1)
            track_id = _int_field(tokens[1], path, line_no, 2)
            record = kitti_io.GroundTruthRecord(
                frame, *_shared_columns(tokens, 2, path, line_no), score,
                track_id=track_id)
        if record.frame < 0:
            raise ParseError(f"{path}:{line_no}: column 1: negative frame index")
        if record.frame > kitti_io.MAX_FRAME:
            raise ParseError(f"{path}:{line_no}: column 1: frame index "
                             f"{record.frame} exceeds {kitti_io.MAX_FRAME}")
        while len(frames) <= record.frame:
            frames.append([])
            raw.append([])
        frames[record.frame].append(record)
        raw[record.frame].append(line)
    return frames, raw


def label_records(frames):
    """Parsed per-frame `Labels` rebuilt as records, one list per frame."""
    out = []
    for frame, labels in enumerate(frames):
        rows = zip(labels.obj_type.tolist(), labels.truncated.tolist(),
                   labels.occluded.tolist(), labels.alpha.tolist(),
                   labels.bbox2d.tolist(), labels.dims.tolist(),
                   labels.location.tolist(), labels.rotation_y.tolist(),
                   labels.score.tolist())
        records = [kitti_io.DetectionRecord(frame, t, tr, oc, al, tuple(bb),
                                            tuple(dm), tuple(loc), rot, sc)
                   for t, tr, oc, al, bb, dm, loc, rot, sc in rows]
        if labels.track_id is not None:
            records = [kitti_io.GroundTruthRecord(**vars(r), track_id=i)
                       for r, i in zip(records, labels.track_id.tolist())]
        out.append(records)
    return out


def record_position(record):
    """Ground-plane (lateral, longitudinal) of one record's camera location."""
    x, _, z = record.location
    return np.array([x, z])


def format_record(record, with_id, with_score):
    """One record as a label line: frame, the id if `with_id`, the fields."""
    numbers = [*record.bbox2d, *record.dims, *record.location, record.rotation_y]
    if with_score:
        numbers.append(record.score)
    head = [str(record.frame)] + ([str(record.track_id)] if with_id else [])
    return " ".join(head + [record.obj_type, f"{record.truncated:.9f}",
                            str(record.occluded), f"{record.alpha:.9f}",
                            *(f"{v:.9f}" for v in numbers)])


def reference_tracklets(det_frames, gt_frames, threshold):
    """Each gt id's matched detections as (frame, index) pairs in frame
    order: record frames matched one frame at a time by `associate` on
    ground positions, a frame's pairs in gt row order."""
    observations = {}
    for frame, (det_records, gt_records) in enumerate(zip(det_frames, gt_frames)):
        matched = associate([record_position(r) for r in gt_records],
                            [record_position(r) for r in det_records], threshold)
        for r, c in zip(matched.rows.tolist(), matched.cols.tolist()):
            observations.setdefault(gt_records[r].track_id, []).append((frame, c))
    return observations


def reference_occlude(det_path, gt_path, spec, out_path):
    """`occlude` on records: parse per line, match each frame by ground
    position (`reference_tracklets`), drop each eligible run and write the
    kept input lines. Returns {gt id: [occluded frames]}, ids ascending."""
    dets, det_raw = reference_parse(det_path, "detections")
    gts, _ = reference_parse(gt_path, "annotations")
    n = max(len(dets), len(gts))
    dets += [[]] * (n - len(dets))
    det_raw += [[]] * (n - len(det_raw))
    gts += [[]] * (n - len(gts))
    deleted, dropped = set(), {}
    tracklets = reference_tracklets(dets, gts, spec.match_threshold)
    for track_id, observations in sorted(tracklets.items()):
        cut = occlusion_cut(len(observations), spec)
        if cut is not None:
            deleted.update(observations[cut[0]:cut[1]])
            dropped[track_id] = [f for f, _ in observations[cut[0]:cut[1]]]
    lines = [line for frame, frame_lines in enumerate(det_raw)
             for j, line in enumerate(frame_lines) if (frame, j) not in deleted]
    Path(out_path).write_text("\n".join(lines) + ("\n" if lines else ""))
    return dropped


# -- reference writers: one record or one point per row ---------------------

def snapshot_record(snap) -> kitti_io.GroundTruthRecord:
    """A `TrackSnapshot` row as a writable track record."""
    return kitti_io.GroundTruthRecord(
        frame=snap.frame, track_id=snap.track_id, obj_type=snap.obj_type,
        truncated=0.0, occluded=0, alpha=0.0, bbox2d=tuple(snap.bbox2d),
        dims=tuple(snap.dims),
        location=kitti_io.camera_location(snap.position, snap.elevation),
        rotation_y=snap.yaw, score=snap.score)


def reference_write_tracks(reports, path):
    """Track file text: each report's rows as records, sorted by id, formatted."""
    lines = []
    for report in reports:
        records = sorted((snapshot_record(s) for s in report),
                         key=lambda r: r.track_id)
        lines.extend(format_record(r, with_id=True, with_score=True)
                     for r in records)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + ("\n" if lines else ""))


def reference_export_trajectory_csv(trajectory, path):
    """Trajectory CSV from one (frame, id, x, y, source) point per row, sorted."""
    points = [(frame, i, x, y, TRAJECTORY_SOURCES[s])
              for frame, ids, xy, sources in trajectory
              for i, (x, y), s in zip(ids.tolist(), xy.tolist(), sources.tolist())]
    ordered = sorted(points, key=lambda p: (p[0], p[1],
                                            TRAJECTORY_SOURCES.index(p[4])))
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRAJECTORY_HEADER)
        for frame, track_id, x, y, source in ordered:
            writer.writerow([frame, track_id, repr(x), repr(y), source])


# Source of `peak()`, a script's peak RSS so far in bytes, from Linux's VmHWM:
# a child's ru_maxrss starts at its parent's peak, so after a large test it
# would read no growth at all.
PEAK_RSS = """
def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) * 1024 for line in status
                    if line.startswith("VmHWM:"))
"""


def python_stdout(code: str, *args, **env) -> str:
    """stdout of `code` run by a new interpreter that imports this dynatrack,
    with `env` added to the environment; a non-zero exit raises."""
    source = Path(dynatrack.__file__).parent.parent
    path = os.pathsep.join(filter(None, [str(source), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": path, **env}).stdout
