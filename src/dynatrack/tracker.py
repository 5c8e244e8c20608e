"""Tracking-by-detection with per-track adaptive transition weighting."""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import dynamics as dyn
from . import filtering as flt
from .config import RunConfig
from .errors import ContractViolationError

# Cost placed on gated-out pairs; large enough that the solver always prefers
# any in-gate match over an out-of-gate one.
GATE_COST = 1e9

# Exponential smoothing factor applied to elevation/yaw/dims on each match.
AUX_SMOOTHING = 0.7


class TrackStatus(str, Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"
    COASTING = "coasting"
    DEAD = "dead"


@dataclass
class Assignment:
    matches: list          # (track_index, detection_index) pairs
    unmatched_tracks: list
    unmatched_detections: list


def gated_assignment(dist: np.ndarray, gate: float):
    """Min-distance one-to-one pairing of a (rows, cols) distance matrix.

    This is the CLEAR-MOT matching step (Bernardin & Stiefelhagen, 2008):
    pairs farther apart than `gate` never match. Returns the matched
    (rows, cols) index arrays in row order.
    """
    cost = np.where(dist <= gate, dist, GATE_COST)
    rows, cols = linear_sum_assignment(cost)
    keep = dist[rows, cols] <= gate
    return rows[keep], cols[keep]


def associate(track_positions, detection_positions, gate: float) -> Assignment:
    """Min-distance one-to-one assignment; pairs beyond the gate never match."""
    n_trk = len(track_positions)
    n_det = len(detection_positions)
    if n_trk == 0 or n_det == 0:
        return Assignment([], list(range(n_trk)), list(range(n_det)))
    tracks = np.asarray(track_positions, dtype=float)
    dets = np.asarray(detection_positions, dtype=float)
    dist = np.linalg.norm(tracks[:, None, :] - dets[None, :, :], axis=2)
    rows, cols = (a.tolist() for a in gated_assignment(dist, gate))
    matched_t = set(rows)
    matched_d = set(cols)
    unmatched_t = [i for i in range(n_trk) if i not in matched_t]
    unmatched_d = [j for j in range(n_det) if j not in matched_d]
    return Assignment(list(zip(rows, cols)), unmatched_t, unmatched_d)


@dataclass
class Track:
    track_id: int
    est: flt.StateEstimate
    window: dyn.DynamicsWindow
    weights: np.ndarray                # smoothed, shape (axes, 4)
    weight_diag: np.ndarray | None     # flattened for predict, None = identity
    raw_history: np.ndarray            # ring (smoothing_window, axes, 4)
    history_len: int
    history_idx: int
    hits: int
    misses: int
    status: TrackStatus
    elevation: float
    yaw: float
    dims: tuple
    score: float
    bbox2d: tuple
    obj_type: str
    predicted_position: np.ndarray | None = None


@dataclass
class TrackSnapshot:
    """Reported per-frame view of one live track."""

    frame: int
    track_id: int
    position: np.ndarray
    elevation: float
    yaw: float
    dims: tuple
    score: float
    status: str
    obj_type: str
    bbox2d: tuple


@dataclass
class TrajectoryPoint:
    frame: int
    track_id: int
    x: float
    y: float
    source: str


class MultiObjectTracker:
    """Frame-stepped tracker; one instance per sequence."""

    def __init__(self, cfg: RunConfig, record_trajectories: bool = False):
        self.cfg = cfg
        order = cfg.model_order
        self._order = order
        self._trans = flt.build_transition(order, cfg.dt)
        self._noise = flt.build_noise(order, cfg.dt, cfg.process_noise,
                                      cfg.measurement_noise)
        self._H = flt.measurement_matrix(order)
        self._pos_idx = list(flt.position_indices(order))
        self._factors = dyn.dynamics_factors(
            cfg.factor_velocity, cfg.factor_acceleration, cfg.factor_jerk)
        self._cold = dyn.cold_start_weights(cfg.cold_start_mode)
        self._cold_diag = dyn.weight_diagonal(self._cold, order)
        self._cold_is_identity = bool(np.all(self._cold == 1.0))
        # Weights are computed only once every consumed fluctuation series has
        # at least two samples; a single-sample sigma is definitionally zero
        # and would zero that derivative's weight regardless of its factor.
        self._min_support = max(dyn.MIN_WINDOW, order + 1)
        self.tracks: list[Track] = []
        self.frame: int | None = None
        self.births = 0    # tracks started so far; the next id is births + 1
        self.trajectory: list[TrajectoryPoint] = []
        self._record = record_trajectories

    # -- lifecycle helpers -------------------------------------------------

    def _new_track(self, meas: flt.Measurement) -> Track:
        cfg = self.cfg
        est = flt.initial_estimate(meas.position, cfg.model_order,
                                   cfg.measurement_noise)
        window = dyn.DynamicsWindow(cfg.transition_window)
        window.push(meas.position)
        track = Track(
            track_id=self.births + 1,
            est=est,
            window=window,
            weights=self._cold.copy(),
            weight_diag=None if self._cold_is_identity else self._cold_diag.copy(),
            raw_history=np.zeros((cfg.smoothing_window,) + self._cold.shape),
            history_len=0,
            history_idx=0,
            hits=1,
            misses=0,
            status=TrackStatus.CONFIRMED if cfg.min_hits <= 1 else TrackStatus.TENTATIVE,
            elevation=meas.elevation,
            yaw=meas.yaw,
            dims=meas.dims,
            score=meas.score,
            bbox2d=meas.bbox2d,
            obj_type=meas.obj_type,
        )
        self.births += 1
        return track

    def _refresh_weights(self, tracks: list):
        """Recompute raw weights from each window, smooth over the rings.

        Windows of equal fill are stacked so the dynamics vectors for a
        whole frame come out of one vectorized call per fill level, and the
        ring means for every refreshed track come out of one more.
        """
        by_count: dict[int, list] = {}
        ordered: list = []
        for track in tracks:
            if track.window.count >= self._min_support:
                by_count.setdefault(track.window.count, []).append(track)
            else:
                ordered.append(track)
                ring = track.raw_history
                ring[track.history_idx] = self._cold
                self._advance_ring(track)
        for group in by_count.values():
            stack = np.stack([t.window.as_array() for t in group])
            raws = dyn.update_weights(dyn.dynamics_vectors(stack), self._factors)
            for track, raw in zip(group, raws):
                ordered.append(track)
                track.raw_history[track.history_idx] = raw
                self._advance_ring(track)
        rings = np.stack([t.raw_history for t in ordered])
        lens = np.array([float(t.history_len) for t in ordered])
        # Unfilled slots are zero, so the full-ring sum is the sum of the
        # filled rows; dividing by the fill count gives their mean.
        smoothed = rings.sum(axis=1) / lens[:, None, None]
        # Clamped weights never exceed one, so a minimum of one means all one.
        saturated = smoothed.min(axis=(1, 2)) == 1.0
        for i, track in enumerate(ordered):
            track.weights = smoothed[i]
            track.weight_diag = None if saturated[i] \
                else dyn.weight_diagonal(smoothed[i], self._order)

    @staticmethod
    def _advance_ring(track: Track):
        ring = track.raw_history
        track.history_idx = (track.history_idx + 1) % ring.shape[0]
        if track.history_len < ring.shape[0]:
            track.history_len += 1

    def _apply_match(self, track: Track, meas: flt.Measurement, frame: int):
        est, K, residual = flt.update(track.est, meas.position, self._noise,
                                      self._H)
        track.est = est
        if self.cfg.dynamics_enabled:
            cleaned = flt.post_measurement(meas.position, K, residual, self._H)
            track.window.push(cleaned)
        a = AUX_SMOOTHING
        track.elevation = a * meas.elevation + (1.0 - a) * track.elevation
        track.yaw = a * meas.yaw + (1.0 - a) * track.yaw
        track.dims = tuple(a * m + (1.0 - a) * t
                           for m, t in zip(meas.dims, track.dims))
        track.score = meas.score
        track.bbox2d = meas.bbox2d
        track.obj_type = meas.obj_type
        track.hits += 1
        track.misses = 0
        if track.status is TrackStatus.TENTATIVE:
            if track.hits >= self.cfg.min_hits:
                track.status = TrackStatus.CONFIRMED
        elif track.status is TrackStatus.COASTING:
            track.status = TrackStatus.CONFIRMED
        if self._record:
            self.trajectory.append(TrajectoryPoint(
                frame, track.track_id, float(meas.position[0]),
                float(meas.position[1]), "measurement"))
            self.trajectory.append(TrajectoryPoint(
                frame, track.track_id, float(est.mean[self._pos_idx[0]]),
                float(est.mean[self._pos_idx[1]]), "updated"))

    def _apply_miss(self, track: Track):
        track.misses += 1
        if track.status is TrackStatus.TENTATIVE:
            track.status = TrackStatus.DEAD
            return
        track.status = TrackStatus.COASTING
        if track.misses > self.cfg.max_misses:
            track.status = TrackStatus.DEAD

    # -- main loop ---------------------------------------------------------

    def step(self, frame: int, detections) -> list:
        """Advance one frame; returns snapshots of confirmed and coasting tracks."""
        if self.frame is not None and frame <= self.frame:
            raise ContractViolationError(
                f"frame {frame} does not advance past frame {self.frame}")
        self.frame = frame

        use_weights = self.cfg.dynamics_enabled
        for track in self.tracks:
            weights = track.weight_diag if use_weights else None
            track.est = flt.predict(track.est, self._trans, weights, self._noise)
            track.predicted_position = track.est.mean[self._pos_idx]
            if self._record:
                self.trajectory.append(TrajectoryPoint(
                    frame, track.track_id, float(track.predicted_position[0]),
                    float(track.predicted_position[1]), "predicted"))

        det_positions = [m.position for m in detections]
        trk_positions = [t.predicted_position for t in self.tracks]
        assignment = associate(trk_positions, det_positions,
                               self.cfg.gate_distance)

        for ti, dj in assignment.matches:
            self._apply_match(self.tracks[ti], detections[dj], frame)
        if use_weights and assignment.matches:
            self._refresh_weights([self.tracks[ti]
                                   for ti, _ in assignment.matches])
        for ti in assignment.unmatched_tracks:
            self._apply_miss(self.tracks[ti])
        for dj in assignment.unmatched_detections:
            self.tracks.append(self._new_track(detections[dj]))
            if self._record:
                meas = detections[dj]
                self.trajectory.append(TrajectoryPoint(
                    frame, self.tracks[-1].track_id, float(meas.position[0]),
                    float(meas.position[1]), "measurement"))

        self.tracks = [t for t in self.tracks if t.status is not TrackStatus.DEAD]

        snapshots = []
        n = self.cfg.model_order + 1
        for track in self.tracks:
            if track.status in (TrackStatus.CONFIRMED, TrackStatus.COASTING):
                mean = track.est.mean
                snapshots.append(TrackSnapshot(
                    frame=frame,
                    track_id=track.track_id,
                    position=np.array([mean[0], mean[n]]),
                    elevation=track.elevation,
                    yaw=track.yaw,
                    dims=track.dims,
                    score=track.score,
                    status=track.status.value,
                    obj_type=track.obj_type,
                    bbox2d=track.bbox2d,
                ))
        return snapshots

    def run(self, frames) -> list:
        """Track a whole sequence; returns per-frame snapshot lists."""
        return [self.step(i, dets) for i, dets in enumerate(frames)]
