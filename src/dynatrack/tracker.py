"""Tracking-by-detection with per-track adaptive transition weighting.

Every live track is one row of a `TrackBank`, so a frame is one predict
over all rows, one association, one update over the matched rows and one
weight refresh, whatever the number of tracks. A frame's detections come in
as `Detections` columns and its tracks go out as one `FrameReport`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import dynamics as dyn
from . import filtering as flt
from .config import RunConfig, min_support
from .errors import ContractViolationError

# Exponential smoothing factor applied to elevation/yaw/dims on each match.
AUX_SMOOTHING = 0.7

# Numeric detection fields a track reports, with the shape of one
# detection's value: smoothed over its matches, or passed on from the last
# match. The `obj_type` label is passed on too.
SMOOTHED = {"elevation": (), "yaw": (), "dims": (3,)}
PASSED = {"score": (), "bbox2d": (4,)}
NUMERIC = {"position": (flt.GROUND_AXES,), **SMOOTHED, **PASSED}
REPORTED = (*SMOOTHED, *PASSED, "obj_type")


# A report stores a status as its index here. A row's status follows from its
# counters: tentative while `hits < min_hits` (never reported), then coasting
# while `misses > 0` and confirmed otherwise.
STATUSES = ("tentative", "confirmed", "coasting")
TENTATIVE, CONFIRMED, COASTING = range(len(STATUSES))

# A trajectory row stores its source as its index here.
TRAJECTORY_SOURCES = ("measurement", "predicted", "updated")
MEASUREMENT, PREDICTED, UPDATED = range(len(TRAJECTORY_SOURCES))


@dataclass
class Assignment:
    """`associate`'s result as index arrays.

    `rows`/`cols` are the matched (track, detection) indices in ascending
    row order; the unmatched arrays are their ascending complements.
    """

    rows: np.ndarray
    cols: np.ndarray
    unmatched_tracks: np.ndarray
    unmatched_detections: np.ndarray

    @property
    def matches(self) -> np.ndarray:
        """The matched (track, detection) pairs as a (K, 2) array."""
        return np.column_stack((self.rows, self.cols))


def gated_assignment(dist: np.ndarray, gate: float):
    """Min-distance one-to-one pairing of a (rows, cols) distance matrix.

    This is the CLEAR-MOT matching step (Bernardin & Stiefelhagen, 2008):
    pairs farther apart than `gate` never match. Returns the matched
    (rows, cols) index arrays in row order.

    An out-of-gate pair costs more than any set of in-gate pairs can, so the
    solver first maximises the number of in-gate pairs, then minimises their
    summed distance. The penalty is sized to the matrix, not a fixed huge
    number, which would swallow small distance differences in rounding.
    """
    penalty = gate * min(dist.shape) + 1.0
    cost = np.where(dist <= gate, dist, penalty)
    rows, cols = linear_sum_assignment(cost)
    keep = dist[rows, cols] <= gate
    return rows[keep], cols[keep]


def distance(a: np.ndarray, b: np.ndarray):
    """Euclidean distance over the last axis, bitwise `np.linalg.norm(a - b, axis=-1)`;
    every gate decision uses it, so a pair at the gate is judged alike everywhere."""
    d = a - b
    return np.sqrt(np.add.reduce(d * d, axis=-1))


# `in_gate` widens its x window by this share of |x| + gate, far more than the
# rounding of x +- gate, so no pair the distance test keeps falls outside it.
X_WINDOW_MARGIN = 1e-9


def in_gate(a, b, gate: float):
    """Every pair of points `a (n, k)`, `b (m, k)` within `gate`, as (rows of a,
    rows of b, distances) with rows ascending. Only the points of b within
    +-gate in x of a point of a, found by binary search, get a distance."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        none = np.zeros(0, dtype=np.intp)
        return none, none, np.zeros(0)
    order = np.argsort(b[:, 0], kind="stable")
    bx = b[order, 0]
    ax = a[:, 0]
    reach = gate + X_WINDOW_MARGIN * (np.abs(ax) + gate)
    lo = np.searchsorted(bx, ax - reach, side="left")
    counts = np.searchsorted(bx, ax + reach, side="right") - lo
    rows = np.repeat(np.arange(len(a)), counts)
    # Candidate i of row r sits at sorted index lo[r] + (i - first[r]).
    first = np.cumsum(counts) - counts
    cols = order[np.arange(len(rows)) + np.repeat(lo - first, counts)]
    dist = distance(a[rows], b[cols])
    inside = dist <= gate
    return rows[inside], cols[inside], dist[inside]


def gated_pairs(a, b, gate: float):
    """`gated_assignment` of points `a (n, k)` to points `b (m, k)` by distance.

    Returns the matched (rows of a, rows of b) in ascending row order. An
    `in_gate` pair whose points have no other in-gate partner is matched
    directly; the others go to one `gated_assignment` over their rows and
    columns, so the n x m distance matrix is never built.

    The result equals `gated_assignment` on the full matrix: its objective,
    most in-gate pairs and then least summed distance, is a sum over the
    connected parts of the in-gate graph, and each part is either one lone
    pair or lies whole in the sub-block. Only exactly tied alternatives can
    come out differently.
    """
    rows, cols, dist = in_gate(a, b, gate)
    lone = ((np.bincount(rows, minlength=len(a))[rows] == 1)
            & (np.bincount(cols, minlength=len(b))[cols] == 1))
    if lone.all():
        return rows, cols
    shared = ~lone
    sub_rows, r_at = np.unique(rows[shared], return_inverse=True)
    sub_cols, c_at = np.unique(cols[shared], return_inverse=True)
    block = np.full((len(sub_rows), len(sub_cols)), np.inf)
    block[r_at, c_at] = dist[shared]
    r, c = gated_assignment(block, gate)
    rows = np.concatenate([rows[lone], sub_rows[r]])
    cols = np.concatenate([cols[lone], sub_cols[c]])
    by_row = np.argsort(rows, kind="stable")
    return rows[by_row], cols[by_row]


def associate(track_positions, detection_positions, gate: float) -> Assignment:
    """Min-distance one-to-one assignment; pairs beyond the gate never match."""
    rows, cols = gated_pairs(track_positions, detection_positions, gate)
    unmatched_t = np.ones(len(track_positions), dtype=bool)
    unmatched_t[rows] = False
    unmatched_d = np.ones(len(detection_positions), dtype=bool)
    unmatched_d[cols] = False
    return Assignment(rows, cols, np.flatnonzero(unmatched_t),
                      np.flatnonzero(unmatched_d))


@dataclass(frozen=True)
class Track:
    """A live track's identity, as `MultiObjectTracker.tracks` yields it."""

    track_id: int


class TrackIds:
    """Read-only view of the bank's live track ids as `Track`s, in row order."""

    def __init__(self, bank: "TrackBank"):
        self._bank = bank

    def __len__(self) -> int:
        return len(self._bank.ids)

    def __iter__(self):
        return map(Track, self._bank.ids.tolist())


class TrackBank:
    """Every live track's state as one row of stacked arrays.

    Filter: one filter per ground axis, `mean (N, axes, n)` and
    `cov (N, axes, n, n)` with n = model_order + 1, and the smoothed
    `weights (N, axes, 4)`, whose first n columns predict applies (exact
    ones from birth until the window supports an estimate, and always with
    dynamics off). Dynamics: `window`, one cleaned-position buffer per row,
    and the raw weight rings `ring (N, smoothing_window, axes, 4)`. Lifecycle:
    `ids` and the `hits` and `misses` counters, from which a row's status
    follows. With dynamics on, the window's fill
    `min(hits, transition_window)` and the ring's fill and next slot follow
    from `hits` too. Reported: `elevation`, `yaw` and `dims (N, 3)`,
    smoothed over the matches, and `score`, `bbox2d (N, 4)` and the
    `obj_type` labels (an object array) of the last match.
    """

    FIELDS = ("ids", "mean", "cov", "weights", "ring", "hits",
              "misses") + REPORTED

    def __init__(self, n: int, window: int, smoothing: int):
        weights = (flt.GROUND_AXES, dyn.WEIGHT_COLUMNS)
        self.window = dyn.DynamicsWindow(window, flt.GROUND_AXES)
        self.ids = np.zeros(0, dtype=np.int64)
        self.mean = np.zeros((0, flt.GROUND_AXES, n))
        self.cov = np.zeros((0, flt.GROUND_AXES, n, n))
        self.weights = np.zeros((0,) + weights)
        self.ring = np.zeros((0, smoothing) + weights)
        self.hits = np.zeros(0, dtype=np.intp)
        self.misses = np.zeros(0, dtype=np.intp)
        for name, shape in {**SMOOTHED, **PASSED}.items():
            setattr(self, name, np.zeros((0,) + shape))
        self.obj_type = np.zeros(0, dtype=object)

    def __len__(self) -> int:
        return len(self.ids)

    def rebuild(self, keep: np.ndarray, born: dict):
        """Keep the rows where `keep` is true, then add the `born` rows after
        them; `born` holds an array for every field and the birth `position`s."""
        for name in self.FIELDS:
            setattr(self, name,
                    np.concatenate([getattr(self, name)[keep], born[name]]))
        self.window.rebuild(keep, born["position"])


@dataclass(eq=False)
class Detections:
    """One frame's detections as columns, one row per detection.

    `position (M, 2)` is on the ground plane; `elevation`, `yaw` and
    `dims (M, 3)` are smoothed by the track a row matches; `score`,
    `bbox2d (M, 4)` and the `obj_type` labels are passed on to it.
    """

    position: np.ndarray
    elevation: np.ndarray
    yaw: np.ndarray
    dims: np.ndarray
    score: np.ndarray
    bbox2d: np.ndarray
    obj_type: np.ndarray


@dataclass
class TrackSnapshot:
    """One row of a `FrameReport`, built when the report is iterated."""

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


@dataclass(eq=False)
class FrameReport:
    """The confirmed and coasting tracks after one step, as columns.

    Rows are in bank order, which is ascending id. `status` holds indices
    into STATUSES; the REPORTED columns are shaped as in `Detections`.
    """

    frame: int
    ids: np.ndarray
    position: np.ndarray
    status: np.ndarray
    elevation: np.ndarray
    yaw: np.ndarray
    dims: np.ndarray
    score: np.ndarray
    bbox2d: np.ndarray
    obj_type: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        """One `TrackSnapshot` per row."""
        for k, (i, e, y, d, s, c, o, b) in enumerate(zip(
                self.ids.tolist(), self.elevation.tolist(), self.yaw.tolist(),
                self.dims.tolist(), self.score.tolist(), self.status.tolist(),
                self.obj_type.tolist(), self.bbox2d.tolist())):
            yield TrackSnapshot(self.frame, i, self.position[k], e, y, tuple(d),
                                s, STATUSES[c], o, tuple(b))


def _detection_columns(detections: Detections) -> dict:
    """The columns of `detections`, checked before any use.

    Every column has one row per position row. A numeric column that is not
    numbers, has the wrong shape or holds a non-finite value raises
    ContractViolationError.
    """
    if not isinstance(detections, Detections):
        raise ContractViolationError(
            f"detections must be Detections, got {type(detections).__name__}")
    rows = np.shape(detections.position)[:1]
    columns = {"obj_type": np.asarray(detections.obj_type, dtype=object)}
    for name, shape in NUMERIC.items():
        try:
            columns[name] = np.asarray(getattr(detections, name), dtype=float)
        except (TypeError, ValueError) as exc:
            raise ContractViolationError(
                f"detection {name} column is not numeric: {exc}") from None
    for name, column in columns.items():
        expected = rows + NUMERIC.get(name, ())
        if column.shape != expected:
            raise ContractViolationError(
                f"detection {name} column has shape {column.shape}, expected {expected}")
        if name in NUMERIC:
            finite = np.isfinite(column).all(axis=tuple(range(1, column.ndim)))
            if not finite.all():
                i = int(np.argmin(finite))
                raise ContractViolationError(
                    f"detection {i} has a non-finite {name} {column[i].tolist()}")
    return columns


class MultiObjectTracker:
    """Frame-stepped tracker; one instance per sequence.

    Track state lives in `bank`, one row per live track; `tracks` is a view
    of the live tracks' identities in row order. A track is born at an
    unmatched detection, reported from its `min_hits`-th match on, and
    dropped at a miss before then or at its `max_misses + 1`-th miss in a
    row. With `record_trajectories`,
    `trajectory` gets one `(frame, ids, positions (n, 2), sources)` entry per
    step: the predicted position of every track, and the measured and
    updated positions of every matched or born one, with `sources` indexing
    TRAJECTORY_SOURCES.
    """

    def __init__(self, cfg: RunConfig, record_trajectories: bool = False):
        self.cfg = cfg
        order = cfg.model_order
        self._order = order
        self._F = flt.transition_block(order, cfg.dt)
        self._noise = flt.build_noise(order, cfg.dt, cfg.process_noise,
                                      cfg.measurement_noise)
        self._factors = dyn.dynamics_factors(
            cfg.factor_velocity, cfg.factor_acceleration, cfg.factor_jerk)
        self.bank = TrackBank(order + 1, cfg.transition_window,
                              cfg.smoothing_window)
        self.frame: int | None = None
        self.births = 0    # tracks started so far; the next id is births + 1
        self.trajectory: list[tuple] = []
        self._record = record_trajectories

    @property
    def tracks(self) -> TrackIds:
        return TrackIds(self.bank)

    # -- per-frame stages over bank rows -----------------------------------

    def _refresh_weights(self, rows: np.ndarray):
        """Push each row's raw weights into its ring and re-smooth.

        A refresh runs once per match, after the match's position is pushed
        and before `_apply_matches` counts it in `hits`. So this is a row's
        `hits`-th refresh: its window holds `min(hits + 1, transition_window)`
        positions, its ring slot is `(hits - 1) % size` and the ring's fill
        `min(hits, size)`. Rows whose window is still below support take
        exact ones; the others are stacked by window fill, one
        dynamics-vector call per fill level.
        """
        bank = self.bank
        hits = bank.hits[rows]
        fill = np.minimum(hits + 1, bank.window.positions.shape[1])
        raw = np.ones((len(rows),) + bank.weights.shape[1:])
        for n in np.unique(fill[fill >= min_support(self._order)]).tolist():
            group = fill == n
            stack = bank.window.positions[rows[group], :n]
            raw[group] = dyn.update_weights(dyn.dynamics_vectors(stack),
                                            self._factors)
        size = bank.ring.shape[1]
        bank.ring[rows, (hits - 1) % size] = raw
        filled = np.minimum(hits, size)
        # Unfilled slots are zero, so the full-ring sum is the sum of the
        # filled rows; dividing by the fill count gives their mean.
        bank.weights[rows] = bank.ring[rows].sum(axis=1) / filled[:, None, None]

    def _apply_matches(self, rows: np.ndarray, matched: dict):
        bank = self.bank
        a = AUX_SMOOTHING
        for name in SMOOTHED:
            column = getattr(bank, name)
            column[rows] = a * matched[name] + (1.0 - a) * column[rows]
        for name in (*PASSED, "obj_type"):
            getattr(bank, name)[rows] = matched[name]
        bank.hits[rows] += 1
        bank.misses[rows] = 0

    def _born_rows(self, born: dict) -> dict:
        """Bank rows, as `TrackBank.rebuild` takes them, for the tracks the
        `born` detection columns start; their ids follow the last one given."""
        cfg = self.cfg
        z = born["position"]
        k = len(z)
        est = flt.initial_estimate(z, cfg.model_order, cfg.measurement_noise)
        return dict(
            ids=np.arange(self.births + 1, self.births + 1 + k),
            mean=est.mean, cov=est.cov,
            weights=np.ones((k,) + self.bank.weights.shape[1:]),
            ring=np.zeros((k,) + self.bank.ring.shape[1:]),
            hits=np.ones(k, dtype=np.intp),
            misses=np.zeros(k, dtype=np.intp),
            **{name: born[name] for name in ("position", *REPORTED)},
        )

    def _report(self, frame: int) -> FrameReport:
        bank = self.bank
        shown = np.flatnonzero(bank.hits >= self.cfg.min_hits)
        status = np.where(bank.misses[shown] > 0, COASTING, CONFIRMED)
        return FrameReport(frame, bank.ids[shown],
                           bank.mean[shown, :, 0],
                           status.astype(np.int8),
                           **{name: getattr(bank, name)[shown] for name in REPORTED})

    # -- main loop ---------------------------------------------------------

    def step(self, frame: int, detections: Detections) -> FrameReport:
        """Advance one frame; returns the report of confirmed and coasting tracks.

        A malformed or non-finite detection column, or an innovation variance
        that is not finite and positive (named by its bank row), raises
        before anything changes: detections are checked and the whole
        predict and update computed before the bank is written.
        """
        if self.frame is not None and frame <= self.frame:
            raise ContractViolationError(
                f"frame {frame} does not advance past frame {self.frame}")
        columns = _detection_columns(detections)
        z = columns["position"]
        bank = self.bank
        pred = flt.predict(flt.StateEstimate(bank.mean, bank.cov), self._F,
                           dyn.weight_diagonal(bank.weights, self._order),
                           self._noise)
        predicted = pred.mean[..., 0]
        assignment = associate(predicted, z, self.cfg.gate_distance)
        rows, cols = assignment.rows, assignment.cols
        post, K, residual = flt.update(
            flt.StateEstimate(pred.mean[rows], pred.cov[rows]), z[cols],
            self._noise, labels=rows)
        born = assignment.unmatched_detections

        self.frame = frame
        if self._record:
            matched = bank.ids[rows]
            self.trajectory.append((
                frame,
                np.concatenate([bank.ids, matched, matched,
                                np.arange(self.births + 1,
                                          self.births + 1 + len(born))]),
                np.concatenate([predicted, z[cols], post.mean[..., 0],
                                z[born]]),
                np.repeat(np.array([PREDICTED, MEASUREMENT, UPDATED, MEASUREMENT],
                                   dtype=np.int8),
                          [len(bank), len(rows), len(rows), len(born)])))
        pred.mean[rows] = post.mean
        pred.cov[rows] = post.cov
        bank.mean, bank.cov = pred.mean, pred.cov
        if self.cfg.dynamics_enabled and len(rows):
            cleaned = flt.post_measurement(z[cols], K, residual)
            bank.window.push(rows, cleaned, bank.hits[rows])
            self._refresh_weights(rows)
        self._apply_matches(rows, {name: columns[name][cols] for name in REPORTED})
        # A miss ends a tentative track and a track past `max_misses`.
        bank.misses[assignment.unmatched_tracks] += 1
        keep = (bank.misses == 0) | ((bank.hits >= self.cfg.min_hits)
                                     & (bank.misses <= self.cfg.max_misses))
        if len(born) or not keep.all():
            bank.rebuild(keep, self._born_rows(
                {name: column[born] for name, column in columns.items()}))
            self.births += len(born)
        return self._report(frame)

    def run(self, frames) -> list:
        """Track a whole sequence of `Detections`; returns per-frame reports."""
        return [self.step(i, dets) for i, dets in enumerate(frames)]
