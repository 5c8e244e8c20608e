"""Tracking-by-detection with per-track adaptive transition weighting.

Every live track is one row of a `TrackBank`, so a frame is one predict
over all rows, one `associate` (see `association`), one update over the
matched rows and one weight refresh, whatever the number of tracks; its
detections come in as `Detections` and its tracks go out as one `FrameReport`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics as dyn
from . import filtering as flt
from .association import associate
from .config import RunConfig, min_support
from .errors import ContractViolationError, NumericalError

# Exponential smoothing factor applied to elevation/yaw/dims on each match.
AUX_SMOOTHING = 0.7

# Numeric detection fields a track reports, with the shape of one
# detection's value: smoothed over its matches, or passed on from the last
# match. The `obj_type` label is passed on too. A bank keeps them as columns
# of one float block; REPORTED holds each field's column, or run of columns.
SMOOTHED = {"elevation": (), "yaw": (), "dims": (3,)}
PASSED = {"score": (), "bbox2d": (4,)}
_FIELDS = {**SMOOTHED, **PASSED}
NUMERIC = {"position": (flt.GROUND_AXES,), **_FIELDS}
_ENDS = np.cumsum([math.prod(shape) for shape in _FIELDS.values()]).tolist()
REPORTED = {name: slice(end - math.prod(shape), end) if shape else end - 1
            for (name, shape), end in zip(_FIELDS.items(), _ENDS)}
SMOOTHED_WIDTH, REPORTED_WIDTH = _ENDS[len(SMOOTHED) - 1], _ENDS[-1]


# Rows of an array of two or more dimensions are gathered with
# `x.take(rows, axis=0)`, never `x[rows]` or `x[mask]`: numpy copies those
# through its generic advanced-index loop, which on these short rows costs
# several times a take (81 us against 11 us for 4,233 rows of a (1105, 2)
# array; 39 us against 19 us to select rows of a (1100, 2, 10) one). A mask
# that selects from several arrays becomes indices once, by `m.nonzero()[0]`,
# rather than once per array inside `compress`. 1-D arrays already take
# numpy's fast path, and scatters (`x[rows] = v`) keep plain indexing. At
# about 20 tracks a step is mostly fixed cost, so the hot path calls array
# methods (`x.argsort()`, `x.repeat()`), not numpy's Python-level wrappers.

# A report stores a status as its index here. A row's status follows from its
# counters: tentative while `hits < min_hits` (never reported), then coasting
# while `misses > 0` and confirmed otherwise.
STATUSES = ("tentative", "confirmed", "coasting")
TENTATIVE, CONFIRMED, COASTING = range(len(STATUSES))

# A trajectory row stores its source as its index here.
TRAJECTORY_SOURCES = ("measurement", "predicted", "updated")
MEASUREMENT, PREDICTED, UPDATED = range(len(TRAJECTORY_SOURCES))


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
    `cov (N, cov_axes, U)` with n = model_order + 1, each covariance
    packed as its U = n(n+1)/2 unique entries (see `filtering`): one per
    axis, or, with `cov_axes` 1, one that both axes share; and the smoothed
    `weights (N, axes, 4)`, whose first n columns predict applies (exact
    ones from birth until the window supports an estimate, and always with
    dynamics off, where the tracker predicts unweighted instead). Dynamics:
    `window`, one cleaned-position buffer of capacity `window` per row, and
    the raw weight rings `ring (N, smoothing, axes, 4)`; a tracker with
    dynamics off builds both at zero capacity, `(N, 0, axes)` and
    `(N, 0, axes, 4)`, as nothing reads them. Lifecycle:
    `ids` and the `hits` and `misses` counters, from which a row's status
    follows. With dynamics on, the window's fill
    `min(hits, transition_window)` and the ring's fill and next slot follow
    from `hits` too. Reported: one float block `reported (N, 10)` holding the
    REPORTED columns, so a match, a report and a rebuild each touch one
    array, and the `obj_type` labels (an object array) of the last match.
    """

    FIELDS = ("ids", "mean", "cov", "weights", "ring", "hits", "misses",
              "reported", "obj_type")

    def __init__(self, n: int, window: int, smoothing: int, cov_axes: int):
        weights = (flt.GROUND_AXES, dyn.WEIGHT_COLUMNS)
        self.window = dyn.DynamicsWindow(window, flt.GROUND_AXES)
        self.ids = np.zeros(0, dtype=np.int64)
        self.mean = np.zeros((0, flt.GROUND_AXES, n))
        self.cov = np.zeros((0, cov_axes, n * (n + 1) // 2))
        self.weights = np.zeros((0,) + weights)
        self.ring = np.zeros((0, smoothing) + weights)
        self.hits = np.zeros(0, dtype=np.intp)
        self.misses = np.zeros(0, dtype=np.intp)
        self.reported = np.zeros((0, REPORTED_WIDTH))
        self.obj_type = np.zeros(0, dtype=object)

    def __len__(self) -> int:
        return len(self.ids)

    def rebuild(self, keep: np.ndarray, born: dict):
        """Keep the rows where `keep` is true, then add the `born` rows after
        them; `born` holds an array for every field and the birth `position`s."""
        kept = keep.nonzero()[0]
        for name in self.FIELDS:
            setattr(self, name, np.concatenate(
                [getattr(self, name).take(kept, axis=0), born[name]]))
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
    into STATUSES; the REPORTED columns, views of one block, are shaped as in `Detections`.
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
    """The columns of `detections`, checked before any use: `position`,
    `reported`, the REPORTED columns as one block, and `obj_type`.

    Every column has one row per position row. A numeric column that is not
    numbers, has the wrong shape or holds a non-finite value raises
    ContractViolationError; shapes are checked first.
    """
    if not isinstance(detections, Detections):
        raise ContractViolationError(
            f"detections must be Detections, got {type(detections).__name__}")
    columns = {"obj_type": np.asarray(detections.obj_type, dtype=object)}
    for name in NUMERIC:
        try:
            columns[name] = np.asarray(getattr(detections, name), dtype=float)
        except (TypeError, ValueError) as exc:
            raise ContractViolationError(
                f"detection {name} column is not numeric: {exc}") from None
    rows = columns["position"].shape[:1]
    for name, column in columns.items():
        expected = rows + NUMERIC.get(name, ())
        if column.shape != expected:
            raise ContractViolationError(
                f"detection {name} column has shape {column.shape}, expected {expected}")
    reported = np.empty(rows + (REPORTED_WIDTH,))
    for name, at in REPORTED.items():
        reported[:, at] = columns[name]
    if not (np.isfinite(columns["position"]).all() and np.isfinite(reported).all()):
        name = next(name for name in NUMERIC if not np.isfinite(columns[name]).all())
        column = columns[name]
        i = int(np.isfinite(column.reshape(len(column), -1)).all(axis=1).argmin())
        raise ContractViolationError(
            f"detection {i} has a non-finite {name} {column[i].tolist()}")
    return {"position": columns["position"], "reported": reported,
            "obj_type": columns["obj_type"]}


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
        self._transition = flt.packed_transition(
            flt.transition_block(order, cfg.dt))
        self._noise = flt.build_noise(order, cfg.dt, cfg.process_noise,
                                      cfg.measurement_noise)
        self._factors = dyn.dynamics_factors(
            cfg.factor_velocity, cfg.factor_acceleration, cfg.factor_jerk)
        # With dynamics off nothing reads the window or the ring, so the bank
        # carries them at zero capacity. Both axes then share F, Q, R, the
        # birth covariance and the frames they are updated on, and the
        # covariance recursion never reads a measurement, so their
        # covariances are equal bit for bit and the bank keeps one.
        self.bank = (TrackBank(order + 1, cfg.transition_window, cfg.smoothing_window,
                               flt.GROUND_AXES)
                     if cfg.dynamics_enabled else TrackBank(order + 1, 0, 0, 1))
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
        exact ones. In the steady state every row's window has the same
        fill, and one dynamics-vector call serves them all; rows of mixed
        fills are stacked by fill, one call per fill level.
        """
        bank = self.bank
        hits = bank.hits[rows]
        positions = bank.window.positions
        fill = np.minimum(hits + 1, positions.shape[1])
        support = min_support(self._order)
        if fill.min() == fill.max() >= support:
            raw = dyn.update_weights(dyn.dynamics_vectors(
                positions.take(rows, axis=0)[:, :fill[0]]), self._factors)
        else:
            raw = np.ones((len(rows),) + bank.weights.shape[1:])
            for n in np.unique(fill[fill >= support]).tolist():
                group = fill == n
                stack = positions.take(rows[group], axis=0)[:, :n]
                raw[group] = dyn.update_weights(dyn.dynamics_vectors(stack),
                                                self._factors)
        size = bank.ring.shape[1]
        bank.ring[rows, (hits - 1) % size] = raw
        filled = np.minimum(hits, size)
        # Unfilled slots are zero, so the full-ring sum is the sum of the
        # filled rows; dividing by the fill count gives their mean. The sum
        # runs over the leading axis of a slot-major copy, so its inner loop
        # spans a slot of every row rather than one row's 8 entries.
        slots = np.ascontiguousarray(bank.ring.take(rows, axis=0).swapaxes(0, 1))
        bank.weights[rows] = slots.sum(axis=0) / filled[:, None, None]

    def _apply_matches(self, rows: np.ndarray, reported: np.ndarray, obj_type):
        """Count a match of `rows`, smoothing their matched `reported` rows in place."""
        bank = self.bank
        a = AUX_SMOOTHING
        previous = (1.0 - a) * bank.reported.take(rows, axis=0)[:, :SMOOTHED_WIDTH]
        reported[:, :SMOOTHED_WIDTH] = a * reported[:, :SMOOTHED_WIDTH] + previous
        bank.reported[rows] = reported
        bank.obj_type[rows] = obj_type
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
            mean=est.mean, cov=est.cov[:, :self.bank.cov.shape[1]],
            weights=np.ones((k,) + self.bank.weights.shape[1:]),
            ring=np.zeros((k,) + self.bank.ring.shape[1:]),
            hits=np.ones(k, dtype=np.intp),
            misses=np.zeros(k, dtype=np.intp),
            **born,
        )

    def _report(self, frame: int) -> FrameReport:
        bank = self.bank
        shown = (bank.hits >= self.cfg.min_hits).nonzero()[0]
        status = np.where(bank.misses[shown] > 0, COASTING, CONFIRMED)
        reported = bank.reported.take(shown, axis=0)
        return FrameReport(frame, bank.ids[shown],
                           bank.mean[..., 0].take(shown, axis=0),
                           status.astype(np.int8),
                           **{name: reported[:, at] for name, at in REPORTED.items()},
                           obj_type=bank.obj_type[shown])

    # -- main loop ---------------------------------------------------------

    def step(self, frame: int, detections: Detections) -> FrameReport:
        """Advance one frame; returns the report of confirmed and coasting tracks.

        Each of these raises before anything changes, since detections are
        checked and the whole predict, association and update computed
        before the bank is written:
        - a malformed or non-finite detection column (ContractViolationError);
        - a predicted state mean that is not finite (NumericalError naming
          the track ids);
        - a connected block of in-gate (track, detection) pairs spanning more
          than MAX_CONTESTED_CELLS cells (InputError, see `associate`);
        - an innovation variance that is not finite and positive
          (NumericalError naming the track id).
        """
        if self.frame is not None and frame <= self.frame:
            raise ContractViolationError(
                f"frame {frame} does not advance past frame {self.frame}")
        columns = _detection_columns(detections)
        z = columns["position"]
        bank = self.bank
        # With dynamics off every weight is exactly one, so predict runs
        # unweighted, which gives the same bits without the rescaling.
        weights = (dyn.weight_diagonal(bank.weights, self._order)
                   if self.cfg.dynamics_enabled else None)
        pred = flt.predict(flt.StateEstimate(bank.mean, bank.cov),
                           self._transition, weights, self._noise)
        if not np.isfinite(pred.mean).all():
            finite = np.isfinite(pred.mean).all(axis=(1, 2))
            raise NumericalError(f"tracks {bank.ids[~finite].tolist()}: "
                                 f"predicted state is not finite")
        predicted = pred.mean[..., 0]
        assignment = associate(predicted, z, self.cfg.gate_distance)
        rows, cols = assignment.rows, assignment.cols
        z_matched = z.take(cols, axis=0)
        post, K, residual = flt.update(
            flt.StateEstimate(pred.mean.take(rows, axis=0),
                              pred.cov.take(rows, axis=0)),
            z_matched, self._noise, labels=bank.ids[rows])
        born = assignment.unmatched_detections

        self.frame = frame
        if self._record:
            matched = bank.ids[rows]
            self.trajectory.append((
                frame,
                np.concatenate([bank.ids, matched, matched,
                                np.arange(self.births + 1,
                                          self.births + 1 + len(born))]),
                np.concatenate([predicted, z_matched, post.mean[..., 0],
                                z.take(born, axis=0)]),
                np.array([PREDICTED, MEASUREMENT, UPDATED, MEASUREMENT], dtype=np.int8)
                .repeat([len(bank), len(rows), len(rows), len(born)])))
        pred.mean[rows] = post.mean
        pred.cov[rows] = post.cov
        bank.mean, bank.cov = pred.mean, pred.cov
        if self.cfg.dynamics_enabled and len(rows):
            cleaned = flt.post_measurement(z_matched, K, residual)
            bank.window.push(rows, cleaned, bank.hits[rows])
            self._refresh_weights(rows)
        self._apply_matches(rows, columns["reported"].take(cols, axis=0),
                            columns["obj_type"][cols])
        # A miss ends a tentative track and a track past `max_misses`.
        bank.misses[assignment.unmatched_tracks] += 1
        keep = (bank.misses == 0) | ((bank.hits >= self.cfg.min_hits)
                                     & (bank.misses <= self.cfg.max_misses))
        if len(born) or not keep.all():
            bank.rebuild(keep, self._born_rows(
                {name: column.take(born, axis=0)
                 for name, column in columns.items()}))
            self.births += len(born)
        return self._report(frame)

    def run(self, frames) -> list:
        """Track a whole sequence of `Detections`; returns per-frame reports."""
        return [self.step(i, dets) for i, dets in enumerate(frames)]
