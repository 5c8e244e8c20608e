"""Tracking-by-detection with per-track adaptive transition weighting.

Every live track is one row of a `TrackBank`, so a frame is one predict
over all rows, one association, one update over the matched rows and one
weight refresh, whatever the number of tracks. A frame's detections come in
as `Detections` columns and its tracks go out as one `FrameReport`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics as dyn
from . import filtering as flt
from .config import RunConfig, min_support
from .errors import ContractViolationError, InputError, NumericalError

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


def _shortest_augmenting_paths(cost: list) -> list:
    """Min-cost assignment of every row of a dense cost matrix, given as a
    list of row lists with no more rows than columns; returns each row's
    column.

    This is the shortest augmenting path method of Crouse, "On implementing
    2D rectangular assignment algorithms" (IEEE TAES 52(4), 2016): per row,
    one Dijkstra search over reduced costs to a free column, a dual update
    and one augmentation. The order in which a search scans the columns it
    has not reached, and its preference for a free column among equal
    reduced costs, fix which of several optimal pairings comes out; both
    are those of the common reference implementation of the method, so the
    two return the same pairs. The loops run over Python lists: on the
    small blocks they solve, that is faster than numpy calls over columns.
    """
    n_cols = len(cost[0]) if cost else 0
    inf = float("inf")
    u = [0.0] * len(cost)
    v = [0.0] * n_cols
    col4row = [-1] * len(cost)
    row4col = [-1] * n_cols
    for start in range(len(cost)):
        short = [inf] * n_cols   # reduced path cost to each column
        path = [-1] * n_cols     # the row each column was last reached from
        remaining = list(range(n_cols - 1, -1, -1))
        rows_seen, cols_seen = [], []
        i, low = start, 0.0
        while True:
            ci, ui = cost[i], u[i]
            best, at = inf, -1
            for k, j in enumerate(remaining):
                r = low + ci[j] - ui - v[j]
                s = short[j]
                if r < s:
                    path[j] = i
                    short[j] = s = r
                # Among equal costs prefer a free column: it ends the path.
                if s < best or (s == best and row4col[j] < 0):
                    best, at = s, k
            low = best
            j = remaining[at]
            remaining[at] = remaining[-1]
            remaining.pop()
            cols_seen.append(j)
            if row4col[j] < 0:
                break
            i = row4col[j]
            rows_seen.append(i)
        u[start] += low
        for i in rows_seen:
            u[i] += low - short[col4row[i]]
        for k in cols_seen:
            v[k] -= low - short[k]
        while True:   # augment along the path back from free column j
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == start:
                break
    return col4row


# The most cells one connected block of candidate pairs may span before
# `component_assignment` refuses it. A solve at this size (400 x 400 points
# within one gate of each other) takes under a second; the blocks of real
# scenes are far smaller.
MAX_CONTESTED_CELLS = 160_000


def _components(rows: list, cols: list) -> list:
    """The connected components of the bipartite graph of pairs
    (rows[k], cols[k]), each as the list of its pairs' indices k."""
    by_row: dict = {}
    by_col: dict = {}
    for k, (r, c) in enumerate(zip(rows, cols)):
        by_row.setdefault(r, []).append(k)
        by_col.setdefault(c, []).append(k)
    parts = []
    for first in rows:
        if first not in by_row:
            continue   # already in a component
        part, reached = [], [by_row.pop(first)]
        while reached:   # each row's pairs, pushed when the row is first reached
            pairs = reached.pop()
            part += pairs
            for k in pairs:
                for j in by_col.pop(cols[k], ()):
                    if rows[j] in by_row:
                        reached.append(by_row.pop(rows[j]))
        parts.append(part)
    return parts


def component_assignment(rows, cols, cost, fill):
    """Min-cost one-to-one assignment over sparse candidate pairs.

    (rows[k], cols[k]) are distinct candidate pairs of row and column
    indices, with finite `cost[k]`. A cell that is not a candidate costs
    `fill(shape)` in a block of that shape, more than any candidate, and is
    never kept; so the objective counts candidates only and is a sum over
    the connected components of the bipartite graph they form. A pair whose
    row and column have no other candidate is matched as it is; each larger
    component is solved on its own dense block by the shortest augmenting
    path method (on the transpose if it has more rows than columns).
    Returns the indices k of the matched candidates, ascending.

    A component spanning more than MAX_CONTESTED_CELLS cells raises
    InputError naming its shape before its block is allocated; where the
    pairs' degrees alone prove it too large, the error names that lower
    bound and is raised before the components are searched. A cost in a
    block that is not finite raises ContractViolationError.
    """
    row_degree, col_degree = np.bincount(rows)[rows], np.bincount(cols)[cols]
    lone = (row_degree == 1) & (col_degree == 1)
    if lone.all():
        return np.arange(len(rows))
    shared = (~lone).nonzero()[0]
    if not np.isfinite(cost[shared]).all():
        raise ContractViolationError("assignment cost holds a non-finite entry")
    # The component of pair k spans at least col_degree[k] rows and
    # row_degree[k] columns: refuse a dense crowd here, before the Python
    # search below walks all of its pairs.
    spans = col_degree[shared] * row_degree[shared]
    if spans.max() > MAX_CONTESTED_CELLS:
        k = shared[spans.argmax()]
        raise InputError(
            f"a connected block of at least {col_degree[k]} x "
            f"{row_degree[k]} candidate pairs exceeds the bound of "
            f"{MAX_CONTESTED_CELLS} cells")
    # Contested pairs are few in real scenes, so their components are
    # built and solved in Python, which beats numpy calls on tiny arrays.
    shared_rows, shared_cols = rows[shared].tolist(), cols[shared].tolist()
    shared_cost = cost[shared].tolist()
    matched = []
    for part in _components(shared_rows, shared_cols):
        part_rows = [shared_rows[k] for k in part]
        part_cols = [shared_cols[k] for k in part]
        shape = (len(set(part_rows)), len(set(part_cols)))
        if shape[0] * shape[1] > MAX_CONTESTED_CELLS:
            raise InputError(
                f"a connected block of {shape[0]} x {shape[1]} candidate "
                f"pairs exceeds the bound of {MAX_CONTESTED_CELLS} cells")
        if shape[0] > shape[1]:   # solve the transpose
            part_rows, part_cols = part_cols, part_rows
        row_at = {r: i for i, r in enumerate(sorted(set(part_rows)))}
        col_at = {c: j for j, c in enumerate(sorted(set(part_cols)))}
        no_pair = fill(shape)
        block = [[no_pair] * len(col_at) for _ in row_at]
        pair_at = [[-1] * len(col_at) for _ in row_at]
        for r, c, k in zip(part_rows, part_cols, part):
            i, j = row_at[r], col_at[c]
            block[i][j] = shared_cost[k]
            pair_at[i][j] = k
        for i, j in enumerate(_shortest_augmenting_paths(block)):
            if pair_at[i][j] >= 0:
                matched.append(pair_at[i][j])
    kept = np.concatenate([lone.nonzero()[0], shared[np.array(matched, dtype=np.intp)]])
    kept.sort()
    return kept


def gated_candidates(rows, cols, dist, gate: float):
    """Min-distance one-to-one pairing over in-gate candidate pairs
    (rows[k], cols[k]) with their distances; returns the indices k of the
    matched pairs, ascending.

    This is the CLEAR-MOT matching step (Bernardin & Stiefelhagen, 2008):
    pairs farther apart than `gate` never match. An out-of-gate cell costs
    more than any set of in-gate pairs can, so each block is solved for the
    most in-gate pairs first and then the least summed distance. The
    penalty is sized to the block, `gate * min(shape) + 1`, not a fixed huge
    number, which would swallow small distance differences in rounding.
    """
    return component_assignment(rows, cols, dist,
                                lambda shape: gate * min(shape) + 1.0)


def distance(a: np.ndarray, b: np.ndarray):
    """Euclidean distance over the last axis; every gate decision uses it, so
    a pair at the gate is judged alike everywhere.

    The squared coordinates are added column by column, in order, which for
    points of fewer than 8 coordinates is bitwise `np.linalg.norm(a - b,
    axis=-1)` without a reduction over a 2-element inner axis.
    """
    d = a - b
    total = d[..., 0] * d[..., 0]
    for k in range(1, d.shape[-1]):
        total += d[..., k] * d[..., k]
    return np.sqrt(total)


# `in_gate` widens its x window by this share of |x| + gate, far more than the
# rounding of x +- gate, so no pair the distance test keeps falls outside it.
X_WINDOW_MARGIN = 1e-9


def in_gate(a, b, gate: float, groups=None):
    """Every pair of points `a (n, k)`, `b (m, k)` within `gate`, as (rows of a,
    rows of b, distances): rows ascending, each distance bitwise that of
    `distance`, the order of a row's pairs unspecified. Only the points of
    b within +-gate in x of a point of a, found by binary search, get a
    distance.

    `groups`, if given, is a pair of integer label arrays `(n,)` and `(m,)`:
    then only points with equal labels pair. The result holds the same
    pairs as one ungrouped call per label, rows mapped back to a and b.
    A row of b is then found by the exact integer key `s * (m + 1) + r`,
    where `s` is where its label's rows start in label order and `r` is the
    rank of its x among all of b's x, so the labels' x windows never
    overlap whatever the labels or coordinates.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        none = np.zeros(0, dtype=np.intp)
        return none, none, np.zeros(0)
    # numpy's default sort is a vectorised quicksort; its stable sort, a
    # timsort, mispredicts its branches on every new frame. A window spans
    # every tie of its end points, so the order of tied x sets only the
    # order of a row's pairs.
    order = b[:, 0].argsort()
    bx = b[:, 0].take(order)
    # numpy's binary search starts from the previous key's bound when the
    # keys ascend, so the points of a are searched in ascending x and their
    # `lo` and `counts` put back in a's row order.
    by_x = a[:, 0].argsort()
    ax = a[:, 0].take(by_x)
    reach = gate + X_WINDOW_MARGIN * (np.abs(ax) + gate)
    lo = np.empty(len(a), dtype=np.intp)
    counts = np.empty(len(a), dtype=np.intp)
    lo[by_x] = bx.searchsorted(ax - reach, side="left")
    counts[by_x] = bx.searchsorted(ax + reach, side="right")
    if groups is not None:
        order, lo, counts = _label_windows(order, lo, counts, *groups)
    counts -= lo
    rows = np.arange(len(a)).repeat(counts)
    # Candidate i of row r sits at sorted index lo[r] + (i - first[r]).
    first = counts.cumsum() - counts
    cols = order[np.arange(len(rows)) + (lo - first).repeat(counts)]
    dist = distance(a.take(rows, axis=0), b.take(cols, axis=0))
    inside = (dist <= gate).nonzero()[0]
    return rows.take(inside), cols.take(inside), dist.take(inside)


def _label_windows(order, lo, hi, a_labels, b_labels):
    """`in_gate`'s x windows [lo, hi) into b's x order, narrowed to each
    point's label: returns b's order by (label, x) and the windows into it.

    Within one label the x ranks ascend, so a window of ranks is a window
    of keys; an a label that b lacks gets an empty window.
    """
    m = len(order)
    labels = np.asarray(b_labels).take(order)
    by_label = labels.argsort(kind="stable")
    labels = labels.take(by_label)
    start = labels.searchsorted(labels, side="left")
    keys = start * (m + 1) + by_label
    a_labels = np.asarray(a_labels)
    a_start = labels.searchsorted(a_labels, side="left")
    a_stop = labels.searchsorted(a_labels, side="right")
    base = a_start * (m + 1)
    lo = keys.searchsorted(base + lo, side="left")
    hi = np.minimum(keys.searchsorted(base + hi, side="left"), a_stop)
    return order.take(by_label), lo, np.maximum(hi, lo)


def associate(track_positions, detection_positions, gate: float) -> Assignment:
    """Min-distance one-to-one pairing of `track_positions (n, k)` to
    `detection_positions (m, k)` in which pairs farther apart than `gate`
    never match.

    Only the `in_gate` pairs are candidates, so the n x m distance matrix is
    never built: a pair whose points have no other in-gate partner is
    matched directly, and each larger connected component of the in-gate
    graph is solved on its own (`gated_candidates`). A component spanning
    more than MAX_CONTESTED_CELLS cells raises InputError.

    The result equals a solve of the full n x m matrix with out-of-gate
    cells penalised: its objective, most in-gate pairs and then least summed
    distance, is a sum over the connected components. Only exactly tied
    alternatives can come out differently.
    """
    rows, cols, dist = in_gate(track_positions, detection_positions, gate)
    k = gated_candidates(rows, cols, dist, gate)
    rows, cols = rows.take(k), cols.take(k)
    unmatched_t = np.ones(len(track_positions), dtype=bool)
    unmatched_t[rows] = False
    unmatched_d = np.ones(len(detection_positions), dtype=bool)
    unmatched_d[cols] = False
    return Assignment(rows, cols, unmatched_t.nonzero()[0],
                      unmatched_d.nonzero()[0])


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
