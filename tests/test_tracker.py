"""Tracker behavior: association, lifecycle, weighting, trajectories, latency."""
import math
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from dynatrack import association as asc
from dynatrack import dynamics as dyn
from dynatrack import filtering as flt
from dynatrack import metrics
from dynatrack.association import (MAX_CONTESTED_CELLS, associate,
                                   component_assignment)
from dynatrack.config import RunConfig
from dynatrack.errors import ContractViolationError, InputError, NumericalError
from dynatrack.filtering import StateEstimate
from dynatrack.frames import STATUSES, TRAJECTORY_SOURCES
from dynatrack.tracker import MultiObjectTracker, measure_latency

from helpers import (_min_cost_pairs, detections, dynamics_vector,
                     frames_from_positions, pair_set, random_tracking_scene,
                     reference_in_gate, reference_lifecycle, row_permutation,
                     run_single_target, single_target_config, smooth_weights,
                     tied_grid_scene, trajectory_by_source, unpack,
                     validate_estimate)


# -- association ---------------------------------------------------------

def _pairs(assignment):
    return [tuple(p) for p in assignment.matches.tolist()]


def test_associate_empty_inputs():
    a = associate([], [np.zeros(2)], gate=2.0)
    assert (_pairs(a), a.unmatched_tracks.tolist(),
            a.unmatched_detections.tolist()) == ([], [], [0])
    b = associate([np.zeros(2)], [], gate=2.0)
    assert (_pairs(b), b.unmatched_tracks.tolist(),
            b.unmatched_detections.tolist()) == ([], [0], [])


def test_associate_prefers_nearest():
    tracks = [np.array([0.0, 0.0]), np.array([10.0, 0.0])]
    dets = [np.array([9.5, 0.0]), np.array([0.4, 0.0])]
    a = associate(tracks, dets, gate=2.0)
    assert _pairs(a) == [(0, 1), (1, 0)]


def test_associate_respects_gate():
    tracks = [np.array([0.0, 0.0])]
    dets = [np.array([5.0, 0.0])]
    a = associate(tracks, dets, gate=2.0)
    assert _pairs(a) == []
    assert a.unmatched_tracks.tolist() == [0]
    assert a.unmatched_detections.tolist() == [0]


def test_associate_gate_is_inclusive():
    a = associate([np.array([0.0, 0.0])], [np.array([2.0, 0.0])], gate=2.0)
    assert _pairs(a) == [(0, 0)]


@pytest.mark.parametrize("gate", [np.nan, -1.0, 0.0, np.inf, -np.inf])
def test_a_gate_that_is_not_finite_and_positive_is_refused(gate):
    # Every gate decision goes through `in_gate`, so tracking and scoring
    # refuse such a gate alike rather than matching nothing, raising numpy's
    # own error or pairing every point with every other.
    a = np.zeros((2, 2))
    calls = [lambda: asc.in_gate(a, a, gate), lambda: associate(a, a, gate),
             lambda: metrics.score([[(1, a[0])]], [[(1, a[0])]], gate)]
    for call in calls:
        with pytest.raises(ContractViolationError, match="gate must be finite"):
            call()


def test_associate_one_to_one_minimizes_total_distance():
    tracks = [np.array([0.0, 0.0]), np.array([1.0, 0.0])]
    dets = [np.array([0.6, 0.0])]
    a = associate(tracks, dets, gate=2.0)
    assert _pairs(a) == [(1, 0)]


def _scipy_gated(dist, gate):
    """scipy's solve of the whole penalised matrix, not split into
    components; its in-gate pairs, in row order."""
    rows, cols = linear_sum_assignment(
        np.where(dist <= gate, dist, gate * min(dist.shape) + 1.0))
    keep = dist[rows, cols] <= gate
    return rows[keep], cols[keep]


def _dense_reference(a, b, gate):
    """`_scipy_gated` over the full distance matrix, and that matrix."""
    dist = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
    if dist.size == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), dist
    return (*_scipy_gated(dist, gate), dist)


def _unique_optimum(rows, cols, dist, gate):
    """Whether every other in-gate pairing is fewer pairs or longer in sum.

    Any other pairing leaves out one of these pairs, so it is enough to solve
    again with each pair forbidden in turn.
    """
    total = dist[rows, cols].sum()
    for r, c in zip(rows, cols):
        banned = dist.copy()
        banned[r, c] = np.inf
        r2, c2 = _scipy_gated(banned, gate)
        if len(r2) == len(rows) and abs(dist[r2, c2].sum() - total) <= 1e-12:
            return False
    return True


GATE = 2.5
# Half-metre steps put pairs exactly one gate apart (1.5, 2.0 -> 2.5),
# repeat positions and let points share an x coordinate.
_GRID = [0.5 * k for k in range(13)]


@st.composite
def _scenes(draw):
    side = draw(st.sampled_from([2.0, 4.0, 6.0]))
    coord = (st.sampled_from([v for v in _GRID if v <= side])
             | st.floats(0.0, side))
    point = st.tuples(coord, coord)
    a = draw(st.lists(point, max_size=30))
    b = draw(st.lists(point | st.sampled_from(a or [(0.0, 0.0)]), max_size=30))
    return (np.array(a, dtype=float).reshape(-1, 2),
            np.array(b, dtype=float).reshape(-1, 2))


@settings(max_examples=200, deadline=None)
@example(scene=(np.zeros((0, 2)), np.zeros((3, 2))))
@example(scene=(np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]]),
                np.array([[0.0, 0.0], [1.5, 2.0], [0.0, 2.5], [0.0, 2.5]])))
@given(scene=_scenes())
def test_associate_matches_dense_reference(scene):
    a, b = scene
    got = associate(a, b, GATE)
    rows, cols, dist = _dense_reference(a, b, GATE)
    assert len(got.rows) == len(rows)
    assert abs(dist[got.rows, got.cols].sum() - dist[rows, cols].sum()) <= 1e-12
    assert np.all(dist[got.rows, got.cols] <= GATE)
    assert np.all(np.diff(got.rows) > 0)
    assert len(set(got.cols.tolist())) == len(got.cols)
    npt.assert_array_equal(got.unmatched_tracks,
                           np.setdiff1d(np.arange(len(a)), got.rows))
    npt.assert_array_equal(got.unmatched_detections,
                           np.setdiff1d(np.arange(len(b)), got.cols))
    if _unique_optimum(rows, cols, dist, GATE):
        npt.assert_array_equal(got.rows, rows)
        npt.assert_array_equal(got.cols, cols)


def _boundary_pairs(x, gate):
    """Points of x + gate and x - gate on the float grid, at the last one in
    the gate as `np.linalg.norm` computes it and at the next one past it."""
    pairs = []
    for outward in (np.inf, -np.inf):
        edge = x + gate if outward > 0 else x - gate
        while abs(edge - x) <= gate:
            edge = np.nextafter(edge, outward)
        while abs(edge - x) > gate:
            edge = np.nextafter(edge, -outward)
        pairs += [edge, np.nextafter(edge, outward)]
    return pairs


@pytest.mark.parametrize("offset", [0.0, 1e6, -1e6])
@pytest.mark.parametrize("gate", [2.5, 2.0, 0.1, 1.7])
def test_gated_pairs_x_window_keeps_every_in_gate_pair(offset, gate):
    # x values whose sum with the gate rounds: the window edge x + gate can
    # land below a point whose computed distance is still within the gate.
    xs = offset + np.array([-3.5584038728036624, -1.8816854798951455,
                            4.486494471372438, 2.5351310867480663, 10.1, 7.3])
    for x in xs:
        for edge in _boundary_pairs(x, gate):
            a = np.array([[x, 7.0]])
            b = np.array([[edge, 7.0]])
            rows, cols, _ = _dense_reference(a, b, gate)
            got = associate(a, b, gate)
            assert (got.rows.tolist(), got.cols.tolist()) == (rows.tolist(),
                                                              cols.tolist()), (x, edge)


def test_gated_pairs_distances_are_the_dense_norm_bitwise():
    rng = np.random.default_rng(0)
    a = rng.normal(0.0, 1.0, (200, 2)) * 10.0 ** rng.integers(-3, 7, (200, 1))
    b = a + rng.normal(0.0, 1.0, (200, 2))
    dist = np.linalg.norm(a - b, axis=-1)
    # With the gate at the dense distance the pair matches, one ulp below it
    # it does not, so a distance off by any rounding fails one of the two.
    for p, q, gate in zip(a, b, dist):
        assert len(associate([p], [q], gate).rows) == 1
        assert len(associate([p], [q], np.nextafter(gate, 0.0)).rows) == 0


@pytest.mark.parametrize("arrange", ["descending", "shuffled"])
def test_in_gate_pairs_do_not_depend_on_the_order_of_a(arrange):
    # The points of a are searched in ascending x and their windows put back
    # in row order; given in any other order, with some x shared, they must
    # still get every in-gate pair, rows ascending, at the dense distance.
    rng = np.random.default_rng(4)
    a = rng.uniform(0.0, 20.0, (60, 2))
    a[::7, 0] = a[1::7, 0][:len(a[::7])]
    a = a[np.argsort(-a[:, 0])] if arrange == "descending" else a[rng.permutation(60)]
    b = rng.uniform(0.0, 20.0, (80, 2))
    rows, cols, dist = asc.in_gate(a, b, GATE)
    dense = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
    want_rows, want_cols = np.nonzero(dense <= GATE)
    assert np.all(np.diff(rows) >= 0)
    by_pair = np.lexsort((cols, rows))
    npt.assert_array_equal(rows[by_pair], want_rows)
    npt.assert_array_equal(cols[by_pair], want_cols)
    assert dist[by_pair].tobytes() == dense[want_rows, want_cols].tobytes()


# Labels up to 2^62 in size, in no order, some on one side only; coordinates
# on a 0.5 grid (pairs land exactly at the gate) or free, around offsets up
# to 1e15 in size.
_LABELS = st.integers(-2 ** 62, 2 ** 62)
_GRID_OR_FREE = st.one_of(st.integers(-8, 8).map(lambda k: 0.5 * k),
                          st.floats(-4.0, 4.0))


@st.composite
def _grouped_points(draw):
    shared = draw(st.lists(_LABELS, min_size=1, max_size=4, unique=True))
    a_only = draw(st.lists(_LABELS, max_size=2))
    b_only = draw(st.lists(_LABELS, max_size=2))
    offset = draw(st.sampled_from([0.0, -3e3, 1e6, -1e9, 1e12, 1e15, -1e15]))

    def side(labels):
        rows = draw(st.lists(st.tuples(st.sampled_from(labels), _GRID_OR_FREE,
                                       _GRID_OR_FREE), max_size=14))
        return (np.array([(offset + x, offset + y) for _, x, y in rows],
                         dtype=float).reshape(len(rows), 2),
                np.array([label for label, _, _ in rows], dtype=np.int64))

    return (*side(shared + a_only), *side(shared + b_only),
            draw(st.sampled_from([0.5, 1.0, 2.5])))


@settings(max_examples=400, deadline=None)
@example(case=(np.zeros((0, 2)), np.zeros(0, dtype=np.int64),
               np.zeros((1, 2)), np.array([3]), 1.0))
@given(case=_grouped_points())
def test_grouped_in_gate_equals_one_ungrouped_call_per_label(case):
    a, a_labels, b, b_labels, gate = case
    got = asc.in_gate(a, b, gate, (a_labels, b_labels))
    parts = [[np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)],
             [np.zeros(0)]]
    for label in set(a_labels.tolist()) | set(b_labels.tolist()):
        in_a = np.flatnonzero(a_labels == label)
        in_b = np.flatnonzero(b_labels == label)
        rows, cols, dist = asc.in_gate(a[in_a], b[in_b], gate)
        for part, value in zip(parts, (in_a[rows], in_b[cols], dist)):
            part.append(value)
    rows, cols, dist = map(np.concatenate, parts)
    assert np.all(np.diff(got[0]) >= 0)
    for g, w in zip(pair_set(got), pair_set((rows, cols, dist))):
        assert g.tobytes() == w.tobytes()


# x on a 0.5 grid, signed zeros among them, or free; points of b copied from
# a; offsets up to 1e15, where free x round onto a coarse grid. Most draws
# hold exact x ties, on which numpy's default sort and its stable sort part.
_TIED_X = st.one_of(st.integers(-6, 6).map(lambda k: 0.5 * k),
                    st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0))


@st.composite
def _tied_points(draw):
    offset = draw(st.sampled_from([-0.0, 0.0, 7.25, -3e3, 1e9, 1e15, -1e15]))
    point = st.tuples(_TIED_X, st.floats(-3.0, 3.0), st.integers(0, 2))
    a = draw(st.lists(point, max_size=40))
    b = draw(st.lists(point | st.sampled_from(a or [(0.0, 0.0, 0)]), max_size=40))

    def side(rows):
        return (np.array([(x + offset, y + offset) for x, y, _ in rows],
                         dtype=float).reshape(len(rows), 2),
                np.array([label for _, _, label in rows], dtype=np.int64))

    return (*side(a), *side(b), draw(st.sampled_from([0.5, 1.0, 2.5])))


@settings(max_examples=300, deadline=None)
@example(case=(np.zeros((1, 2)), np.zeros(1, dtype=np.int64),
               np.array([[0.5, 0.0], [0.0, 1.0], [-0.0, 0.0], [0.0, -1.0],
                         [0.5, 2.0], [-0.0, 0.5]]),
               np.zeros(6, dtype=np.int64), 1.0))
@given(case=_tied_points())
def test_in_gate_pairs_equal_the_stable_sort_reference_bitwise(case):
    # The pairs and their distances are those of both columns sorted
    # stably, grouped or not, whatever the ties in x; rows ascend, and the
    # order of a row's pairs is free.
    a, a_labels, b, b_labels, gate = case
    for groups in (None, (a_labels, b_labels)):
        got = asc.in_gate(a, b, gate, groups)
        want = reference_in_gate(a, b, gate, groups)
        assert np.all(np.diff(got[0]) >= 0)
        for g, w in zip(pair_set(got), pair_set(want)):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("budget", [1, 3, 7, 20, metrics.GATE_CHUNK_POINTS])
def test_frame_chunks_take_whole_frames_up_to_the_budget(budget, monkeypatch):
    # In order and without gaps; within the budget on both sides unless a
    # chunk is one frame; and no chunk could take its next frame as well.
    monkeypatch.setattr(metrics, "GATE_CHUNK_POINTS", budget)
    a_counts, b_counts = np.random.default_rng(12).integers(0, 10, (2, 60))
    chunks = metrics.frame_chunks(a_counts, b_counts)
    assert [f for chunk in chunks for f in range(60)[chunk]] == list(range(60))
    for chunk in chunks:
        fits = [a_counts[chunk].sum() <= budget, b_counts[chunk].sum() <= budget]
        assert all(fits) or chunk.stop - chunk.start == 1
        if chunk.stop < 60:
            wider = slice(chunk.start, chunk.stop + 1)
            assert (a_counts[wider].sum() > budget or b_counts[wider].sum() > budget)
    assert metrics.frame_chunks([], []) == []


@st.composite
def _distance_matrices(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    # Few distinct values, so ties between candidate pairings are common.
    cell = st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 3.0]) | st.floats(0.0, 5.0)
    cells = draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols))
    return np.array(cells).reshape(rows, cols)


@settings(max_examples=300, deadline=None)
@example(dist=np.full((3, 2), 4.0), gate=2.5)
@example(dist=np.array([[0.0, 0.5, 0.25], [1e-9, 0.5, 0.5], [0.0, 0.5, 0.5]]),
         gate=0.25)
@given(dist=_distance_matrices(), gate=st.sampled_from([0.25, 1.0, 2.0, 2.5]))
def test_gated_assignment_matches_exhaustive_search(dist, gate):
    rows, cols = np.nonzero(dist <= gate)
    k = asc.gated_candidates(rows, cols, dist[rows, cols], gate)
    rows, cols = rows[k], cols[k]
    assert len(set(rows.tolist())) == len(rows)
    assert len(set(cols.tolist())) == len(cols)
    assert np.all(dist[rows, cols] <= gate)
    best = _min_cost_pairs(dist, gate)
    assert len(rows) == len(best)
    assert abs(dist[rows, cols].sum() - sum(dist[r, c] for r, c in best)) <= 1e-9


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), gate=st.sampled_from([0.5, 1.0, 2.5]))
def test_assignment_does_not_depend_on_the_order_of_its_candidates(seed, gate):
    # Tie-heavy candidates: a few frames of grid points pooled, duplicates
    # and all, with distances and with IDF1-like integer gains. Reordered
    # within their rows, the matched (row, col) pairs come out the same and
    # in the same order; in any order, the same pairs at ascending indices.
    rng = np.random.default_rng(seed)
    gt, hyp = tied_grid_scene(rng, n_frames=3)
    a = np.array([p for frame in gt for _, p in frame])
    b = np.array([p for frame in hyp for _, p in frame]).reshape(-1, 2)
    rows, cols, dist = asc.in_gate(a, b, gate)
    gain = -rng.integers(1, 4, len(rows)).astype(float)
    solvers = [lambda k: asc.gated_candidates(rows[k], cols[k], dist[k], gate),
               lambda k: component_assignment(rows[k], cols[k], gain[k],
                                              lambda shape: 0.0)]
    for solve in solvers:
        first = solve(np.arange(len(rows)))
        want = list(zip(rows[first].tolist(), cols[first].tolist()))
        order = row_permutation(rng, rows)
        got = order[solve(order)]
        assert list(zip(rows[got].tolist(), cols[got].tolist())) == want
        order = rng.permutation(len(rows))
        k = solve(order)
        assert np.all(np.diff(k) > 0)
        assert sorted(zip(rows[order[k]].tolist(), cols[order[k]].tolist())) \
            == sorted(want)


# -- the assignment solver -----------------------------------------------

def _dense_assignment(cost):
    """`component_assignment` with every cell of `cost` a candidate. The
    candidate graph is complete, so it is one component (or one lone pair)
    and no cell is ever filled."""
    rows, cols = np.indices(cost.shape).reshape(2, -1)
    k = component_assignment(rows, cols, cost.ravel(), lambda shape: 0.0)
    return rows[k], cols[k]


@st.composite
def _cost_matrices(draw):
    """(kind, cost): a wide, tall or empty matrix up to 12 x 12 of small
    integers (ties are common), of distances with the gate's penalty
    entries, or of continuous uniform values (ties are not)."""
    shape = (draw(st.integers(0, 12)), draw(st.integers(0, 12)))
    kind = draw(st.sampled_from(["integer", "penalty", "continuous"]))
    n = shape[0] * shape[1]
    if kind == "continuous":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        return kind, rng.uniform(-100.0, 100.0, shape)
    if kind == "integer":
        cell = st.integers(-3, 3).map(float)
    else:
        penalty = GATE * min(shape) + 1.0
        cell = st.sampled_from([0.0, 0.5, GATE, penalty]) | st.floats(0.0, GATE)
    return kind, np.array(draw(st.lists(cell, min_size=n, max_size=n))).reshape(shape)


@settings(max_examples=400, deadline=None)
@example(drawn=("integer", np.zeros((0, 4))))
@example(drawn=("integer", np.zeros((4, 0))))
@example(drawn=("integer", np.zeros((12, 12))))
@given(drawn=_cost_matrices())
def test_solver_matches_scipy(drawn):
    kind, cost = drawn
    rows, cols = _dense_assignment(cost)
    ref_rows, ref_cols = linear_sum_assignment(cost)
    assert len(rows) == min(cost.shape)
    assert len(set(rows.tolist())) == len(set(cols.tolist())) == len(rows)
    assert abs(cost[rows, cols].sum() - cost[ref_rows, ref_cols].sum()) <= 1e-9
    if kind == "continuous":
        npt.assert_array_equal(rows, ref_rows)
        npt.assert_array_equal(cols, ref_cols)


@pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf])
def test_solver_rejects_non_finite_costs(bad):
    cost = np.arange(6.0).reshape(2, 3)
    cost[1, 2] = bad
    with pytest.raises(ContractViolationError, match="non-finite"):
        _dense_assignment(cost)


# Rows and columns of co-located points, each in the gate of all the
# others: one component of side x side cells, at most the bound.
_SIDE = math.isqrt(MAX_CONTESTED_CELLS)


def test_contested_block_at_the_bound_solves():
    matched = associate(np.zeros((_SIDE, 2)), np.zeros((_SIDE, 2)), 1.0)
    npt.assert_array_equal(matched.rows, np.arange(_SIDE))
    assert sorted(matched.cols.tolist()) == list(range(_SIDE))


def test_contested_block_past_the_bound_raises_before_the_search(monkeypatch):
    # Every pair's degrees already prove the block too large, so the Python
    # component search never walks the crowd.
    def no_search(rows, cols):
        raise AssertionError("component search ran")
    monkeypatch.setattr(asc, "_components", no_search)
    with pytest.raises(InputError,
                       match=f"at least {_SIDE + 1} x {_SIDE} candidate"):
        associate(np.zeros((_SIDE + 1, 2)), np.zeros((_SIDE, 2)), 1.0)


def test_contested_chain_past_the_bound_raises():
    # Points alternating one gate apart on a line: every point has at most
    # two partners, so only the component search sees the block's size.
    a = np.column_stack((2.0 * np.arange(_SIDE + 1), np.zeros(_SIDE + 1)))
    b = a + [1.0, 0.0]
    with pytest.raises(InputError, match=f"of {_SIDE + 1} x {_SIDE + 1} candidate"):
        associate(a, b, 1.0)


def test_step_past_the_contested_bound_raises_without_changing_state():
    tracker = MultiObjectTracker(single_target_config(), record_trajectories=True)
    tracker.step(0, detections([(0.0, 10.0)] * (_SIDE + 1)))
    before = _state(tracker)
    with pytest.raises(InputError, match=f"{_SIDE + 1} x {_SIDE} candidate"):
        tracker.step(1, detections([(0.0, 10.0)] * _SIDE))
    assert _state(tracker) == before


# -- lifecycle -----------------------------------------------------------

def _static_frames(n, x=0.0, y=10.0):
    return frames_from_positions([[(x, y)]] * n)


def test_confirmation_needs_min_hits():
    cfg = RunConfig(min_hits=3)
    tracker = MultiObjectTracker(cfg)
    frames = _static_frames(4)
    assert len(tracker.step(0, frames[0])) == 0
    assert len(tracker.step(1, frames[1])) == 0
    report = tracker.step(2, frames[2])
    assert [s.track_id for s in report] == [1]
    assert STATUSES[report.status[0]] == "confirmed"


def test_min_hits_one_confirms_immediately():
    tracker = MultiObjectTracker(single_target_config())
    snaps = tracker.step(0, _static_frames(1)[0])
    assert [s.status for s in snaps] == ["confirmed"]


def test_tentative_track_dies_on_first_miss():
    cfg = RunConfig(min_hits=3)
    tracker = MultiObjectTracker(cfg)
    tracker.step(0, _static_frames(1)[0])
    tracker.step(1, detections())
    assert len(tracker.tracks) == 0
    tracker.step(2, _static_frames(1)[0])
    assert [t.track_id for t in tracker.tracks] == [2]  # ids never reused


def test_confirmed_track_coasts_then_recovers():
    cfg = single_target_config(max_misses=5)
    tracker = MultiObjectTracker(cfg)
    tracker.step(0, detections([(0.0, 10.0)]))
    snaps = tracker.step(1, detections())
    assert [s.status for s in snaps] == ["coasting"]
    snaps = tracker.step(2, detections([(0.0, 10.0)]))
    assert [s.status for s in snaps] == ["confirmed"]
    assert snaps.ids.tolist() == [1]


def test_track_dies_after_max_misses():
    cfg = single_target_config(max_misses=2)
    tracker = MultiObjectTracker(cfg)
    tracker.step(0, detections([(0.0, 10.0)]))
    assert len(tracker.step(1, detections())) == 1
    assert len(tracker.step(2, detections())) == 1
    assert len(tracker.step(3, detections())) == 0
    assert len(tracker.tracks) == 0


@st.composite
def _lifecycle_scenes(draw):
    """Lifecycle settings and per-frame detection flags of a few objects."""
    objects = draw(st.integers(1, 4))
    seen = draw(st.lists(st.lists(st.booleans(), min_size=objects,
                                  max_size=objects),
                         min_size=2, max_size=40))
    return draw(st.integers(1, 4)), draw(st.integers(0, 3)), seen


@settings(max_examples=150, deadline=None)
@given(_lifecycle_scenes())
@example((3, 0, [[True], [True], [True], [False], [True], [False], [True]]))
@example((2, 1, [[True, False], [False, True], [True, True], [False, True],
                 [False, True], [True, False]]))
def test_lifecycle_matches_reference_state_machine(scene):
    # Stationary objects 50 m apart: each detection matches its own object's
    # track, so ids, statuses and births are set by the lifecycle alone.
    min_hits, max_misses, seen = scene
    tracker = MultiObjectTracker(RunConfig(min_hits=min_hits,
                                           max_misses=max_misses))
    expected = reference_lifecycle(seen, min_hits, max_misses)
    for frame, (flags, (ids, statuses, births)) in enumerate(zip(seen, expected)):
        report = tracker.step(frame, detections(
            [(50.0 * k, 10.0) for k, shown in enumerate(flags) if shown]))
        assert [(s.track_id, s.status) for s in report] == list(zip(ids, statuses))
        assert tracker.births == births


def test_step_requires_increasing_frames():
    tracker = MultiObjectTracker(RunConfig())
    tracker.step(0, detections())
    with pytest.raises(ContractViolationError, match="frame 0"):
        tracker.step(0, detections())


def _track_sequences(tracker, frames):
    """Each reported track's (frame, position bytes, status) sequence, the
    sequences sorted: the run's tracks with their ids left out."""
    by_id = {}
    for frame, dets in enumerate(frames):
        report = tracker.step(frame, dets)
        for i, xy, status in zip(report.ids.tolist(), report.position,
                                 report.status.tolist()):
            by_id.setdefault(i, []).append((frame, xy.tobytes(), status))
    return sorted(by_id.values())


def _moving_scene(rng, objects):
    """Per-frame positions of `random_tracking_scene`'s hypotheses: continuous
    draws, so no two candidate pairings tie exactly."""
    _, hyps = random_tracking_scene(rng, n_objects=objects, n_frames=25,
                                    drop=0.25, spurious=0.8)
    return [[p for _, p in frame] for frame in hyps]


_SCENE_RUNS = dict(seed=st.integers(0, 2 ** 32 - 1), order=st.integers(1, 3),
                   dynamics=st.booleans(), objects=st.integers(1, 8))


def _scene_config(order, dynamics):
    return RunConfig(model_order=order, dynamics_enabled=dynamics, min_hits=2,
                     max_misses=2, gate_distance=3.0)


@settings(max_examples=60, deadline=None)
@given(**_SCENE_RUNS)
def test_detection_order_within_a_frame_only_relabels_tracks(
        seed, order, dynamics, objects):
    # Continuous draws, so no two candidate pairings tie exactly: shuffling
    # each frame's detections changes which birth gets which id and which
    # bank row, and nothing else, bitwise.
    rng = np.random.default_rng(seed)
    frames = _moving_scene(rng, objects)
    shuffled = [[frame[k] for k in rng.permutation(len(frame))] for frame in frames]
    cfg = _scene_config(order, dynamics)
    want = _track_sequences(MultiObjectTracker(cfg), frames_from_positions(frames))
    got = _track_sequences(MultiObjectTracker(cfg), frames_from_positions(shuffled))
    assert got == want
    assert want


def _tracked_steps(cfg, frames):
    """Each step's report and a copy of the bank's filter and weight arrays
    after it, tracking per-frame positions."""
    tracker = MultiObjectTracker(cfg)
    bank = tracker.bank
    return [(tracker.step(f, dets),
             {name: getattr(bank, name).copy()
              for name in ("mean", "cov", "weights", "ring")})
            for f, dets in enumerate(frames_from_positions(frames))]


@settings(max_examples=50, deadline=None)
@given(**_SCENE_RUNS)
def test_swapping_the_ground_axes_swaps_reports_and_bank(seed, order, dynamics,
                                                         objects):
    # Each axis has its own filter and weights, a distance sums its squares
    # alike in either order, and the gate then sweeps along the other axis:
    # after every step, the reports and the bank hold the same bits with
    # their axes swapped.
    frames = _moving_scene(np.random.default_rng(seed), objects)
    cfg = _scene_config(order, dynamics)
    want = _tracked_steps(cfg, frames)
    got = _tracked_steps(cfg, [[p[::-1] for p in frame] for frame in frames])
    for (w, w_bank), (g, g_bank) in zip(want, got):
        assert g.ids.tobytes() == w.ids.tobytes()
        assert g.position[:, ::-1].tobytes() == w.position.tobytes()
        for name, axis in (("mean", 1), ("cov", 1), ("weights", 1), ("ring", 2)):
            assert np.flip(g_bank[name], axis).tobytes() == w_bank[name].tobytes()
    assert any(len(w) for w, _ in want)


# The most a reported position may move, in metres, when every detection
# shifts by up to 1e4 m a coordinate. Over 6,400 runs of this test's scenes
# the worst was 5.8e-11 m, about 30 units in the last place of 1e4; the
# bound leaves a margin of about 17 times.
SHIFT_DRIFT = 1e-9


@settings(max_examples=50, deadline=None)
@example(seed=0, order=3, dynamics=True, objects=8, shift=(1000.0, -2000.0))
@given(**_SCENE_RUNS, shift=st.tuples(*[st.floats(-1e4, 1e4)] * 2))
def test_shifting_every_detection_shifts_the_reports(seed, order, dynamics,
                                                     objects, shift):
    frames = _moving_scene(np.random.default_rng(seed), objects)
    cfg = _scene_config(order, dynamics)
    want = _tracked_steps(cfg, frames)
    got = _tracked_steps(cfg, [[p + shift for p in frame] for frame in frames])
    for (w, _), (g, _) in zip(want, got):
        assert g.ids.tobytes() == w.ids.tobytes()
        assert np.abs(g.position - shift - w.position).max(initial=0.0) <= SHIFT_DRIFT
    assert any(len(w) for w, _ in want)


def test_two_objects_keep_identity():
    positions = [[(0.0, 10.0 + 0.1 * f), (30.0, 10.0)] for f in range(20)]
    tracker = MultiObjectTracker(RunConfig(min_hits=1))
    per_frame = tracker.run(frames_from_positions(positions))
    for snaps in per_frame:
        by_id = {s.track_id: s.position for s in snaps}
        assert set(by_id) == {1, 2}
        assert abs(by_id[1][0] - 0.0) < 1.0
        assert abs(by_id[2][0] - 30.0) < 1.0


def _state(tracker):
    """Everything a step may change, as comparable bytes and values."""
    bank = tracker.bank
    arrays = {name: getattr(bank, name) for name in bank.FIELDS if name != "obj_type"}
    arrays["window"] = bank.window.positions
    trajectory = [(frame, ids.tobytes(), xy.tobytes(), sources.tobytes())
                  for frame, ids, xy, sources in tracker.trajectory]
    return ({name: (a.shape, a.tobytes()) for name, a in arrays.items()},
            bank.obj_type.tolist(), [t.track_id for t in tracker.tracks],
            tracker.frame, tracker.births, trajectory)


def _three_track_tracker(dynamics=True):
    tracker = MultiObjectTracker(single_target_config(gate_distance=5.0,
                                                      dynamics_enabled=dynamics),
                                 record_trajectories=True)
    for frame in range(4):
        tracker.step(frame, detections([(20.0 * k, 10.0 + 0.1 * frame)
                                        for k in range(3)]))
    return tracker


def _in_rows(value):
    """Column edit putting `value` in rows 1 and 2: one of them would match a
    track, the other would start one."""
    def edit(column):
        column = column.astype(object if isinstance(value, str) else float)
        column[[1, 2]] = value
        return column
    return edit


@pytest.mark.parametrize("field, bad", [
    ("position", _in_rows([np.nan, 1.0])), ("position", _in_rows([1.0, np.inf])),
    ("position", _in_rows([-np.inf, 0.0])), ("position", np.ones((3, 3))),
    ("position", np.ones((3, 1))), ("position", np.ones((3, 2, 1))),
    ("position", np.ones(3)), ("dims", np.ones((3, 2))),
    ("dims", _in_rows([1.5, np.nan, 4.2])), ("elevation", _in_rows(np.inf)),
    ("yaw", _in_rows("north")),
], ids=["nan", "inf", "neg-inf", "length-3", "length-1", "column", "scalar",
        "dims-length-2", "dims-nan", "elevation-inf", "yaw-text"])
def test_step_rejects_bad_detections_without_changing_state(field, bad):
    # `bad` is a whole replacement column or an edit of the good one
    tracker = _three_track_tracker()
    before = _state(tracker)
    dets = detections([(0.0, 10.5), (20.0, 10.5), (90.0, 10.5)])
    setattr(dets, field, bad(getattr(dets, field)) if callable(bad) else bad)
    with pytest.raises(ContractViolationError, match="detection"):
        tracker.step(4, dets)
    assert _state(tracker) == before
    tracker.step(4, detections([(0.0, 10.5)]))  # the frame was not consumed


@pytest.mark.parametrize("field, value", [
    ("position", np.ones((3, 3))), ("dims", np.ones((3, 2))),
    ("elevation", np.ones((2,))),
], ids=["position-length-3", "dims-length-2", "elevation-pair"])
def test_step_rejects_detections_that_all_share_a_bad_shape(field, value):
    # elevation-pair: a column with fewer rows than there are positions
    tracker = _three_track_tracker()
    before = _state(tracker)
    dets = detections([(20.0 * k, 10.5) for k in range(3)])
    setattr(dets, field, value)
    with pytest.raises(ContractViolationError, match="shape"):
        tracker.step(4, dets)
    assert _state(tracker) == before


def test_step_rejects_a_detection_list():
    tracker = MultiObjectTracker(RunConfig())
    with pytest.raises(ContractViolationError, match="must be Detections"):
        tracker.step(0, [])
    assert tracker.frame is None


def test_failed_update_leaves_bank_unchanged():
    tracker = _three_track_tracker()
    tracker.bank.cov[1] = np.nan
    before = _state(tracker)
    with pytest.raises(NumericalError,
                       match=r"track 2: innovation variance \[nan, nan\]"):
        tracker.step(4, detections([(20.0 * k, 10.4) for k in range(3)]))
    assert _state(tracker) == before


def test_negative_innovation_variance_leaves_bank_unchanged():
    # a position variance below -R on one axis: s < 0 after the predict
    tracker = _three_track_tracker()
    tracker.bank.cov[2, 0, 0] = -1e3   # packed P00 of the first axis
    before = _state(tracker)
    with pytest.raises(NumericalError, match="track 3: innovation variance"):
        tracker.step(4, detections([(20.0 * k, 10.4) for k in range(3)]))
    assert _state(tracker) == before


def test_failed_update_with_dynamics_off_leaves_bank_unchanged():
    # The bank keeps one covariance per track, so one innovation variance;
    # the error still gives it per axis.
    tracker = _three_track_tracker(dynamics=False)
    assert tracker.bank.cov.shape == (3, 1, 10)
    tracker.bank.cov[1] = np.nan
    before = _state(tracker)
    with pytest.raises(NumericalError,
                       match=r"track 2: innovation variance \[nan, nan\]"):
        tracker.step(4, detections([(20.0 * k, 10.4) for k in range(3)]))
    assert _state(tracker) == before


def test_negative_innovation_variance_with_dynamics_off_leaves_bank_unchanged():
    # the shared position variance below -R: s < 0 on both axes
    tracker = _three_track_tracker(dynamics=False)
    tracker.bank.cov[2, 0, 0] = -1e3
    before = _state(tracker)
    with pytest.raises(NumericalError,
                       match=r"track 3: innovation variance \[-\d+\.\d+, -\d+\.\d+\]"):
        tracker.step(4, detections([(20.0 * k, 10.4) for k in range(3)]))
    assert _state(tracker) == before


def test_non_finite_predicted_mean_raises_without_changing_state():
    # Unchecked, such a track could never match again (its distance is
    # nan): it would be reported at x = nan and a duplicate born at its
    # detection.
    tracker = _three_track_tracker()
    tracker.bank.mean[1, 0, 1] = np.nan
    before = _state(tracker)
    with pytest.raises(NumericalError,
                       match=r"tracks \[2\]: predicted state is not finite"):
        tracker.step(4, detections([(20.0 * k, 10.4) for k in range(3)]))
    assert _state(tracker) == before


def test_failed_update_names_track_id_after_unmatched_row():
    # bank row 0 goes unmatched, so the failing bank row 2 is the second
    # state of the matched stack; the error must name that row's track id
    tracker = _three_track_tracker()
    tracker.bank.cov[2] = np.nan
    before = _state(tracker)
    with pytest.raises(NumericalError,
                       match=r"track 3: innovation variance \[nan, nan\]"):
        tracker.step(4, detections([(20.0 * k, 10.4) for k in (1, 2)]))
    assert _state(tracker) == before


@pytest.mark.parametrize("order", [1, 2, 3])
def test_step_builds_no_packing_table(monkeypatch, order):
    # The packing index tables and the packed transition are built at import
    # and at construction; one `np.triu_indices` call per step costs tens
    # of microseconds, a tenth of a small scene's step.
    tracker = MultiObjectTracker(RunConfig(model_order=order, min_hits=2,
                                           gate_distance=4.0))

    def refuse(*args, **kwargs):
        raise AssertionError("a packing table was built during a step")

    for owner, name in ((np, "triu_indices"), (np, "kron"),
                        (flt, "packed_transition")):
        monkeypatch.setattr(owner, name, refuse)
    for frame in range(12):
        # three steady objects; one seen every other frame, born anew each
        # time since a miss ends it while tentative; one new object a frame
        points = [(20.0 * k + 0.1 * frame, 10.0) for k in range(3)]
        points += [(80.0, 10.0)] * (frame % 2) + [(200.0 + 20.0 * frame, 0.0)]
        tracker.step(frame, detections(points))
    assert tracker.births == 3 + 6 + 12
    assert (tracker.bank.weights != 1.0).any()


@st.composite
def _schedules(draw):
    """Per-frame detection flags for a few well-separated objects."""
    objects = draw(st.integers(1, 4))
    frames = draw(st.integers(2, 40))
    hits = draw(st.lists(st.lists(st.booleans(), min_size=objects,
                                  max_size=objects),
                         min_size=frames, max_size=frames))
    return hits, draw(st.integers(0, 2 ** 16)), draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(_schedules())
def test_bank_invariants_over_hit_miss_schedules(schedule):
    hits, seed, dynamics = schedule
    rng = np.random.default_rng(seed)
    cfg = RunConfig(min_hits=2, max_misses=3, gate_distance=4.0,
                    dynamics_enabled=dynamics)
    tracker = MultiObjectTracker(cfg)
    start = rng.uniform(-5.0, 5.0, size=(len(hits[0]), 2)) \
        + np.arange(len(hits[0]))[:, None] * [50.0, 0.0]
    velocity = rng.uniform(-2.0, 2.0, size=start.shape)
    frozen = {}
    for frame, flags in enumerate(hits):
        truth = start + velocity * frame * cfg.dt
        noisy = truth + rng.normal(0.0, 0.1, size=truth.shape)
        tracker.step(frame, detections([xy for xy, seen in zip(noisy, flags)
                                        if seen]))
        bank = tracker.bank
        # Every per-row array, including one added later, keeps one row per
        # live track through births and deaths.
        for owner in (bank, bank.window):
            for name in dir(owner):
                value = getattr(owner, name)
                if isinstance(value, np.ndarray):
                    assert len(value) == len(bank), name
        for row, track in enumerate(tracker.tracks):
            assert validate_estimate(StateEstimate(bank.mean[row],
                                                   unpack(bank.cov[row])))
            key = track.track_id
            weights = bank.weights[row].tobytes()
            if bank.misses[row] > 0 and key in frozen:
                assert weights == frozen[key]
            frozen[key] = weights
            if not dynamics:
                assert np.all(bank.weights[row] == 1.0)


@pytest.mark.parametrize("dynamics", [False, True])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_a_lone_track_steps_as_it_does_beside_a_far_companion(order, dynamics):
    # numpy multiplies a lone row by gemv, which rounds differently from the
    # gemm of two or more rows. A second object leaves after 8 frames, then
    # one track is alone, matched and coasting; beside a companion 10 km
    # away, stepped alongside, its state is the same bits at every step.
    path = _noisy_cv_positions(n=40, seed=order)
    gaps = {15, 16, 24, 31}
    cfg = RunConfig(model_order=order, dynamics_enabled=dynamics, min_hits=2,
                    max_misses=5, gate_distance=4.0)
    alone, beside = MultiObjectTracker(cfg), MultiObjectTracker(cfg)
    lone_steps = 0
    for frame, xy in enumerate(path):
        points = [] if frame in gaps else [tuple(xy)]
        points += [(xy[0] + 30.0, 5.0)] * (frame < 8)
        alone.step(frame, detections(points))
        beside.step(frame, detections(points + [(1e4, -1e4 + frame * 0.1)]))
        if alone.bank.ids.tolist() == [1]:
            lone_steps += 1
            assert beside.bank.ids[0] == 1 and len(beside.bank) == 2
            for name in ("mean", "cov"):
                lone, twin = getattr(alone.bank, name), getattr(beside.bank, name)
                assert lone[0].tobytes() == twin[0].tobytes(), (frame, name)
    assert lone_steps >= 25


# -- dynamics interplay ---------------------------------------------------

def _noisy_cv_positions(n=60, seed=2, sigma=0.3, speed=1.2):
    rng = np.random.default_rng(seed)
    truth = np.stack([np.arange(n) * speed * 0.1, np.full(n, 20.0)], axis=1)
    return truth + rng.normal(0.0, sigma, size=truth.shape)


def _lifecycle_scene(seed, n_frames=40):
    """Detections of 6 moving objects, about a third of them dropped, plus
    clutter: tracks are born, matched, coast, and die under max_misses=1."""
    _, hyps = random_tracking_scene(np.random.default_rng(seed), n_objects=6,
                                    n_frames=n_frames, drop=0.3, spurious=0.8)
    return frames_from_positions([[p for _, p in frame] for frame in hyps])


def _saw_whole_lifecycle(tracker, coasted):
    """Births, matches, coasting and deaths all happened in the run."""
    return (coasted and tracker.bank.hits.max() > 3
            and tracker.births > len(tracker.bank))


def test_dynamics_off_never_touches_window(monkeypatch):
    # Dynamics off carries no dynamics state: the window and ring keep zero
    # capacity and one row per track through births, matches, misses and
    # deaths, every weight stays exactly one, predict gets no weights and
    # both axes share one covariance.
    # With dynamics on, predict gets each row's (axes, n) diagonal.
    seen = []
    real = flt.predict

    def recording(est, transition, weights, noise):
        seen.append(None if weights is None else np.shape(weights))
        return real(est, transition, weights, noise)

    monkeypatch.setattr(flt, "predict", recording)
    for dynamics in (False, True):
        tracker = MultiObjectTracker(RunConfig(dynamics_enabled=dynamics,
                                               max_misses=1))
        bank, coasted = tracker.bank, False
        for frame, dets in enumerate(_lifecycle_scene(seed=3)):
            rows = len(bank)
            tracker.step(frame, dets)
            coasted |= bool(bank.misses.any())
            if dynamics:
                assert seen[-1] == (rows, 2, 4)
                continue
            assert seen[-1] is None
            assert bank.cov.shape == (len(bank), 1, 10)
            assert bank.window.positions.shape == (len(bank), 0, 2)
            assert bank.ring.shape == (len(bank), 0, 2, 4)
            assert bank.weights.shape == (len(bank), 2, 4)
            assert np.all(bank.weights == 1.0)
        assert len(seen) == frame + 1
        seen.clear()
        assert _saw_whole_lifecycle(tracker, coasted)


def test_dynamics_on_populates_window_and_weights():
    cfg = single_target_config()
    tracker = run_single_target(_noisy_cv_positions(), cfg)
    bank = tracker.bank
    assert bank.hits[0] >= cfg.transition_window
    assert bank.window.positions[0].all()
    weights = bank.weights[0]
    assert weights.shape == (2, 4)
    assert np.all(weights[:, 0] == 1.0)
    assert np.all(weights >= 0.0) and np.all(weights <= 1.0)


def test_saturated_factors_match_baseline_exactly():
    # factors tiny enough that every weight clamps to exactly one, so the
    # weighted transition is bitwise the plain transition
    positions = _noisy_cv_positions(n=80)
    base = run_single_target(positions, single_target_config(dynamics_enabled=False))
    sat = run_single_target(positions, single_target_config(
        factor_velocity=1e-9, factor_acceleration=1e-9, factor_jerk=1e-9))
    base_upd = trajectory_by_source(base, "updated")
    sat_upd = trajectory_by_source(sat, "updated")
    assert base_upd == sat_upd
    base_pred = trajectory_by_source(base, "predicted")
    sat_pred = trajectory_by_source(sat, "predicted")
    assert base_pred == sat_pred
    # The same over a scene with births, deaths, coasting and clutter at every
    # order: dynamics off predicts unweighted, saturated dynamics on with
    # exact-one weights, and the two must agree bitwise after every step;
    # dynamics off keeps one covariance, which must equal every axis's.
    for order in (1, 2, 3):
        cfg = RunConfig(model_order=order, max_misses=1)
        base = MultiObjectTracker(cfg.replace(dynamics_enabled=False))
        sat = MultiObjectTracker(cfg.replace(
            factor_velocity=1e-9, factor_acceleration=1e-9, factor_jerk=1e-9))
        coasted = False
        for frame, dets in enumerate(_lifecycle_scene(seed=order)):
            b, s = base.step(frame, dets), sat.step(frame, dets)
            assert b.ids.tobytes() == s.ids.tobytes()
            assert b.position.tobytes() == s.position.tobytes()
            assert base.bank.mean.tobytes() == sat.bank.mean.tobytes()
            shared = np.broadcast_to(base.bank.cov, sat.bank.cov.shape)
            assert shared.tobytes() == sat.bank.cov.tobytes()
            coasted |= bool(base.bank.misses.any())
        assert _saw_whole_lifecycle(base, coasted)


def test_weights_frozen_while_coasting():
    cfg = single_target_config()
    positions = _noisy_cv_positions(n=40)
    tracker = MultiObjectTracker(cfg)
    for frame in range(30):
        tracker.step(frame, detections([positions[frame]]))
    bank = tracker.bank
    before = bank.weights[0].copy()
    for frame in range(30, 36):
        report = tracker.step(frame, detections())
    assert [s.status for s in report] == ["coasting"]
    npt.assert_array_equal(bank.weights[0], before)


@pytest.mark.parametrize("smoothing", [1, 3, 4])
def test_weight_ring_matches_reference_smoothing(smoothing):
    # Object 0 coasts through frames 12-15 and is reacquired, object 1
    # leaves after frame 19 and its row is dropped, object 2 is born at
    # frame 10. After every step each row's weights must be the mean of its
    # last `smoothing` raw weights, rebuilt here from the row's window.
    cfg = RunConfig(smoothing_window=smoothing, max_misses=5)
    factors = dyn.dynamics_factors(cfg.factor_velocity, cfg.factor_acceleration,
                                   cfg.factor_jerk)
    ones = np.ones((2, 4))
    support = max(dyn.MIN_WINDOW, cfg.model_order + 1)
    rng = np.random.default_rng(7)
    tracker = MultiObjectTracker(cfg)
    bank = tracker.bank
    raw, hits, coasted, reacquired = {}, {}, set(), set()
    for frame in range(40):
        t = 0.1 * frame
        points = np.array([p for p, shown in zip(
            [(1.5 * t, 0.0), (0.0, 20.0 + 0.6 * t), (30.0 - t, 40.0 + 0.2 * t * t)],
            [not 12 <= frame < 16, frame < 20, frame >= 10]) if shown])
        tracker.step(frame, detections(points + rng.normal(0.0, 0.1, points.shape)))
        for row, track_id in enumerate(bank.ids.tolist()):
            if bank.hits[row] > hits.get(track_id, 1):  # matched this step
                # the birth position and one per match, the last W of them
                count = min(bank.hits[row], cfg.transition_window)
                window = bank.window.positions[row, :count]
                raw.setdefault(track_id, []).append(
                    dyn.update_weights(dynamics_vector(window), factors)
                    if count >= support else ones)
                if track_id in coasted:
                    reacquired.add(track_id)
            hits[track_id] = bank.hits[row]
            if bank.misses[row] > 0:
                coasted.add(track_id)
            expected = (smooth_weights(raw[track_id], smoothing)
                        if track_id in raw else ones)
            npt.assert_allclose(bank.weights[row], expected, rtol=0, atol=1e-12)
    assert reacquired
    assert len(bank) < tracker.births


@st.composite
def _refresh_scenes(draw):
    """A config and up to 5 objects, each with a birth frame, a last frame
    and gap frames in between, far enough apart that a detection only ever
    gates with its own object's track."""
    order = draw(st.integers(1, 3))
    window = draw(st.integers(max(dyn.MIN_WINDOW, order + 1), 10))
    n_frames = draw(st.integers(4, 30))
    objects = draw(st.lists(st.tuples(
        st.integers(0, min(n_frames - 1, 8)), st.integers(0, n_frames - 1),
        st.sets(st.integers(0, n_frames - 1), max_size=4)), min_size=1, max_size=5))
    return (order, window, draw(st.integers(1, 5)), draw(st.integers(0, 3)),
            draw(st.integers(0, 2 ** 32 - 1)), n_frames,
            [(birth, max(birth, last), gaps) for birth, last, gaps in objects])


# All objects born together, so every refresh has rows of one fill; then
# births at several frames, so refreshes mix fills until the windows fill.
@example(scene=(3, 6, 2, 2, 1, 20, [(0, 19, set()), (0, 19, {5, 6}), (0, 12, set())]))
@example(scene=(2, 8, 4, 3, 2, 25, [(0, 24, {9}), (3, 24, set()), (5, 20, {11, 12}),
                                    (12, 24, set())]))
@settings(max_examples=150, deadline=None)
@given(scene=_refresh_scenes())
def test_weight_refresh_matches_reference_over_mixed_and_single_fills(scene):
    # After every step, each refreshed row's new ring slot is bitwise the
    # reference raw weights of the row's own window, its weights are the
    # reference smoothing of its raw history, and the step made one
    # dynamics-vector call per distinct supported window fill.
    order, window, smoothing, max_misses, seed, n_frames, objects = scene
    cfg = RunConfig(model_order=order, transition_window=window,
                    smoothing_window=smoothing, min_hits=1, max_misses=max_misses)
    factors = dyn.dynamics_factors(cfg.factor_velocity, cfg.factor_acceleration,
                                   cfg.factor_jerk)
    support = max(dyn.MIN_WINDOW, order + 1)
    rng = np.random.default_rng(seed)
    velocity = rng.uniform(-2.0, 2.0, size=(len(objects), 2))
    tracker = MultiObjectTracker(cfg)
    bank = tracker.bank
    history, raw, hits = {}, {}, {}
    with mock.patch.object(dyn, "dynamics_vectors", wraps=dyn.dynamics_vectors) as spy:
        for frame in range(n_frames):
            shown = [k for k, (birth, last, gaps) in enumerate(objects)
                     if birth <= frame <= last and frame not in gaps]
            points = np.array([(50.0 * k, 10.0) + velocity[k] * 0.1 * frame
                               for k in shown]).reshape(-1, 2)
            points += rng.normal(0.0, 0.05, points.shape)
            spy.reset_mock()
            tracker.step(frame, detections(points))
            fills = set()
            for row, track_id in enumerate(bank.ids.tolist()):
                count = min(bank.hits[row], window)
                positions = bank.window.positions[row]
                if track_id not in history:   # born this step
                    assert bank.hits[row] == 1
                    history[track_id] = [positions[0].tolist()]
                elif bank.hits[row] > hits[track_id]:   # matched this step
                    history[track_id].append(positions[count - 1].tolist())
                    own = np.array(history[track_id][-count:])
                    assert positions[:count].tobytes() == own.tobytes()
                    expected = (dyn.update_weights(dynamics_vector(own), factors)
                                if count >= support else np.ones((2, 4)))
                    slot = (bank.hits[row] - 2) % smoothing
                    assert bank.ring[row, slot].tobytes() == expected.tobytes()
                    raw.setdefault(track_id, []).append(expected)
                    if count >= support:
                        fills.add(count)
                hits[track_id] = bank.hits[row]
                expected = (smooth_weights(raw[track_id], smoothing)
                            if track_id in raw else np.ones((2, 4)))
                npt.assert_allclose(bank.weights[row], expected, rtol=0, atol=1e-12)
            assert spy.call_count == len(fills)


def test_stationary_target_downweights_motion():
    rng = np.random.default_rng(9)
    positions = np.tile([5.0, 20.0], (60, 1)) + rng.normal(0.0, 0.02, (60, 2))
    tracker = run_single_target(positions, single_target_config())
    weights = tracker.bank.weights[0]
    assert np.all(weights[:, 1] < 0.2)
    assert np.all(weights[:, 2] < 0.5)


def test_fast_target_saturates_velocity_weight_along_motion():
    positions = _noisy_cv_positions(n=60, sigma=0.05, speed=8.0)
    tracker = run_single_target(positions, single_target_config())
    weights = tracker.bank.weights[0]
    assert weights[0, 1] == 1.0   # moving axis: fluctuation far above the factor
    assert weights[1, 1] < 0.5    # cross-track axis sees only noise


# -- reporting ------------------------------------------------------------

def test_snapshot_position_is_posterior_mean():
    cfg = single_target_config()
    tracker = MultiObjectTracker(cfg)
    report = tracker.step(0, detections([(1.0, 2.0)]))
    mean = tracker.bank.mean[0]
    npt.assert_array_equal(report.position, [mean[:, 0]])
    npt.assert_array_equal(next(iter(report)).position, mean[:, 0])


def test_aux_fields_smoothed_on_match():
    # elevation, yaw and dims are smoothed over the matches; score, bbox2d
    # and obj_type come from the last match
    cfg = single_target_config()
    tracker = MultiObjectTracker(cfg)
    tracker.step(0, detections([(0.0, 10.0)], elevation=1.0, yaw=0.0,
                               dims=(1.0, 2.0, 3.0), score=0.5))
    report = tracker.step(1, detections(
        [(0.0, 10.0)], obj_type="Van", elevation=2.0, yaw=1.0,
        dims=(2.0, 2.0, 2.0), score=0.25, bbox2d=(1.0, 2.0, 3.0, 4.0)))
    assert report.elevation[0] == pytest.approx(0.7 * 2.0 + 0.3 * 1.0)
    assert report.yaw[0] == pytest.approx(0.7)
    npt.assert_allclose(report.dims[0], [1.7, 2.0, 2.3])
    assert report.score.tolist() == [0.25]
    assert report.bbox2d.tolist() == [[1.0, 2.0, 3.0, 4.0]]
    assert report.obj_type.tolist() == ["Van"]


def test_trajectory_sources_recorded():
    positions = _noisy_cv_positions(n=10)
    tracker = run_single_target(positions, single_target_config(), gaps=(5,))
    sources = {TRAJECTORY_SOURCES[k] for _, _, _, codes in tracker.trajectory
               for k in codes.tolist()}
    assert sources == {"measurement", "predicted", "updated"}
    measured = trajectory_by_source(tracker, "measurement")
    assert set(measured) == set(range(10)) - {5}
    for frame, (x, y) in measured.items():
        assert (x, y) == (positions[frame][0], positions[frame][1])
    predicted = trajectory_by_source(tracker, "predicted")
    assert set(predicted) == set(range(1, 10))  # no track exists at frame 0


def test_run_returns_per_frame_snapshots():
    tracker = MultiObjectTracker(single_target_config())
    per_frame = tracker.run(_static_frames(3))
    assert len(per_frame) == 3
    assert all(len(snaps) == 1 for snaps in per_frame)


# -- latency ------------------------------------------------------------

def test_measure_latency_shape():
    frames = frames_from_positions([[(0.0, 10.0), (20.0, 10.0)]] * 30)
    report = measure_latency(frames, RunConfig(dynamics_enabled=False),
                             RunConfig(), warmup=10)
    assert len(report.baseline_ms) == 30
    assert len(report.dynamic_ms) == 30
    assert report.warmup == 10
    assert report.mean_baseline_ms > 0.0
    assert report.mean_dynamic_ms > 0.0
    assert report.mean_delta_ms == pytest.approx(
        report.mean_dynamic_ms - report.mean_baseline_ms)
    assert all(t >= 0.0 for t in report.baseline_ms)


def test_measure_latency_steps_in_lockstep_taking_turns(monkeypatch):
    # Frame by frame, both trackers step, the baseline first on even frames;
    # each keeps the reports it would give on its own.
    frames = frames_from_positions([[(0.1 * t, 10.0), (20.0, 10.0 + 0.2 * t)]
                                    for t in range(6)])
    alone = [MultiObjectTracker(cfg).run(frames)
             for cfg in (RunConfig(dynamics_enabled=False), RunConfig())]
    calls = []
    real = MultiObjectTracker.step

    def recording(tracker, frame, detections):
        calls.append((frame, tracker.cfg.dynamics_enabled))
        return real(tracker, frame, detections)

    monkeypatch.setattr(MultiObjectTracker, "step", recording)
    report = measure_latency(frames, RunConfig(dynamics_enabled=False),
                             RunConfig(), warmup=2)
    assert calls == [(f, dynamic) for f in range(6)
                     for dynamic in ((False, True), (True, False))[f % 2]]
    for expected, got in zip(alone, (report.baseline_reports,
                                     report.dynamic_reports)):
        assert [(r.ids.tolist(), r.position.tolist()) for r in got] == \
            [(r.ids.tolist(), r.position.tolist()) for r in expected]


@pytest.mark.parametrize("warmup", [30, 1000])
def test_measure_latency_rejects_warmup_without_timed_frames(warmup):
    frames = frames_from_positions([[(0.0, 10.0)]] * 30)
    with pytest.raises(InputError, match="leaves none of the 30 frames"):
        measure_latency(frames, RunConfig(dynamics_enabled=False), RunConfig(),
                        warmup=warmup)


def test_measure_latency_rejects_a_negative_warmup():
    # A negative slice start would average only the last frames.
    frames = frames_from_positions([[(0.0, 10.0)]] * 30)
    with pytest.raises(InputError, match="warmup must be >= 0, got -1"):
        measure_latency(frames, RunConfig(dynamics_enabled=False), RunConfig(),
                        warmup=-1)
