"""Metric correctness: CLEAR-MOT counters and IDF1 pairing."""

import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynatrack.config import RunConfig
from dynatrack import association as asc, kitti_io as kio, metrics
from dynatrack.association import MAX_CONTESTED_CELLS
from dynatrack.errors import ContractViolationError, InputError, UndefinedMetricError
from dynatrack.frames import FrameReport
from dynatrack.kitti_io import GroundTruthRecord
from dynatrack.metrics import clearmot, idf1
from dynatrack.occlusion import OcclusionSpec, occlude_dataset
from dynatrack.tracker import MultiObjectTracker

from helpers import (PEAK_RSS, frames_from_positions, python_stdout,
                     random_tracking_scene, reference_clearmot, reference_idf1,
                     row_shuffled_in_gate, tied_grid_scene)


def _frames(*per_frame):
    """Each argument is one frame: a list of (id, x, y) triples."""
    return [[(tid, np.array([x, y])) for tid, x, y in frame]
            for frame in per_frame]


def test_clearmot_perfect_tracking():
    gt = _frames([(1, 0.0, 0.0), (2, 10.0, 0.0)],
                 [(1, 0.5, 0.0), (2, 10.5, 0.0)])
    hyp = _frames([(7, 0.1, 0.0), (8, 10.1, 0.0)],
                  [(7, 0.6, 0.0), (8, 10.6, 0.0)])
    m = clearmot(gt, hyp)
    assert m.mota == 1.0
    assert (m.false_positives, m.false_negatives, m.id_switches) == (0, 0, 0)
    assert m.gt_total == 4
    assert m.matches == 4


def test_clearmot_counts_misses_and_false_positives():
    gt = _frames([(1, 0.0, 0.0)], [(1, 0.0, 0.0)])
    hyp = _frames([], [(7, 0.0, 0.0), (8, 50.0, 0.0)])
    m = clearmot(gt, hyp)
    assert m.false_negatives == 1
    assert m.false_positives == 1
    assert m.id_switches == 0
    assert m.mota == pytest.approx(1.0 - 2.0 / 2.0)


def test_clearmot_counts_identity_switch():
    gt = _frames([(1, 0.0, 0.0)], [(1, 0.0, 0.0)])
    hyp = _frames([(7, 0.0, 0.0)], [(8, 0.0, 0.0)])
    m = clearmot(gt, hyp)
    assert m.id_switches == 1
    assert m.mota == pytest.approx(0.5)


def test_clearmot_switch_counted_across_gap():
    # the id change is charged when the object is next matched, even with
    # unmatched frames in between
    gt = _frames([(1, 0.0, 0.0)], [(1, 0.0, 0.0)], [(1, 0.0, 0.0)])
    hyp = _frames([(7, 0.0, 0.0)], [], [(8, 0.0, 0.0)])
    m = clearmot(gt, hyp)
    assert m.id_switches == 1
    assert m.false_negatives == 1


def test_clearmot_keeps_previous_correspondence():
    # hyp 7 carried from frame 0 beats the marginally closer newcomer 8
    gt = _frames([(1, 0.0, 0.0)], [(1, 0.0, 0.0)])
    hyp = _frames([(7, 0.2, 0.0)], [(7, 0.3, 0.0), (8, 0.1, 0.0)])
    m = clearmot(gt, hyp)
    assert m.id_switches == 0
    assert m.false_positives == 1
    # also when the carried pair lies exactly at the threshold
    hyp = _frames([(7, 0.0, 0.0)], [(7, 2.0, 0.0), (8, 0.5, 0.0)])
    assert clearmot(gt, hyp, threshold=2.0).id_switches == 0


def test_clearmot_carries_over_through_the_last_row_of_an_id():
    # Hyp 7 appears twice in frame 1; its correspondence is looked up by id,
    # so only its last row, out of the gate, can carry it over, and gt 1
    # then takes the nearer hyp 9: one switch.
    gt = _frames([(1, 0.0, 0.0)], [(1, 0.0, 0.0)])
    hyp = _frames([(7, 0.0, 0.0)], [(7, 1.9, 0.0), (9, 0.0, 0.0), (7, 50.0, 0.0)])
    got = clearmot(gt, hyp)
    assert got.id_switches == reference_clearmot(gt, hyp)["id_switches"] == 1


def test_clearmot_respects_threshold():
    gt = _frames([(1, 0.0, 0.0)])
    hyp = _frames([(7, 2.1, 0.0)])
    m = clearmot(gt, hyp, threshold=2.0)
    assert m.matches == 0
    assert m.false_negatives == 1
    assert m.false_positives == 1
    assert clearmot(gt, hyp, threshold=2.5).matches == 1


def test_clearmot_empty_ground_truth_is_undefined():
    with pytest.raises(UndefinedMetricError, match="no objects"):
        clearmot(_frames([], []), _frames([(7, 0.0, 0.0)], []))


def test_clearmot_mota_can_go_negative():
    gt = _frames([(1, 0.0, 0.0)])
    hyp = _frames([(7, 50.0, 0.0), (8, 60.0, 0.0), (9, 70.0, 0.0)])
    m = clearmot(gt, hyp)
    assert m.mota == pytest.approx(1.0 - 4.0)


def test_idf1_perfect():
    gt = _frames([(1, 0.0, 0.0)], [(1, 1.0, 0.0)])
    hyp = _frames([(7, 0.0, 0.0)], [(7, 1.0, 0.0)])
    s = idf1(gt, hyp)
    assert s.idf1 == 1.0
    assert (s.idtp, s.idfp, s.idfn) == (2, 0, 0)
    assert s.idp == 1.0 and s.idr == 1.0


def test_idf1_half_coverage_hand_value():
    gt = [[(1, np.array([0.0, 0.0]))] for _ in range(10)]
    hyp = [[(7, np.array([0.0, 0.0]))] for _ in range(5)] + [[] for _ in range(5)]
    s = idf1(gt, hyp)
    assert (s.idtp, s.idfn, s.idfp) == (5, 5, 0)
    assert s.idf1 == pytest.approx(2 * 5 / (2 * 5 + 0 + 5))


def test_idf1_picks_dominant_identity():
    # hyp 7 covers 3 frames, hyp 8 covers 5; the global pairing takes 8
    gt = [[(1, np.array([0.0, 0.0]))] for _ in range(8)]
    hyp = [[(7, np.array([0.0, 0.0]))] for _ in range(3)] + \
          [[(8, np.array([0.0, 0.0]))] for _ in range(5)]
    s = idf1(gt, hyp)
    assert s.idtp == 5
    assert s.idfp == 3
    assert s.idfn == 3


def test_idf1_empty_everything_is_zero():
    s = idf1([[], []], [[], []])
    assert s.idf1 == 0.0
    assert (s.idtp, s.idfp, s.idfn) == (0, 0, 0)


def test_metrics_match_reference_on_hand_scenarios():
    scenes = [
        # crossing targets
        ([[(1, 0.0, 0.0), (2, 5.0, 0.0)], [(1, 2.0, 0.0), (2, 3.0, 0.0)],
          [(1, 4.0, 0.0), (2, 1.0, 0.0)]],
         [[(7, 0.1, 0.0), (8, 5.1, 0.0)], [(7, 2.1, 0.0), (8, 3.1, 0.0)],
          [(8, 4.1, 0.0), (7, 1.1, 0.0)]]),
        # late birth and early death
        ([[(1, 0.0, 0.0)], [(1, 0.0, 0.0), (2, 9.0, 0.0)], [(2, 9.0, 0.0)]],
         [[], [(7, 0.2, 0.0)], [(7, 9.2, 0.0)]]),
        # everything out of range
        ([[(1, 0.0, 0.0)]], [[(7, 30.0, 0.0)]]),
    ]
    for gt_spec, hyp_spec in scenes:
        gt = _frames(*gt_spec)
        hyp = _frames(*hyp_spec)
        got = clearmot(gt, hyp)
        ref = reference_clearmot(gt, hyp)
        assert got.mota == ref["mota"]
        assert got.false_positives == ref["false_positives"]
        assert got.false_negatives == ref["false_negatives"]
        assert got.id_switches == ref["id_switches"]
        got_id = idf1(gt, hyp)
        ref_id = reference_idf1(gt, hyp)
        assert got_id.idf1 == ref_id["idf1"]
        assert got_id.idtp == ref_id["idtp"]


def test_metrics_match_reference_on_random_scenes():
    rng = np.random.default_rng(31)
    for _ in range(6):
        gt, hyp = random_tracking_scene(rng, n_objects=3, n_frames=8)
        got = clearmot(gt, hyp)
        ref = reference_clearmot(gt, hyp)
        assert (got.false_positives, got.false_negatives, got.id_switches) == \
            (ref["false_positives"], ref["false_negatives"], ref["id_switches"])
        assert idf1(gt, hyp).idtp == reference_idf1(gt, hyp)["idtp"]


# Coordinates either free or on a 0.5 m grid, where squared distances are
# exact: duplicate positions and pairs exactly at the threshold then occur.
_COORDS = st.one_of(st.floats(-6.0, 6.0, allow_nan=False),
                    st.integers(-12, 12).map(lambda k: 0.5 * k))


def _objects(ids):
    """One frame: a subset of `ids`, each at a drawn position (maybe none)."""
    return st.lists(st.tuples(st.sampled_from(ids), _COORDS, _COORDS),
                    max_size=len(ids), unique_by=lambda item: item[0]).map(
        lambda items: [(i, np.array([x, y])) for i, x, y in items])


@st.composite
def _tiny_scenes(draw):
    """Up to 4 gt and 4 hyp objects over up to 6 frames, empty frames included."""
    gt_ids = list(range(1, draw(st.integers(1, 4)) + 1))
    hyp_ids = list(range(101, draw(st.integers(1, 4)) + 101))
    frames = draw(st.integers(1, 6))
    gt = draw(st.lists(_objects(gt_ids), min_size=frames, max_size=frames))
    hyp = draw(st.lists(_objects(hyp_ids), min_size=frames, max_size=frames))
    return gt, hyp


@settings(max_examples=300, deadline=None)
@given(scene=_tiny_scenes(), threshold=st.sampled_from([0.5, 1.0, 2.0]))
def test_metrics_match_reference_on_tiny_scenes(scene, threshold):
    gt, hyp = scene
    got_id = idf1(gt, hyp, threshold)
    ref_id = reference_idf1(gt, hyp, threshold)
    assert (got_id.idtp, got_id.idfp, got_id.idfn) == \
        (ref_id["idtp"], ref_id["idfp"], ref_id["idfn"])
    if not any(gt):
        with pytest.raises(UndefinedMetricError):
            clearmot(gt, hyp, threshold)
        return
    got = clearmot(gt, hyp, threshold)
    ref = reference_clearmot(gt, hyp, threshold)
    assert (got.false_positives, got.false_negatives, got.id_switches,
            got.gt_total, got.matches) == \
        (ref["false_positives"], ref["false_negatives"], ref["id_switches"],
         ref["gt_total"], ref["matches"])


_KINDS = ("empty", "gt only", "hyp only", "both")


@st.composite
def _mixed_sequences(draw):
    """Up to 3 gt and 3 hyp objects over 4 to 10 frames among which every
    kind occurs: empty, gt rows only, hyp rows only and both; one side may
    end early, and one hyp id may appear twice in a frame. Also a chunk
    budget for `frame_chunks`."""
    extra = draw(st.lists(st.sampled_from(_KINDS), max_size=6))
    kinds = draw(st.permutations(list(_KINDS) + extra))
    gt_ids, hyp_ids = [1, 2, 3], [101, 102, 103]
    gt = [draw(_objects(gt_ids).filter(bool)) if kind in ("gt only", "both")
          else [] for kind in kinds]
    hyp = [draw(_objects(hyp_ids).filter(bool)) if kind in ("hyp only", "both")
           else [] for kind in kinds]
    if draw(st.booleans()):
        frame = draw(st.sampled_from([f for f in hyp if f]))
        frame.append((draw(st.sampled_from([i for i, _ in frame])),
                      np.array([draw(_COORDS), draw(_COORDS)])))
    cut = draw(st.integers(0, 2))
    if draw(st.booleans()):
        gt = gt[:len(gt) - cut]
    else:
        hyp = hyp[:len(hyp) - cut]
    return gt, hyp, draw(st.sampled_from([1, 2, 5, metrics.GATE_CHUNK_POINTS]))


def _record(frame: int, track_id: int, position) -> GroundTruthRecord:
    """A label at ground `position`, its camera location holding it as
    (x, z)."""
    return GroundTruthRecord(
        frame=frame, obj_type="Car", truncated=0.0, occluded=0, alpha=0.0,
        bbox2d=(0.0, 0.0, 80.0, 40.0), dims=(1.5, 1.8, 4.2),
        location=kio.camera_location(position, 1.5), rotation_y=0.0,
        score=1.0, track_id=track_id)


def _report(frame: int, pairs) -> FrameReport:
    """A `FrameReport` whose rows are the (id, position) `pairs`."""
    n = len(pairs)
    return FrameReport(
        frame=frame, ids=np.array([i for i, _ in pairs], dtype=np.int64),
        position=np.array([p for _, p in pairs], dtype=float).reshape(n, 2),
        status=np.zeros(n, dtype=np.int8), elevation=np.zeros(n),
        yaw=np.zeros(n), dims=np.zeros((n, 3)), score=np.zeros(n),
        bbox2d=np.zeros((n, 4)), obj_type=np.array(["Car"] * n, dtype=object))


# Every kind of frame scoring takes, each built from (id, position) pairs;
# "reports with []" gives an empty frame as `[]`, as a caller does for a step
# that failed.
_FRAME_KINDS = {
    "pairs": lambda f, pairs: pairs,
    "records": lambda f, pairs: [_record(f, i, p) for i, p in pairs],
    "labels": lambda f, pairs: kio.as_labels([_record(f, i, p) for i, p in pairs]),
    "reports": _report,
    "reports with []": lambda f, pairs: _report(f, pairs) if pairs else [],
}


def _as_kind(frames, kind: str) -> list:
    return [_FRAME_KINDS[kind](f, pairs) for f, pairs in enumerate(frames)]


@settings(max_examples=200, deadline=None)
@given(scene=_mixed_sequences(), threshold=st.sampled_from([0.5, 1.0, 2.0]),
       kinds=st.tuples(*[st.sampled_from(sorted(_FRAME_KINDS))] * 2))
def test_sequence_scores_match_reference_across_empty_and_one_sided_frames(
        scene, threshold, kinds):
    # The scores are also the same whatever kind of frame each side is.
    gt, hyp, budget = scene
    gt_kind, hyp_kind = _as_kind(gt, kinds[0]), _as_kind(hyp, kinds[1])
    with mock.patch.object(metrics, "GATE_CHUNK_POINTS", budget):
        got_id = idf1(gt, hyp, threshold)
        got = clearmot(gt, hyp, threshold) if any(gt) else None
        both = metrics.score(gt, hyp, threshold) if any(gt) else None
        assert idf1(gt_kind, hyp_kind, threshold) == got_id
        if both is not None:
            assert metrics.score(gt_kind, hyp_kind, threshold) == both
    ref_id = reference_idf1(gt, hyp, threshold)
    assert (got_id.idtp, got_id.idfp, got_id.idfn) == \
        (ref_id["idtp"], ref_id["idfp"], ref_id["idfn"])
    if got is not None:
        assert both == (got, got_id)
        ref = reference_clearmot(gt, hyp, threshold)
        assert (got.false_positives, got.false_negatives, got.id_switches,
                got.gt_total, got.matches) == \
            (ref["false_positives"], ref["false_negatives"], ref["id_switches"],
             ref["gt_total"], ref["matches"])


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


def _scored_scene(rng):
    """Up to 5 objects over 12 to 24 frames in a 10 m square, each seen in
    most frames, and per frame their hypotheses with noise, the odd id swap
    and clutter, every id once: as (id, position) pairs, from `rng`, so no
    two distances tie."""
    n_frames, n_objects = rng.integers(12, 25), rng.integers(1, 6)
    start = rng.uniform(0.0, 10.0, (n_objects, 2))
    velocity = rng.uniform(-0.3, 0.3, (n_objects, 2))
    gt, hyp = [], []
    for f in range(n_frames):
        seen = np.flatnonzero(rng.random(n_objects) < 0.9)
        truth = start[seen] + f * velocity[seen]
        gt.append(list(zip((seen + 1).tolist(), truth)))
        kept = rng.random(len(seen)) < 0.85
        ids = seen[kept] + 101
        if len(ids) > 1 and rng.random() < 0.1:
            ids[:2] = ids[1::-1]
        clutter = rng.integers(0, 3)
        ids = np.concatenate([ids, 200 + np.arange(clutter)])
        points = np.concatenate([truth[kept] + rng.normal(0.0, 0.7, (kept.sum(), 2)),
                                 rng.uniform(0.0, 10.0, (clutter, 2))])
        hyp.append(list(zip(ids.tolist(), points)))
    return gt, hyp


def _scored_and_occluded(gt, hyp, kinds, spec):
    """`score` of the scene with each side as its kind of frame, and
    `occlude_dataset` of the hypotheses as detections: (scores, dropped
    frames by id, the ids of each frame's kept hypotheses, ascending)."""
    gt = _as_kind(gt, kinds[0])
    occluded, dropped = occlude_dataset(
        kio.SequenceDataset(sequence_id="s", detections=_as_kind(hyp, "records")),
        gt, spec)
    return (metrics.score(gt, _as_kind(hyp, kinds[1])), dropped,
            [sorted(kio.as_labels(frame).track_id.tolist())
             for frame in occluded.detections])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       relation=st.sampled_from(["axis swap", "shift", "shuffle"]),
       shift=st.tuples(*[st.floats(-1e4, 1e4)] * 2),
       kinds=st.tuples(st.sampled_from(["pairs", "records", "labels"]),
                       st.sampled_from(sorted(_FRAME_KINDS))),
       spec=st.builds(OcclusionSpec, kind=st.sampled_from(["mid", "late"]),
                      start_after=st.integers(1, 4), length=st.integers(1, 5)))
def test_scores_and_occlusion_hold_under_axis_swap_shift_and_shuffle(
        seed, relation, shift, kinds, spec):
    # One change to gt and hypotheses alike; the shuffle reorders each
    # frame's rows on both sides. A hypothesis id names one row of a frame.
    rng = np.random.default_rng(seed)
    gt, hyp = _scored_scene(rng)
    if relation == "axis swap":
        moved = [[[(i, p[::-1]) for i, p in frame] for frame in side]
                 for side in (gt, hyp)]
    elif relation == "shift":
        moved = [[[(i, p + shift) for i, p in frame] for frame in side]
                 for side in (gt, hyp)]
    else:
        moved = [[[frame[k] for k in rng.permutation(len(frame))] for frame in side]
                 for side in (gt, hyp)]
    want = _scored_and_occluded(gt, hyp, kinds, spec)
    got = _scored_and_occluded(*moved, kinds, spec)
    assert got == want


@pytest.mark.parametrize("scoring", [clearmot, idf1, metrics.score])
@pytest.mark.parametrize("side", ["ground truth", "hypothesis"])
def test_scoring_frames_without_track_ids_raises(scoring, side, tmp_path):
    # Parsed detections carry no track ids, and scoring needs them on both
    # sides.
    gt, hyp = random_tracking_scene(np.random.default_rng(3))
    path = tmp_path / "det.txt"
    kio.write_detections(_as_kind(hyp, "records"), path)
    no_ids = kio.parse_detections(path).detections
    pair = (no_ids, hyp) if side == "ground truth" else (gt, no_ids)
    with pytest.raises(ContractViolationError,
                       match=f"^{side} frames hold no track ids$"):
        scoring(*pair)


def _tracked_scored_and_occluded(gt, hyp, cfg, spec):
    """The bank's arrays after each step of tracking `hyp`'s positions, each
    report's ids, positions and statuses, `score` of `hyp` and of the
    reports against `gt`, and `occlude_dataset` of `hyp` as detections
    (dropped frames by id, each occluded frame's locations), all as bytes
    or values."""
    tracker = MultiObjectTracker(cfg)
    bank, states, reports = tracker.bank, [], []
    for frame, dets in enumerate(frames_from_positions(
            [[p for _, p in pairs] for pairs in hyp])):
        reports.append(tracker.step(frame, dets))
        states.append([getattr(bank, name).tobytes() for name in bank.FIELDS
                       if name != "obj_type"] + [bank.window.positions.tobytes()])
    occluded, dropped = occlude_dataset(
        kio.SequenceDataset(sequence_id="s", detections=_as_kind(hyp, "records")),
        gt, spec)
    threshold = spec.match_threshold
    return (states,
            [(r.ids.tobytes(), r.position.tobytes(), r.status.tobytes())
             for r in reports],
            metrics.score(gt, hyp, threshold), metrics.score(gt, reports, threshold),
            dropped, [kio.as_labels(frame).location.tobytes()
                      for frame in occluded.detections])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.integers(1, 3),
       dynamics=st.booleans(), gate=st.sampled_from([0.5, 1.0, 2.5]),
       spec=st.builds(OcclusionSpec, kind=st.sampled_from(["mid", "late"]),
                      start_after=st.integers(1, 4), length=st.integers(1, 5),
                      match_threshold=st.sampled_from([0.5, 1.0, 2.0])))
def test_results_do_not_depend_on_the_order_of_a_rows_in_gate_pairs(
        seed, order, dynamics, gate, spec):
    # Grid scenes full of exact ties, duplicate points and gt ids twice in
    # a frame: `in_gate` reordering each row's pairs, in the tracker and in
    # scoring alike, changes no bit of the bank, the reports, the scores or
    # the occluded detections.
    rng = np.random.default_rng(seed)
    gt, hyp = tied_grid_scene(rng)
    cfg = RunConfig(model_order=order, dynamics_enabled=dynamics, min_hits=2,
                    max_misses=2, gate_distance=gate)
    want = _tracked_scored_and_occluded(gt, hyp, cfg, spec)
    shuffled = row_shuffled_in_gate(rng)
    with mock.patch.object(asc, "in_gate", shuffled), \
            mock.patch.object(metrics, "in_gate", shuffled):
        got = _tracked_scored_and_occluded(gt, hyp, cfg, spec)
    assert got == want


@pytest.mark.parametrize("budget", [1, 20, metrics.GATE_CHUNK_POINTS])
def test_gated_chunks_equal_one_in_gate_call_per_frame(budget, monkeypatch):
    # Frames of 0 to 9 points a side, at overlapping coordinates, one side
    # ending early: the chunks give each frame's pairs, in order, and none
    # across frames. Each point's id is its row of the whole sequence.
    monkeypatch.setattr(metrics, "GATE_CHUNK_POINTS", budget)
    rng = np.random.default_rng(11)
    a_counts, b_counts = rng.integers(0, 10, (2, 40))
    b_counts[35:] = 0
    a = rng.uniform(0.0, 6.0, (a_counts.sum(), 2))
    b = rng.uniform(0.0, 6.0, (b_counts.sum(), 2))
    a0 = np.cumsum(a_counts) - a_counts
    b0 = np.cumsum(b_counts) - b_counts
    want = [[], [], []]
    for f in range(40):
        rows, cols, dist = asc.in_gate(a[a0[f]:a0[f] + a_counts[f]],
                                       b[b0[f]:b0[f] + b_counts[f]], 1.5)
        for part, value in zip(want, (rows + a0[f], cols + b0[f], dist)):
            part.extend(value.tolist())
    gt = [[(int(a0[f] + k), a[a0[f] + k]) for k in range(a_counts[f])]
          for f in range(40)]
    hyp = [[(int(b0[f] + k), b[b0[f] + k]) for k in range(b_counts[f])]
           for f in range(35)]
    got = [[], [], []]
    for gids, _, hids, _, (rows, cols, dist) in metrics.gated_chunks(gt, hyp, 1.5):
        for part, value in zip(got, (gids[rows], hids[cols], dist)):
            part.extend(value.tolist())
    assert got[:2] == want[:2]
    assert np.array(got[2]).tobytes() == np.array(want[2]).tobytes()
    assert len(got[0]) > 100


@pytest.mark.parametrize("budget", [1, 20, metrics.GATE_CHUNK_POINTS])
def test_score_walks_the_pair_once_and_equals_both_scores(budget, monkeypatch):
    monkeypatch.setattr(metrics, "GATE_CHUNK_POINTS", budget)
    gt, hyp = random_tracking_scene(np.random.default_rng(5), n_objects=8,
                                    n_frames=40)
    # New hypothesis ids every 15 frames: switches across chunk boundaries.
    hyp = [[(tid + 1000 * (f // 15), pos) for tid, pos in frame]
           for f, frame in enumerate(hyp)]
    walks = []
    gated_chunks = metrics.gated_chunks

    def counting(*args):
        walks.append(args)
        return gated_chunks(*args)

    monkeypatch.setattr(metrics, "gated_chunks", counting)
    both = metrics.score(gt, hyp, 1.5)
    assert len(walks) == 1
    assert both == (clearmot(gt, hyp, 1.5), idf1(gt, hyp, 1.5))
    assert both[0].id_switches > 0 and 0 < both[1].idf1 < 1


def test_score_raises_the_clearmot_error_first():
    # Empty ground truth leaves MOTA undefined, as `clearmot` alone says,
    # though IDF1 alone is defined.
    hyp = _frames([(7, 0.0, 0.0)])
    with pytest.raises(UndefinedMetricError, match="MOTA undefined"):
        metrics.score([[]], hyp)
    assert idf1([[]], hyp).idfp == 1


@pytest.mark.parametrize("budget", [1, 50, metrics.GATE_CHUNK_POINTS])
def test_idf1_crowd_in_mid_sequence_raises_the_crowds_error(budget, monkeypatch):
    # A crowd past the contested bound in frame 2 of 5 raises the error the
    # crowd raises alone, however the frames are chunked.
    monkeypatch.setattr(metrics, "GATE_CHUNK_POINTS", budget)
    side = math.isqrt(MAX_CONTESTED_CELLS)
    crowd_gt = [(i, (0.0, 0.0)) for i in range(side + 1)]
    crowd_hyp = [(i, (0.0, 0.0)) for i in range(side)]
    with pytest.raises(InputError) as alone:
        idf1([crowd_gt], [crowd_hyp])
    quiet = _frames([(10_000, 5.0, 5.0)], [])[0]
    quiet_hyp = _frames([(20_000, 5.0, 5.0)], [])[0]
    with pytest.raises(InputError) as mid:
        idf1([quiet, quiet, crowd_gt, quiet, quiet],
             [quiet_hyp, quiet_hyp, crowd_hyp, quiet_hyp, quiet_hyp])
    assert str(mid.value) == str(alone.value)
    assert f"{side + 1} x {side} candidate" in str(mid.value)


def test_idf1_counts_duplicate_ids_per_occurrence():
    # id 1 and id 7 both appear twice in frame 0: all four pairings overlap
    gt = _frames([(1, 0.0, 0.0), (1, 0.5, 0.0)], [(1, 0.0, 0.0)])
    hyp = _frames([(7, 0.0, 0.0), (7, 0.2, 0.0)], [(7, 9.0, 0.0)])
    got = idf1(gt, hyp)
    ref = reference_idf1(gt, hyp)
    assert (got.idtp, got.idfp, got.idfn) == (ref["idtp"], ref["idfp"], ref["idfn"])
    assert got.idtp == 4


def test_idf1_past_the_contested_bound_raises():
    # every gt id overlaps every hyp id in one frame: one component of
    # (side + 1) x side ids, just past the bound
    side = math.isqrt(MAX_CONTESTED_CELLS)
    gt = [[(i, (0.0, 0.0)) for i in range(side + 1)]]
    hyp = [[(i, (0.0, 0.0)) for i in range(side)]]
    with pytest.raises(InputError, match=f"{side + 1} x {side} candidate"):
        idf1(gt, hyp)


def test_clearmot_accepts_mixed_input_kinds():
    from dynatrack.synth import ObjectSpec, RegimeSegment, ScenarioSpec, generate
    from dynatrack.tracker import MultiObjectTracker
    spec = ScenarioSpec(
        objects=[ObjectSpec(initial_position=(0.0, 10.0),
                            segments=[RegimeSegment("cv", 12, (1.0, 0.0))])],
        noise_sigma=0.05, seed=2)
    gt, dets = generate(spec)
    from dynatrack.kitti_io import measurements_from
    tracker = MultiObjectTracker(RunConfig(min_hits=1))
    per_frame = tracker.run(measurements_from(dets))
    m = clearmot(gt.ground_truth, per_frame)   # KITTI labels vs frame reports
    assert m.gt_total == 12
    assert m.mota > 0.9


# 200 objects over 2,000 frames as parsed label frames: ground truth, a
# hypothesis at other ids and detections, each within 0.3 m noise.
_LONG_SEQUENCE = PEAK_RSS + """
import numpy as np
from dynatrack import kitti_io as kio, metrics, occlusion

n_objects, n_frames = 200, 2000
rng = np.random.default_rng(0)
start = rng.uniform(0.0, 400.0, (n_objects, 2))
velocity = rng.uniform(-1.0, 1.0, (n_objects, 2))
truth = (start + 0.1 * np.arange(n_frames)[:, None, None] * velocity).reshape(-1, 2)
ids = np.tile(np.arange(n_objects), n_frames)


def frames(xy, track_id):
    block = np.zeros((len(xy), kio.FLOAT_BLOCK))
    block[:, 9], block[:, 11] = xy[:, 0], xy[:, 1]
    table = kio._from_block(block, np.full(len(xy), "Car", dtype=object),
                            np.zeros(len(xy), dtype=np.int64), track_id)
    return [table.take(slice(f * n_objects, (f + 1) * n_objects))
            for f in range(n_frames)]


gt = frames(truth, ids)
hyp = frames(truth + rng.normal(0.0, 0.3, truth.shape), ids + 1000)
dets = kio.SequenceDataset("long", frames(truth + rng.normal(0.0, 0.3, truth.shape),
                                          None))
before = peak()
assert metrics.idf1(gt, hyp).idtp > 0
assert metrics.score(gt, hyp)[0].matches > 0
assert occlusion.occlude_dataset(dets, gt, occlusion.OcclusionSpec("mid", 35, 20))[1]
print((peak() - before) / 2 ** 20)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the peak RSS from Linux's VmHWM")
def test_long_sequence_scoring_and_occlusion_stay_within_a_memory_bound():
    # The growth of the child's own peak RSS (`PEAK_RSS`), in MB. Gated a
    # chunk of frames at a time, the peak grows by the pairs and the matches,
    # about 26 MB on Linux; gating the whole sequence in one grouped call
    # grew it by 135 MB.
    assert float(python_stdout(_LONG_SEQUENCE)) < 60.0
