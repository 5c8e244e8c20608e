"""Metric correctness: CLEAR-MOT counters, IDF1 pairing, latency."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynatrack.config import RunConfig
from dynatrack.errors import InputError, UndefinedMetricError
from dynatrack.metrics import clearmot, idf1, measure_latency
from dynatrack.tracker import MAX_CONTESTED_CELLS, MultiObjectTracker

from helpers import (frames_from_positions, random_tracking_scene,
                     reference_clearmot, reference_idf1)


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
