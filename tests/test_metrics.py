"""Metric correctness: CLEAR-MOT counters, IDF1 pairing, latency."""

import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynatrack.config import RunConfig
import dynatrack
from dynatrack import tracker as trk
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
    return gt, hyp, draw(st.sampled_from([1, 2, 5, trk.GATE_CHUNK_POINTS]))


@settings(max_examples=200, deadline=None)
@given(scene=_mixed_sequences(), threshold=st.sampled_from([0.5, 1.0, 2.0]))
def test_sequence_scores_match_reference_across_empty_and_one_sided_frames(
        scene, threshold):
    gt, hyp, budget = scene
    with mock.patch.object(trk, "GATE_CHUNK_POINTS", budget):
        got_id = idf1(gt, hyp, threshold)
        got = clearmot(gt, hyp, threshold) if any(gt) else None
    ref_id = reference_idf1(gt, hyp, threshold)
    assert (got_id.idtp, got_id.idfp, got_id.idfn) == \
        (ref_id["idtp"], ref_id["idfp"], ref_id["idfn"])
    if got is not None:
        ref = reference_clearmot(gt, hyp, threshold)
        assert (got.false_positives, got.false_negatives, got.id_switches,
                got.gt_total, got.matches) == \
            (ref["false_positives"], ref["false_negatives"], ref["id_switches"],
             ref["gt_total"], ref["matches"])


@pytest.mark.parametrize("budget", [1, 50, trk.GATE_CHUNK_POINTS])
def test_idf1_crowd_in_mid_sequence_raises_the_crowds_error(budget, monkeypatch):
    # A crowd past the contested bound in frame 2 of 5 raises the error the
    # crowd raises alone, however the frames are chunked.
    monkeypatch.setattr(trk, "GATE_CHUNK_POINTS", budget)
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


# 200 objects over 2,000 frames as parsed label frames: ground truth, a
# hypothesis at other ids and detections, each within 0.3 m noise.
_LONG_SEQUENCE = """
import resource
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
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert metrics.idf1(gt, hyp).idtp > 0
assert occlusion.occlude_dataset(dets, gt, occlusion.OcclusionSpec("mid", 35, 20))[1]
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
"""


def test_long_sequence_scoring_and_occlusion_stay_within_a_memory_bound():
    # Gated a chunk of frames at a time, the peak grows by the pairs and the
    # tracklets, about 30 MB here on Linux; gating the whole sequence in one
    # grouped call grew it by 135 MB.
    source = Path(dynatrack.__file__).parent.parent
    path = os.pathsep.join(filter(None, [str(source), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _LONG_SEQUENCE],
                          capture_output=True, text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert float(done.stdout) < 60.0
