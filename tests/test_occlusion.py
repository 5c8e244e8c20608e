"""Occlusion simulation: cut placement, gt matching, detection deletion."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynatrack import cli
from dynatrack import kitti_io as kio
from dynatrack.errors import ConfigurationError, InputError
from dynatrack.occlusion import (ObjectTracklet, OcclusionSpec,
                                 match_detections_to_gt, occlude_dataset,
                                 occlusion_cut, simulate_occlusion)
from dynatrack.synth import ObjectSpec, RegimeSegment, ScenarioSpec, generate

from helpers import record_position, reference_occlude, tagged_labels


def _scenario(n_frames=60, noise=0.05, seed=3):
    objects = [
        ObjectSpec(initial_position=(0.0, 10.0),
                   segments=[RegimeSegment("cv", n_frames, (1.0, 0.0))]),
        ObjectSpec(initial_position=(0.0, 40.0),
                   segments=[RegimeSegment("stationary", n_frames)]),
    ]
    return generate(ScenarioSpec(objects=objects, noise_sigma=noise, seed=seed))


def test_spec_validation():
    with pytest.raises(ConfigurationError, match="'kind'"):
        OcclusionSpec(kind="early", start_after=1, length=1)
    with pytest.raises(ConfigurationError, match="'start_after'"):
        OcclusionSpec(kind="mid", start_after=0, length=1)
    with pytest.raises(ConfigurationError, match="'length'"):
        OcclusionSpec(kind="mid", start_after=1, length=0)
    with pytest.raises(ConfigurationError, match="'match_threshold'"):
        OcclusionSpec(kind="mid", start_after=1, length=1, match_threshold=0.0)


def test_cut_requires_enough_observations():
    spec = OcclusionSpec(kind="mid", start_after=5, length=3)
    assert occlusion_cut(7, spec) is None
    assert occlusion_cut(8, spec) == (5, 8)


def test_cut_late_takes_the_tail():
    spec = OcclusionSpec(kind="late", start_after=5, length=3)
    assert occlusion_cut(10, spec) == (7, 10)


def test_cut_mid_centers_after_warmup():
    spec = OcclusionSpec(kind="mid", start_after=5, length=10)
    assert occlusion_cut(30, spec) == (10, 20)
    spec_long_warmup = OcclusionSpec(kind="mid", start_after=12, length=10)
    assert occlusion_cut(30, spec_long_warmup) == (12, 22)


_SPECS = st.builds(OcclusionSpec, kind=st.sampled_from(["mid", "late"]),
                   start_after=st.integers(1, 8), length=st.integers(1, 8))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 30), spec=_SPECS)
def test_cut_invariants(n, spec):
    cut = occlusion_cut(n, spec)
    if n < spec.start_after + spec.length:
        assert cut is None
        return
    start, stop = cut
    assert stop - start == spec.length
    assert spec.start_after <= start and stop <= n
    if spec.kind == "late":
        assert stop == n


@st.composite
def _tracklet_scenes(draw):
    """Frames of placeholder rows, each owned by one of 3 objects or none;
    a row's `raw` line names its (frame, index)."""
    owners = draw(st.lists(st.lists(st.sampled_from([None, 1, 2, 3]), max_size=4),
                           min_size=1, max_size=25))
    observations: dict = {}
    for frame, frame_owners in enumerate(owners):
        for j, owner in enumerate(frame_owners):
            if owner is not None:
                observations.setdefault(owner, []).append((frame, j))
    dataset = kio.SequenceDataset(
        sequence_id="s", detections=[tagged_labels([f"{frame} {j}"
                                                    for j in range(len(o))])
                                     for frame, o in enumerate(owners)])
    tracklets = [ObjectTracklet(tid, obs) for tid, obs in observations.items()]
    return dataset, tracklets


@settings(max_examples=200, deadline=None)
@given(scene=_tracklet_scenes(), spec=_SPECS)
def test_simulate_removes_exactly_the_cuts(scene, spec):
    dataset, tracklets = scene
    occluded, dropped = simulate_occlusion(dataset, tracklets, spec)
    removed = set()
    for tracklet in tracklets:
        cut = occlusion_cut(len(tracklet.observations), spec)
        if cut is None:
            assert tracklet.track_id not in dropped
            continue
        chunk = tracklet.observations[cut[0]:cut[1]]
        assert len(chunk) == spec.length
        assert dropped[tracklet.track_id] == [frame for frame, _ in chunk]
        removed.update(chunk)
    # each row's line is its own (frame, index), so what survives is checkable
    assert [labels.raw.tolist() for labels in occluded.detections] == [
        [f"{frame} {j}" for j in range(len(labels)) if (frame, j) not in removed]
        for frame, labels in enumerate(dataset.detections)]


def test_match_builds_one_tracklet_per_object():
    gt, dets = _scenario()
    tracklets = match_detections_to_gt(dets, gt.ground_truth)
    assert [t.track_id for t in tracklets] == [1, 2]
    assert all(len(t.observations) == 60 for t in tracklets)
    frames = [frame for frame, _ in tracklets[0].observations]
    assert frames == sorted(frames)


def test_match_checks_alignment():
    gt, dets = _scenario()
    with pytest.raises(InputError, match="frame ranges differ"):
        match_detections_to_gt(dets, gt.ground_truth[:-1])
    with pytest.raises(InputError, match="ground truth is required"):
        match_detections_to_gt(dets, None)


def test_simulate_removes_only_the_cut():
    gt, dets = _scenario()
    spec = OcclusionSpec(kind="mid", start_after=10, length=20)
    tracklets = match_detections_to_gt(dets, gt.ground_truth)
    occluded, dropped = simulate_occlusion(dets, tracklets, spec)
    assert sorted(dropped) == [1, 2]
    assert dropped[1] == list(range(20, 40))
    counts = [len(f) for f in occluded.detections]
    assert all(c == 2 for c in counts[:20])
    assert all(c == 0 for c in counts[20:40])
    assert all(c == 2 for c in counts[40:])
    # the input dataset is left untouched
    assert all(len(f) == 2 for f in dets.detections)


def test_simulate_skips_short_tracklets():
    gt, dets = _scenario()
    spec = OcclusionSpec(kind="mid", start_after=50, length=20)
    tracklets = match_detections_to_gt(dets, gt.ground_truth)
    occluded, dropped = simulate_occlusion(dets, tracklets, spec)
    assert dropped == {}
    assert [len(f) for f in occluded.detections] == [2] * 60


def test_surviving_lines_are_byte_identical(tmp_path):
    gt, dets = _scenario()
    det_path = tmp_path / "det.txt"
    kio.write_detections(dets.detections, det_path)
    parsed = kio.parse_detections(det_path)
    spec = OcclusionSpec(kind="late", start_after=5, length=10)
    occluded, dropped = occlude_dataset(parsed, gt.ground_truth, spec)
    out_path = tmp_path / "occ.txt"
    kio.write_detections(occluded.detections, out_path)
    original = det_path.read_text().splitlines()
    survivors = set(out_path.read_text().splitlines())
    assert survivors <= set(original)
    assert len(original) - len(survivors) == sum(len(v) for v in dropped.values())
    assert dropped[1] == list(range(50, 60))


def test_occlude_dataset_end_to_end():
    gt, dets = _scenario()
    spec = OcclusionSpec(kind="mid", start_after=10, length=20)
    occluded, dropped = occlude_dataset(dets, gt.ground_truth, spec)
    assert set(dropped) == {1, 2}
    total_before = sum(len(f) for f in dets.detections)
    total_after = sum(len(f) for f in occluded.detections)
    assert total_before - total_after == 40


def test_tracklet_observation_indices_refer_to_frame_lists():
    gt, dets = _scenario()
    tracklets = match_detections_to_gt(dets, gt.ground_truth)
    for tracklet in tracklets:
        for frame, j in tracklet.observations[:5]:
            rec = dets.detections[frame][j]
            gt_rec = next(r for r in gt.ground_truth[frame]
                          if r.track_id == tracklet.track_id)
            det_pos = record_position(rec)
            gt_pos = record_position(gt_rec)
            assert np.linalg.norm(det_pos - gt_pos) <= 2.0


@st.composite
def _synth_files(draw):
    """A synth scene as gt and detection lines; detection lines are shuffled
    within each frame, so file order is not object order."""
    objects = [ObjectSpec(
        initial_position=(draw(st.floats(0.0, 6.0)), draw(st.floats(0.0, 6.0))),
        velocity=(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))),
        segments=[RegimeSegment("cv", draw(st.integers(1, 40)))])
        for _ in range(draw(st.integers(1, 4)))]
    gt, dets = generate(ScenarioSpec(objects=objects,
                                     noise_sigma=draw(st.floats(0.0, 1.5)),
                                     seed=draw(st.integers(0, 1000))))
    for frame in dets.detections:
        frame[:] = draw(st.permutations(frame))
    return gt, dets


@settings(max_examples=60, deadline=None)
@given(scene=_synth_files(), spec=_SPECS,
       threshold=st.sampled_from([0.5, 1.0, 2.0, 4.0]))
def test_occlude_matches_records_reference(tmp_path_factory, scene, spec, threshold):
    gt, dets = scene
    work = tmp_path_factory.mktemp("occlude")
    kio.write_annotations(gt.ground_truth, work / "gt.txt")
    kio.write_detections(dets.detections, work / "det.txt")
    assert cli.main(["occlude", str(work / "det.txt"), str(work / "gt.txt"),
                     "--kind", spec.kind, "--start-after", str(spec.start_after),
                     "--length", str(spec.length), "--match-threshold",
                     str(threshold), "--output", str(work / "out.txt")]) == 0
    reference_occlude(work / "det.txt", work / "gt.txt",
                      OcclusionSpec(spec.kind, spec.start_after, spec.length,
                                    threshold), work / "reference.txt")
    out = (work / "out.txt").read_bytes()
    assert out == (work / "reference.txt").read_bytes()
    # the kept lines are a subsequence of the input's lines
    original = iter((work / "det.txt").read_text().splitlines())
    assert all(line in original for line in out.decode().splitlines())
