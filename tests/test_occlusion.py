"""Occlusion simulation: cut placement, gt matching, detection deletion."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynatrack import cli, metrics
from dynatrack import kitti_io as kio
from dynatrack import tracker as trk
from dynatrack.errors import (ConfigurationError, ContractViolationError,
                              InputError, UndefinedMetricError)
from dynatrack.metrics import clearmot, idf1
from dynatrack.occlusion import OcclusionSpec, occlude_dataset, occlusion_cut
from dynatrack.synth import ObjectSpec, RegimeSegment, ScenarioSpec, generate

from helpers import record_position, reference_occlude


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


def _row(frame, x, track_id=None):
    """A Car label at ground (x, 0); id-bearing when `track_id` is set."""
    return _record(frame, x, 0.0, track_id)


@st.composite
def _tracklet_scenes(draw):
    """Frames of detection rows, each owned by one of 3 objects or none,
    row j at ground x = 10 j; each owned row has a gt row of its owner at
    the same point, so an object can own several rows of a frame. Returns
    the dataset, the gt frames and each owner's (frame, row) pairs."""
    owners = draw(st.lists(st.lists(st.sampled_from([None, 1, 2, 3]), max_size=4),
                           min_size=1, max_size=25))
    observations: dict = {}
    for frame, frame_owners in enumerate(owners):
        for j, owner in enumerate(frame_owners):
            if owner is not None:
                observations.setdefault(owner, []).append((frame, j))
    dataset = kio.SequenceDataset(
        sequence_id="s", detections=[[_row(frame, 10.0 * j) for j in range(len(o))]
                                     for frame, o in enumerate(owners)])
    gt = [[_row(frame, 10.0 * j, owner) for j, owner in enumerate(o)
           if owner is not None] for frame, o in enumerate(owners)]
    return dataset, gt, observations


@settings(max_examples=200, deadline=None)
@given(scene=_tracklet_scenes(), spec=_SPECS)
def test_simulate_removes_exactly_the_cuts(scene, spec):
    dataset, gt, observations = scene
    occluded, dropped = occlude_dataset(dataset, gt, spec)
    removed, want = set(), {}
    for track_id, obs in sorted(observations.items()):
        cut = occlusion_cut(len(obs), spec)
        if cut is not None:
            chunk = obs[cut[0]:cut[1]]
            assert len(chunk) == spec.length
            want[track_id] = [frame for frame, _ in chunk]
            removed.update(chunk)
    assert list(dropped.items()) == list(want.items())
    # each row's x is its own index, so what survives is checkable
    assert [labels.location[:, 0].tolist() for labels in occluded.detections] == [
        [10.0 * j for j in range(len(frame)) if (f, j) not in removed]
        for f, frame in enumerate(dataset.detections)]


def test_match_builds_one_tracklet_per_object():
    # Both objects match a detection in each of the 60 frames: a late cut
    # of one after 59 matches takes frame 59 of each, one after 60 none.
    gt, dets = _scenario()
    _, dropped = occlude_dataset(dets, gt.ground_truth, OcclusionSpec("late", 59, 1))
    assert dropped == {1: [59], 2: [59]}
    _, dropped = occlude_dataset(dets, gt.ground_truth, OcclusionSpec("late", 60, 1))
    assert dropped == {}


def test_match_requires_ground_truth():
    _, dets = _scenario()
    spec = OcclusionSpec(kind="mid", start_after=10, length=20)
    with pytest.raises(InputError, match="ground truth is required"):
        occlude_dataset(dets, None, spec)


def test_simulate_removes_only_the_cut():
    gt, dets = _scenario()
    spec = OcclusionSpec(kind="mid", start_after=10, length=20)
    occluded, dropped = occlude_dataset(dets, gt.ground_truth, spec)
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
    occluded, dropped = occlude_dataset(dets, gt.ground_truth, spec)
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


def test_occluding_by_ground_truth_without_track_ids_raises(tmp_path):
    # Detections given as ground truth carry no track ids to cut runs by.
    _, dets = _scenario()
    det_path = tmp_path / "det.txt"
    kio.write_detections(dets.detections, det_path)
    parsed = kio.parse_detections(det_path)
    with pytest.raises(ContractViolationError,
                       match="^ground truth frames hold no track ids$"):
        occlude_dataset(parsed, parsed.detections, OcclusionSpec("mid", 1, 1))


def test_occlude_dataset_end_to_end():
    gt, dets = _scenario()
    spec = OcclusionSpec(kind="mid", start_after=10, length=20)
    occluded, dropped = occlude_dataset(dets, gt.ground_truth, spec)
    assert set(dropped) == {1, 2}
    total_before = sum(len(f) for f in dets.detections)
    total_after = sum(len(f) for f in occluded.detections)
    assert total_before - total_after == 40


def test_tracklet_observation_indices_refer_to_frame_lists():
    # Each frame loses, for each object cut there, one detection within the
    # match threshold of that object's ground truth.
    gt, dets = _scenario(noise=0.3)
    occluded, dropped = occlude_dataset(dets, gt.ground_truth,
                                        OcclusionSpec("late", 5, 25))
    assert sorted(dropped) == [1, 2]
    for frame, (before, after) in enumerate(zip(dets.detections,
                                                occluded.detections)):
        kept = after.location.tolist()
        lost = [record_position(r) for r in before if list(r.location) not in kept]
        owners = [tid for tid, frames in dropped.items() if frame in frames]
        assert len(lost) == len(owners)
        for tid in owners:
            gt_rec = next(r for r in gt.ground_truth[frame] if r.track_id == tid)
            assert min(np.linalg.norm(p - record_position(gt_rec)) for p in lost) <= 2.0


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
    spec = OcclusionSpec(spec.kind, spec.start_after, spec.length, threshold)
    want = reference_occlude(work / "det.txt", work / "gt.txt", spec,
                             work / "reference.txt")
    parsed = kio.load_sequence(work / "det.txt", work / "gt.txt")
    assert list(occlude_dataset(parsed, parsed.ground_truth, spec)[1].items()) \
        == list(want.items())
    out = (work / "out.txt").read_bytes()
    assert out == (work / "reference.txt").read_bytes()
    # the kept lines are a subsequence of the input's lines
    original = iter((work / "det.txt").read_text().splitlines())
    assert all(line in original for line in out.decode().splitlines())


def _record(frame, x, z, track_id=None):
    """A Car label at camera (x, 1.5, z); id-bearing when `track_id` is set."""
    fields = dict(frame=frame, obj_type="Car", truncated=0.0, occluded=0,
                  alpha=0.0, bbox2d=(0.0,) * 4, dims=(1.5, 1.8, 4.2),
                  location=(x, 1.5, z), rotation_y=0.0, score=0.9)
    if track_id is None:
        return kio.DetectionRecord(**fields)
    return kio.GroundTruthRecord(**fields, track_id=track_id)


_KINDS = ("empty", "gt only", "detections only", "both")
_OFFSETS = st.sampled_from([0.0, 0.5, -1.0, 2.0, 2.5]) | st.floats(-3.0, 3.0)


@st.composite
def _mixed_files(draw):
    """Ground truth and detections over 4 to 16 frames among which every
    kind occurs: empty, gt only, detections only and, most often, both.
    Ground truth sits at slots 1-4, 3 m apart, under ids 1-4 that a frame
    may repeat, so an id can match several detections of a frame; a
    detection is one slot's position moved by up to 3 m, often by a grid
    step, so it falls within, at or past the threshold. Then up to 3
    trailing frames are cut from one side, so the two may differ in length."""
    extra = draw(st.lists(st.sampled_from(_KINDS + ("both",) * 3), max_size=12))
    kinds = draw(st.permutations(list(_KINDS) + extra))
    gt, dets = [], []
    for frame, kind in enumerate(kinds):
        slots = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4, unique=True))
        ids = draw(st.lists(st.integers(1, 4), min_size=len(slots),
                            max_size=len(slots)))
        gt.append([_record(frame, 3.0 * s, 10.0, i) for s, i in zip(slots, ids)]
                  if kind in ("gt only", "both") else [])
        near = draw(st.lists(st.tuples(st.integers(1, 4), _OFFSETS, _OFFSETS),
                             min_size=1, max_size=5))
        dets.append([_record(frame, 3.0 * i + x, 10.0 + z) for i, x, z in near]
                    if kind in ("detections only", "both") else [])
    cut = draw(st.integers(0, 3))
    if draw(st.booleans()):
        return gt[:len(gt) - cut], dets
    return gt, dets[:len(dets) - cut]


def _scores(gt, hyp):
    """`evaluate`'s report as the summaries it prints, or the error it raises."""
    try:
        return clearmot(gt, hyp), idf1(gt, hyp)
    except UndefinedMetricError as exc:
        return str(exc)


# Id 1 matches both detections of frame 0, in the reverse of their file
# order; a late cut of one takes the match of its second gt row.
_TWO_MATCHES_ONE_ID = ([[_record(0, 0.0, 10.0, 1), _record(0, 3.0, 10.0, 1)]],
                       [[_record(0, 3.0, 10.0), _record(0, 0.0, 10.0)]])


@settings(max_examples=100, deadline=None)
@example(scene=_TWO_MATCHES_ONE_ID, spec=OcclusionSpec("late", 1, 1), budget=1)
@given(scene=_mixed_files(),
       spec=st.builds(OcclusionSpec, kind=st.sampled_from(["mid", "late"]),
                      start_after=st.integers(1, 3), length=st.integers(1, 3),
                      match_threshold=st.sampled_from([0.5, 1.0, 2.0])),
       budget=st.sampled_from([1, 4, metrics.GATE_CHUNK_POINTS]))
def test_occlude_matches_reference_across_empty_and_one_sided_frames(
        tmp_path_factory, scene, spec, budget):
    gt, dets = scene
    work = tmp_path_factory.mktemp("mixed")
    kio.write_annotations(gt, work / "gt.txt")
    kio.write_detections(dets, work / "det.txt")
    # The same pair padded to one length with empty frames; a detection
    # frame's records, numbered, are the hypothesis that `evaluate` scores.
    n = max(len(gt), len(dets))
    padded_gt, padded_dets = (side + [[]] * (n - len(side)) for side in (gt, dets))
    hyp = [[kio.GroundTruthRecord(**vars(r), track_id=j) for j, r in enumerate(f)]
           for f in dets]
    with mock.patch.object(metrics, "GATE_CHUNK_POINTS", budget):
        assert cli.main(["occlude", str(work / "det.txt"), str(work / "gt.txt"),
                         "--kind", spec.kind, "--start-after",
                         str(spec.start_after), "--length", str(spec.length),
                         "--match-threshold", str(spec.match_threshold),
                         "--output", str(work / "out.txt")]) == 0
        parsed = kio.load_sequence(work / "det.txt", work / "gt.txt")
        _, dropped = occlude_dataset(parsed, parsed.ground_truth, spec)
        occluded, in_memory = occlude_dataset(kio.SequenceDataset("s", dets), gt,
                                              spec)
        padded, padded_dropped = occlude_dataset(
            kio.SequenceDataset("s", padded_dets), padded_gt, spec)
        assert _scores(gt, hyp) == _scores(padded_gt, hyp + [[]] * (n - len(hyp)))
    want = reference_occlude(work / "det.txt", work / "gt.txt", spec,
                             work / "reference.txt")
    assert (work / "out.txt").read_bytes() == (work / "reference.txt").read_bytes()
    assert list(dropped.items()) == list(want.items())
    assert list(in_memory.items()) == list(padded_dropped.items())
    kio.write_detections(occluded.detections, work / "cut.txt")
    kio.write_detections(padded.detections, work / "padded.txt")
    assert (work / "cut.txt").read_bytes() == (work / "padded.txt").read_bytes()


@pytest.mark.parametrize("budget", [1, 50, metrics.GATE_CHUNK_POINTS])
def test_occlude_crowd_in_mid_sequence_raises_the_crowds_error(budget,
                                                               monkeypatch):
    # A crowd past the contested bound in frame 2 of 5 raises the error that
    # matching that frame alone raises, however the frames are chunked.
    monkeypatch.setattr(metrics, "GATE_CHUNK_POINTS", budget)
    side = math.isqrt(trk.MAX_CONTESTED_CELLS)
    crowd_gt = [_record(2, 0.0, 0.0, i) for i in range(side + 1)]
    crowd_dets = [_record(2, 0.0, 0.0) for _ in range(side)]
    with pytest.raises(InputError) as alone:
        trk.associate([record_position(r) for r in crowd_gt],
                      [record_position(r) for r in crowd_dets], 2.0)
    gt = [[_record(f, 5.0, 5.0, 1)] for f in range(5)]
    dets = [[_record(f, 5.0, 5.0)] for f in range(5)]
    gt[2], dets[2] = crowd_gt, crowd_dets
    dataset = kio.SequenceDataset("crowd", detections=dets, ground_truth=gt)
    with pytest.raises(InputError) as mid:
        occlude_dataset(dataset, gt, OcclusionSpec("mid", 1, 1))
    assert str(mid.value) == str(alone.value)
    assert f"{side + 1} x {side} candidate" in str(mid.value)
