"""Synthetic trajectories: exact integration, regime boundaries, generation."""
import numpy as np
import numpy.testing as npt
import pytest

from dynatrack import cli
from dynatrack.errors import ConfigurationError
from dynatrack.kitti_io import MAX_FRAME
from dynatrack.kitti_io import as_labels, ground_position
from dynatrack.synth import (ObjectSpec, RegimeSegment, ScenarioSpec,
                             generate, load_scenario, object_truth)

from helpers import segment_frames


def _obj(segments, initial=(0.0, 0.0), **kwargs):
    return ObjectSpec(initial_position=initial, segments=segments, **kwargs)


def test_stationary_truth_is_constant():
    truth = object_truth(_obj([RegimeSegment("stationary", 5)],
                              initial=(3.0, -2.0), velocity=(9.0, 9.0)), dt=0.1)
    npt.assert_array_equal(truth, np.tile([3.0, -2.0], (5, 1)))


def test_cv_truth_exact():
    truth = object_truth(_obj([RegimeSegment("cv", 4, (1.0, 2.0))]), dt=0.5)
    npt.assert_array_equal(truth[:, 0], [0.0, 0.5, 1.0, 1.5])
    npt.assert_array_equal(truth[:, 1], [0.0, 1.0, 2.0, 3.0])


def test_ca_truth_is_quadratic():
    truth = object_truth(_obj([RegimeSegment("ca", 4, (2.0, 0.0))]), dt=1.0)
    npt.assert_array_equal(truth[:, 0], [0.0, 1.0, 4.0, 9.0])
    npt.assert_array_equal(truth[:, 1], np.zeros(4))


def test_cj_truth_is_cubic():
    truth = object_truth(_obj([RegimeSegment("cj", 4, (6.0, 0.0))]), dt=1.0)
    npt.assert_array_equal(truth[:, 0], [0.0, 1.0, 8.0, 27.0])


def test_segment_boundary_keeps_lower_derivatives():
    obj = _obj([RegimeSegment("cv", 5, (1.0, 0.0)),
                RegimeSegment("ca", 3, (2.0, 0.0))])
    truth = object_truth(obj, dt=1.0)
    # cv part: 0..4; then acceleration 2 on top of the carried velocity 1
    npt.assert_array_equal(truth[:5, 0], [0.0, 1.0, 2.0, 3.0, 4.0])
    npt.assert_array_equal(truth[5:, 0], [5.0, 7.0, 11.0])


def test_segment_value_none_keeps_current_derivative():
    obj = _obj([RegimeSegment("cv", 3, (2.0, 0.0)), RegimeSegment("cv", 3)])
    truth = object_truth(obj, dt=1.0)
    npt.assert_array_equal(truth[:, 0], [0.0, 2.0, 4.0, 6.0, 8.0, 10.0])


def test_stationary_zeroes_motion():
    obj = _obj([RegimeSegment("cv", 3, (5.0, 0.0)),
                RegimeSegment("stationary", 3)])
    truth = object_truth(obj, dt=1.0)
    npt.assert_array_equal(truth[3:, 0], [15.0, 15.0, 15.0])


def test_higher_segment_zeroes_above_held():
    # switching to cv zeroes acceleration and jerk set earlier
    obj = _obj([RegimeSegment("ca", 3, (2.0, 0.0)),
                RegimeSegment("cv", 3, (1.0, 0.0))])
    truth = object_truth(obj, dt=1.0)
    npt.assert_array_equal(truth[:, 0], [0.0, 1.0, 4.0, 9.0, 10.0, 11.0])


def test_segment_frames_ranges():
    obj = _obj([RegimeSegment("cv", 5, (1.0, 0.0)),
                RegimeSegment("ca", 3, (2.0, 0.0))])
    assert segment_frames(obj) == [("cv", 0, 5), ("ca", 5, 8)]


def test_segment_validation():
    with pytest.raises(ConfigurationError, match="'kind'"):
        RegimeSegment("drift", 3)
    with pytest.raises(ConfigurationError, match="'duration'"):
        RegimeSegment("cv", 0)
    with pytest.raises(ConfigurationError, match="'value'"):
        RegimeSegment("cv", 3, (1.0,))


def test_scenario_validation():
    obj = _obj([RegimeSegment("cv", 3)])
    with pytest.raises(ConfigurationError, match="'dt'"):
        ScenarioSpec(objects=[obj], dt=0.0)
    with pytest.raises(ConfigurationError, match="'noise_sigma'"):
        ScenarioSpec(objects=[obj], noise_sigma=-1.0)
    with pytest.raises(ConfigurationError, match="'objects'"):
        ScenarioSpec(objects=[])


def test_scenario_refuses_more_frames_than_a_label_file_holds():
    # Refused on construction, before any frame is integrated: the last
    # frame index would be past what the label parsers read.
    fits = _obj([RegimeSegment("cv", MAX_FRAME), RegimeSegment("stationary", 1)])
    over = _obj([RegimeSegment("cv", MAX_FRAME), RegimeSegment("stationary", 2)])
    assert ScenarioSpec(objects=[fits]).objects == [fits]
    with pytest.raises(ConfigurationError,
                       match=f"'segments': object 2 lasts {MAX_FRAME + 2} frames"):
        ScenarioSpec(objects=[fits, over])


def test_generate_noise_free_detections_equal_truth():
    spec = ScenarioSpec(objects=[_obj([RegimeSegment("cv", 5, (1.0, 0.0))],
                                      initial=(0.0, 10.0))],
                        noise_sigma=0.0)
    gt, dets = generate(spec)
    for frame in range(5):
        gt_pos = ground_position(as_labels(gt.ground_truth[frame]))
        det_pos = ground_position(as_labels(dets.detections[frame]))
        npt.assert_array_equal(gt_pos, det_pos)


def test_generate_structure():
    spec = ScenarioSpec(objects=[
        _obj([RegimeSegment("cv", 8, (1.0, 0.0))], initial=(0.0, 10.0)),
        _obj([RegimeSegment("stationary", 5)], initial=(5.0, 20.0)),
    ], noise_sigma=0.1, seed=7)
    gt, dets = generate(spec)
    assert len(gt.ground_truth) == 8
    assert len(dets.detections) == 8
    assert [r.track_id for r in gt.ground_truth[0]] == [1, 2]
    assert [len(f) for f in gt.ground_truth] == [2] * 5 + [1] * 3
    assert [len(f) for f in dets.detections] == [2] * 5 + [1] * 3
    assert all(r.score == 1.0 for f in gt.ground_truth for r in f)
    assert all(r.score == 0.9 for f in dets.detections for r in f)
    assert gt.detections == []


def test_generate_is_deterministic_per_seed():
    spec = dict(objects=[_obj([RegimeSegment("cv", 6, (1.0, 0.0))])],
                noise_sigma=0.3)
    _, a = generate(ScenarioSpec(seed=5, **spec))
    _, b = generate(ScenarioSpec(seed=5, **spec))
    _, c = generate(ScenarioSpec(seed=6, **spec))
    for frame in range(6):
        assert a.detections[frame][0].location == b.detections[frame][0].location
    assert any(a.detections[f][0].location != c.detections[f][0].location
               for f in range(6))


def test_generate_noise_magnitude():
    spec = ScenarioSpec(objects=[_obj([RegimeSegment("stationary", 4000)])],
                        noise_sigma=0.3, seed=1)
    gt, dets = generate(spec)
    errs = np.concatenate([ground_position(as_labels(dets.detections[f]))
                           for f in range(4000)])
    assert abs(errs.std(ddof=1) - 0.3) < 0.02


def test_load_scenario_yaml(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text("""
dt: 0.2
noise_sigma: 0.1
seed: 11
objects:
  - initial: [0.0, 10.0]
    velocity: [1.0, 0.0]
    segments:
      - {kind: cv, duration: 20}
      - {kind: ca, duration: 10, value: [0.5, 0.0]}
    dims: [1.4, 1.7, 4.0]
    elevation: 1.3
    type: Van
occlusion:
  kind: mid
  start_after: 5
  length: 4
""")
    spec = load_scenario(path)
    assert spec.dt == 0.2
    assert spec.seed == 11
    obj = spec.objects[0]
    assert obj.initial_position == (0.0, 10.0)
    assert obj.velocity == (1.0, 0.0)
    assert obj.obj_type == "Van"
    assert [s.kind for s in obj.segments] == ["cv", "ca"]
    assert obj.segments[1].value == (0.5, 0.0)
    assert spec.occlusion.kind == "mid"
    assert spec.occlusion.length == 4


def test_load_scenario_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("objects: []\nspeed: 3\n")
    with pytest.raises(ConfigurationError, match="unknown scenario key 'speed'"):
        load_scenario(path)
    path.write_text("""
objects:
  - initial: [0.0, 0.0]
    heading: 1.0
    segments: [{kind: cv, duration: 3}]
""")
    with pytest.raises(ConfigurationError, match="unknown object key 'heading'"):
        load_scenario(path)
    path.write_text("""
objects:
  - initial: [0.0, 0.0]
    segments: [{kind: cv, duration: 3, ramp: 2}]
""")
    with pytest.raises(ConfigurationError, match="unknown segment key 'ramp'"):
        load_scenario(path)


def test_load_scenario_requires_initial_and_segments(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("objects:\n  - velocity: [1.0, 0.0]\n")
    with pytest.raises(ConfigurationError, match="'initial' and 'segments'"):
        load_scenario(path)
    # Every spec's fields without a default are required, and named when
    # missing.
    one = "objects:\n  - initial: [0.0, 0.0]\n    segments: [{kind: cv, duration: 3}]\n"
    for text, needs in [
            ("seed: 1\n", "each scenario needs 'objects'"),
            (one.replace("kind: cv, ", ""), "each segment needs 'kind'"),
            (one.replace(", duration: 3", ""), "each segment needs 'duration'"),
            (one + "occlusion: {kind: mid}\n",
             "each occlusion needs 'start_after' and 'length'")]:
        path.write_text(text)
        with pytest.raises(ConfigurationError, match=f"^scenario file .*: {needs}$"):
            load_scenario(path)


@pytest.mark.parametrize("text, message", [
    ("objects: {initial: [0.0, 0.0]}\n", "'objects' must be a list, got dict"),
    ("objects:\n  - initial: [0.0, 0.0]\n    segments: 5\n",
     "'segments' must be a list, got int"),
])
def test_synth_refuses_a_list_field_that_is_not_a_list(tmp_path, capsys, text, message):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    assert cli.main(["synth", str(path), "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.strip().endswith(f"scenario file {path}: {message}")
    assert not (tmp_path / "out").exists()
