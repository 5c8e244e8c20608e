"""Label file parsing/writing, trajectory CSV round trips, coordinate mapping."""
import math
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dynatrack import kitti_io as kio
from dynatrack.config import RunConfig
from dynatrack.errors import ContractViolationError, ParseError
from dynatrack.frames import STATUSES, TRAJECTORY_SOURCES, FrameReport
from dynatrack.tracker import MultiObjectTracker

from helpers import (PEAK_RSS, detections, format_record, label_records,
                     python_stdout, read_trajectory_csv,
                     reference_export_trajectory_csv, reference_parse,
                     reference_write_tracks)

DET_LINE = ("0 Car 0.00 0 -1.50 100.0 120.0 150.0 160.0 "
            "1.50 1.70 4.20 2.50 1.40 30.00 0.10 0.92")
DET_LINE_F3 = ("3 Pedestrian 0.10 1 0.20 10.0 20.0 30.0 40.0 "
               "1.80 0.60 0.80 -5.00 1.20 12.50 1.60 0.55")
GT_LINE = ("0 7 Car 0.00 0 -1.50 100.0 120.0 150.0 160.0 "
           "1.50 1.70 4.20 2.50 1.40 30.00 0.10")
TRACK_LINE = GT_LINE + " 0.85"


def test_parse_detections_fields(tmp_path):
    path = tmp_path / "seq01.txt"
    path.write_text(DET_LINE + "\n")
    ds = kio.parse_detections(path)
    assert ds.sequence_id == "seq01"
    assert len(ds.detections) == 1
    labels = ds.detections[0]
    assert len(labels) == 1
    assert labels.track_id is None
    assert labels.obj_type.tolist() == ["Car"]
    assert labels.truncated.tolist() == [0.0]
    assert labels.occluded.tolist() == [0]
    assert labels.alpha.tolist() == [-1.5]
    assert labels.bbox2d.tolist() == [[100.0, 120.0, 150.0, 160.0]]
    assert labels.dims.tolist() == [[1.5, 1.7, 4.2]]
    assert labels.location.tolist() == [[2.5, 1.4, 30.0]]
    assert labels.rotation_y.tolist() == [0.1]
    assert labels.score.tolist() == [0.92]
    assert labels.raw.tolist() == [DET_LINE]


def test_parse_detections_pads_missing_frames(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text(DET_LINE + "\n" + DET_LINE_F3 + "\n")
    ds = kio.parse_detections(path)
    assert len(ds.detections) == 4
    assert [len(f) for f in ds.detections] == [1, 0, 0, 1]


def test_parse_detections_skips_blank_lines(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("\n" + DET_LINE + "\n\n")
    ds = kio.parse_detections(path)
    assert sum(len(f) for f in ds.detections) == 1


def test_parse_detections_field_count_error(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text(DET_LINE + " 9.9\n")
    with pytest.raises(ParseError, match="expected 17 fields, got 18"):
        kio.parse_detections(path)


def test_parse_detections_bad_number_reports_position(tmp_path):
    path = tmp_path / "d.txt"
    bad = DET_LINE.split()
    bad[12] = "oops"
    path.write_text(" ".join(bad) + "\n")
    with pytest.raises(ParseError, match=r"d\.txt:1: column 13"):
        kio.parse_detections(path)


def test_parse_detections_rejects_non_finite(tmp_path):
    path = tmp_path / "d.txt"
    bad = DET_LINE.split()
    bad[16] = "inf"
    path.write_text(" ".join(bad) + "\n")
    with pytest.raises(ParseError, match="non-finite"):
        kio.parse_detections(path)


def test_parse_detections_rejects_negative_frame(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("-1" + DET_LINE[1:] + "\n")
    with pytest.raises(ParseError, match="column 1: negative frame"):
        kio.parse_detections(path)


def test_parse_rejects_frame_beyond_max_frame(tmp_path):
    # Frames are stored densely: without the bound this line would make the
    # parser allocate a billion empty frames.
    path = tmp_path / "d.txt"
    path.write_text("1000000000" + DET_LINE[1:] + "\n")
    with pytest.raises(ParseError, match=r"d\.txt:1: column 1: frame index"):
        kio.parse_detections(path)


@pytest.mark.parametrize("token, ok", [
    ("9223372036854775807", True), ("-9223372036854775808", True),
    ("9223372036854775808", False), ("-9223372036854775809", False),
    ("99999999999999999999", False)])
def test_parse_integers_must_fit_int64(tmp_path, token, ok):
    path = tmp_path / "gt.txt"
    path.write_text(GT_LINE.replace(" 7 ", f" {token} ", 1) + "\n")
    if ok:
        assert kio.parse_annotations(path)[0].track_id.tolist() == [int(token)]
    else:
        with pytest.raises(ParseError, match=rf"gt\.txt:1: column 2: integer out "
                                             rf"of range: '{token}'"):
            kio.parse_annotations(path)


def test_parse_annotations_score_defaults_to_one(tmp_path):
    path = tmp_path / "gt.txt"
    path.write_text(GT_LINE + "\n")
    labels = kio.parse_annotations(path)[0]
    assert labels.track_id.tolist() == [7]
    assert labels.score.tolist() == [1.0]
    assert labels.location.tolist() == [[2.5, 1.4, 30.0]]


def test_parse_tracks_reads_score(tmp_path):
    path = tmp_path / "trk.txt"
    path.write_text(TRACK_LINE + "\n")
    labels = kio.parse_tracks(path)[0]
    assert labels.track_id.tolist() == [7]
    assert labels.score.tolist() == [0.85]


def test_parse_tracks_field_count(tmp_path):
    path = tmp_path / "trk.txt"
    path.write_text(GT_LINE + "\n")
    with pytest.raises(ParseError, match="expected 18 fields, got 17"):
        kio.parse_tracks(path)


def test_ground_position_and_camera_location_invert():
    rec = kio.DetectionRecord(frame=0, obj_type="Car", truncated=0.0,
                              occluded=0, alpha=0.0, bbox2d=(0, 0, 1, 1),
                              dims=(1, 1, 1), location=(2.5, 1.4, 30.0),
                              rotation_y=0.0, score=1.0)
    pos = kio.ground_position(kio.as_labels([rec]))
    npt.assert_array_equal(pos, [[2.5, 30.0]])
    assert kio.camera_location(pos[0], 1.4) == (2.5, 1.4, 30.0)


def test_write_detections_preserves_raw_lines(tmp_path):
    src = tmp_path / "in.txt"
    text = DET_LINE + "\n" + DET_LINE_F3 + "\n"
    src.write_text(text)
    ds = kio.parse_detections(src)
    out = tmp_path / "out.txt"
    kio.write_detections(ds.detections, out)
    assert out.read_text() == text


def test_write_annotations_orders_ids_within_a_frame(tmp_path):
    src = tmp_path / "in.txt"
    second = GT_LINE.replace(" 7 ", " 3 ", 1)
    src.write_text(GT_LINE + "\n" + second + "\n")
    out = tmp_path / "out.txt"
    kio.write_annotations(kio.parse_annotations(src), out)
    assert out.read_text() == second + "\n" + GT_LINE + "\n"
    [records] = label_records(kio.parse_annotations(src))
    kio.write_annotations([records], out)
    assert [line.split()[1] for line in out.read_text().splitlines()] == ["3", "7"]


def test_format_detection_round_trip(tmp_path):
    rec = kio.DetectionRecord(frame=2, obj_type="Cyclist", truncated=0.25,
                              occluded=1, alpha=-0.7,
                              bbox2d=(1.0, 2.0, 3.0, 4.0),
                              dims=(1.6, 0.6, 1.8),
                              location=(0.123456789, 1.5, 42.987654321),
                              rotation_y=0.5, score=0.5)
    path = tmp_path / "y.txt"
    kio.write_detections([[], [], [rec]], path)
    line = path.read_text()
    assert line == format_record(rec, with_id=False, with_score=True) + "\n"
    assert len(line.split()) == kio.DETECTION_FIELDS
    assert "0.123456789" in line
    back = kio.parse_detections(path).detections
    assert label_records(back) == [[], [], [rec]]


def _report(frame, ids, positions, elevation=1.2, yaw=0.3, dims=(1.5, 1.8, 4.2),
            score=0.9, status="confirmed", obj_type="Car",
            bbox2d=(0.0, 0.0, 8.0, 4.0)):
    """A FrameReport whose rows share every field but id and position."""
    k = len(ids)
    return FrameReport(
        frame=frame, ids=np.array(ids, dtype=np.int64),
        position=np.array(positions, dtype=float).reshape(k, 2),
        status=np.full(k, STATUSES.index(status), dtype=np.int8),
        elevation=np.full(k, elevation), yaw=np.full(k, yaw),
        dims=np.tile(dims, (k, 1)), score=np.full(k, score),
        bbox2d=np.tile(bbox2d, (k, 1)), obj_type=np.array([obj_type] * k, dtype=object))


def test_write_tracks_sorted_and_parseable(tmp_path):
    per_frame = [_report(0, [2, 1], [(1.0, 10.0), (-1.0, 20.0)]),
                 _report(1, [1], [(-0.9, 20.5)])]
    path = tmp_path / "tracks.txt"
    kio.write_tracks(per_frame, path)
    labels = kio.parse_tracks(path)[0]
    assert labels.track_id.tolist() == [1, 2]
    assert labels.location[1].tolist() == [1.0, 1.2, 10.0]
    assert labels.rotation_y.tolist() == [0.3, 0.3]
    assert labels.score.tolist() == [0.9, 0.9]


def test_write_tracks_maps_coordinates(tmp_path):
    report = _report(4, [3], [(1.5, 30.0)], elevation=1.2, yaw=-0.1, score=0.8,
                     status="coasting", obj_type="Van", bbox2d=(0.0, 0.0, 1.0, 1.0))
    path = tmp_path / "tracks.txt"
    kio.write_tracks([report], path)
    [rec] = label_records(kio.parse_tracks(path))[4]
    assert rec.frame == 4
    assert rec.track_id == 3
    assert rec.location == (1.5, 1.2, 30.0)
    assert (rec.truncated, rec.occluded, rec.alpha) == (0.0, 0, 0.0)
    assert rec.obj_type == "Van"


def _trajectory_frame(frame, rows):
    """One trajectory entry from (track id, x, y, source name) rows."""
    ids, x, y, source = zip(*rows)
    return (frame, np.array(ids, dtype=np.int64), np.column_stack((x, y)),
            np.array([TRAJECTORY_SOURCES.index(s) for s in source], dtype=np.int8))


def test_trajectory_csv_round_trip(tmp_path):
    trajectory = [
        _trajectory_frame(1, [(2, 0.1 + 0.2, -7.123456789012345, "updated")]),
        _trajectory_frame(0, [(1, 1.0, 2.0, "predicted"),
                              (1, 1.5, 2.5, "measurement")]),
    ]
    path = tmp_path / "traj.csv"
    kio.export_trajectory_csv(trajectory, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "frame,track_id,x,y,source"
    rows = read_trajectory_csv(path)
    assert [(r[0], r[1], r[4]) for r in rows] == [
        (0, 1, "measurement"), (0, 1, "predicted"), (1, 2, "updated")]
    assert rows[2][2] == 0.1 + 0.2  # full precision survives the text form
    assert rows[2][3] == -7.123456789012345


def test_read_trajectory_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("frame,id,x,y,source\n")
    with pytest.raises(ParseError, match="unexpected trajectory header"):
        read_trajectory_csv(path)


def test_read_trajectory_csv_rejects_unknown_source(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("frame,track_id,x,y,source\n0,1,0.0,0.0,smoothed\n")
    with pytest.raises(ParseError, match="unknown source"):
        read_trajectory_csv(path)


def test_load_sequence_keeps_each_side_as_parsed(tmp_path):
    # Neither side is padded: `metrics.gated_chunks` pairs the two.
    det = tmp_path / "det.txt"
    det.write_text(DET_LINE + "\n")
    gt = tmp_path / "gt.txt"
    longer = GT_LINE.split()
    longer[0] = "5"
    gt.write_text(GT_LINE + "\n" + " ".join(longer) + "\n")
    ds = kio.load_sequence(det, gt)
    assert [len(f) for f in ds.detections] == [1]
    assert [len(f) for f in ds.ground_truth] == [1, 0, 0, 0, 0, 1]


def test_measurements_from_dataset(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text(DET_LINE + "\n")
    ds = kio.parse_detections(path)
    frames = kio.measurements_from(ds)
    dets = frames[0]
    npt.assert_array_equal(dets.position, [[2.5, 30.0]])
    assert dets.elevation.tolist() == [1.4]
    assert dets.yaw.tolist() == [0.1]
    assert dets.score.tolist() == [0.92]
    assert dets.dims.tolist() == [[1.5, 1.7, 4.2]]
    assert dets.bbox2d.tolist() == [[100.0, 120.0, 150.0, 160.0]]
    assert dets.obj_type.tolist() == ["Car"]


def test_measurements_from_splits_frames(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text(DET_LINE + "\n" + DET_LINE_F3 + "\n" + DET_LINE_F3 + "\n")
    frames = kio.measurements_from(kio.parse_detections(path))
    assert [len(dets.position) for dets in frames] == [1, 0, 0, 2]
    assert frames[1].position.shape == (0, 2)
    assert frames[1].bbox2d.shape == (0, 4)
    assert frames[3].obj_type.tolist() == ["Pedestrian"] * 2
    assert kio.measurements_from(kio.SequenceDataset("empty")) == []


def test_id_position_frames(tmp_path):
    path = tmp_path / "gt.txt"
    path.write_text(GT_LINE + "\n")
    frames = kio.id_position_frames(kio.parse_annotations(path))
    tid, pos = frames[0][0]
    assert tid == 7
    npt.assert_array_equal(pos, [2.5, 30.0])


@pytest.mark.parametrize("obj_type", ["Big Car", ""])
def test_write_tracks_rejects_a_type_its_parser_would_reject(obj_type, tmp_path):
    # Written, "Big Car" would give a 19-field line and "" a 17-field one.
    tracker = MultiObjectTracker(RunConfig(min_hits=1))
    reports = [tracker.step(frame, detections([(0.0, 10.0 + frame)],
                                              obj_type=obj_type))
               for frame in range(2)]
    assert [len(report) for report in reports] == [1, 1]
    path = tmp_path / "tracks.txt"
    with pytest.raises(ContractViolationError, match="not one word"):
        kio.write_tracks(reports, path)
    assert not path.exists()


@pytest.mark.parametrize("write", [kio.write_detections, kio.write_annotations])
def test_label_writers_reject_a_type_their_parser_would_reject(write, tmp_path):
    record = kio.GroundTruthRecord(0, "Big Car", 0.0, 0, 0.0, (0.0,) * 4,
                                   (1.0,) * 3, (0.0,) * 3, 0.0, 1.0, track_id=1)
    path = tmp_path / "labels.txt"
    for frames in ([[record]], [kio.as_labels([record])]):
        with pytest.raises(ContractViolationError, match="'Big Car'"):
            write(frames, path)
        assert not path.exists()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("kind", ["detections", "annotations", "tracks"])
def test_label_writers_reject_a_number_their_parser_would_reject(kind, value,
                                                                tmp_path):
    # Written, the value of frame 1 would read "inf" or "nan", which no
    # parser accepts: the writer refuses the file before writing a line.
    record = kio.GroundTruthRecord(1, "Car", 0.0, 0, 0.0, (0.0,) * 4, (1.0,) * 3,
                                   (0.0, 1.5, value), 0.0, 1.0, track_id=1)
    frames = {"tracks": [_report(0, [1], [(0.0, 1.0)]),
                         _report(1, [1], [(value, 1.0)])],
              "detections": [[], [record]], "annotations": [[], [record]]}[kind]
    write = {"tracks": kio.write_tracks, "detections": kio.write_detections,
             "annotations": kio.write_annotations}[kind]
    path = tmp_path / "labels.txt"
    with pytest.raises(ContractViolationError, match=f"{path}: .* not finite"):
        write(frames, path)
    assert not path.exists()


# Types from a few letters and the characters that split a field or a line.
_types = st.text(st.sampled_from(list("aZé-_ \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u2028")),
                 max_size=4) | st.text(max_size=3)


def test_a_file_any_writer_accepts_parses_back_row_for_row(tmp_path):
    # A writer either refuses a type before writing anything or writes
    # lines that parse back into as many rows, with the types written.
    path = tmp_path / "labels.txt"

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(types=st.lists(_types, min_size=1, max_size=3),
           kind=st.sampled_from(["detections", "annotations", "tracks"]))
    def check(types, kind):
        path.unlink(missing_ok=True)
        write, parse = {
            "detections": (kio.write_detections,
                           lambda: kio.parse_detections(path).detections),
            "annotations": (kio.write_annotations,
                            lambda: kio.parse_annotations(path)),
            "tracks": (kio.write_tracks, lambda: kio.parse_tracks(path))}[kind]
        if kind == "tracks":
            frames = [_report(f, [1], [(0.0, 10.0)], obj_type=t)
                      for f, t in enumerate(types)]
        else:
            frames = [[kio.GroundTruthRecord(f, t, 0.0, 0, 0.0, (0.0,) * 4,
                                             (1.0,) * 3, (0.0,) * 3, 0.0, 1.0,
                                             track_id=f)]
                      for f, t in enumerate(types)]
        try:
            write(frames, path)
        except ContractViolationError:
            assert not all(map(kio.is_word, types)) and not path.exists()
            return
        assert [labels.obj_type.tolist() for labels in parse()] == [[t] for t in types]

    check()


# Values with at most three decimals survive the writers' nine-decimal format.
_decimal = st.integers(-10 ** 6, 10 ** 6).map(lambda n: n / 1000)


def _records(record_type, score, **extra):
    return st.lists(st.builds(
        record_type, frame=st.integers(0, 30),
        obj_type=st.sampled_from(["Car", "Van", "Pedestrian", "Cyclist"]),
        truncated=_decimal, occluded=st.integers(0, 3), alpha=_decimal,
        bbox2d=st.tuples(*[_decimal] * 4), dims=st.tuples(*[_decimal] * 3),
        location=st.tuples(*[_decimal] * 3), rotation_y=_decimal, score=score,
        **extra), min_size=1, max_size=6)


_ROUND_TRIPS = {
    "detections": (_records(kio.DetectionRecord, _decimal),
                   lambda r: format_record(r, with_id=False, with_score=True),
                   lambda path: kio.parse_detections(path).detections,
                   kio.DETECTION_FIELDS),
    "annotations": (_records(kio.GroundTruthRecord, st.just(1.0),
                             track_id=st.integers(0, 10 ** 6)),
                    lambda r: format_record(r, with_id=True, with_score=False),
                    kio.parse_annotations, kio.ANNOTATION_FIELDS),
    "tracks": (_records(kio.GroundTruthRecord, _decimal,
                        track_id=st.integers(0, 10 ** 6)),
               lambda r: format_record(r, with_id=True, with_score=True),
               kio.parse_tracks, kio.TRACK_FIELDS),
}


@pytest.mark.parametrize("kind", sorted(_ROUND_TRIPS))
def test_parse_inverts_format(kind, tmp_path):
    records_strategy, fmt, parse, n_fields = _ROUND_TRIPS[kind]

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(records_strategy)
    def check(records):
        lines = [fmt(r) for r in records]
        assert all(len(line.split()) == n_fields for line in lines)
        path = tmp_path / "records.txt"
        path.write_text("\n".join(lines) + "\n")
        frames = parse(path)
        assert len(frames) == max(r.frame for r in records) + 1
        parsed = [r for frame_records in label_records(frames)
                  for r in frame_records]
        assert parsed == sorted(records, key=lambda r: r.frame)

    check()


# -- columnar writers against the per-row reference writers ------------------

# Signed zeros and magnitudes across the nine-decimal format's range.
_number = (st.sampled_from([0.0, -0.0])
           | st.builds(lambda m, sign: sign * m, st.floats(1e-9, 1e6),
                       st.sampled_from([1.0, -1.0])))
# Sparse ids, as a tracker leaves them once tracks have died.
_ids = st.lists(st.integers(0, 10 ** 9), unique=True, max_size=6)


@st.composite
def _reports(draw):
    frames = sorted(draw(st.sets(st.integers(0, 10 ** 4), max_size=5)))
    reports = []
    for frame in frames:
        ids = draw(_ids)
        k = len(ids)
        values = np.array(draw(st.lists(_number, min_size=12 * k,
                                        max_size=12 * k))).reshape(k, 12)
        reports.append(FrameReport(
            frame=frame, ids=np.array(ids, dtype=np.int64),
            position=values[:, 0:2], elevation=values[:, 2], yaw=values[:, 3],
            dims=values[:, 4:7], score=values[:, 7], bbox2d=values[:, 8:12],
            status=np.array(draw(st.lists(st.sampled_from([1, 2]), min_size=k,
                                          max_size=k)), dtype=np.int8),
            obj_type=np.array(draw(st.lists(st.sampled_from(
                ["Car", "Van", "Pedestrian"]), min_size=k, max_size=k)),
                dtype=object)))
    return reports


@st.composite
def _trajectories(draw):
    frames = sorted(draw(st.sets(st.integers(0, 10 ** 4), max_size=5)))
    trajectory = []
    for frame in frames:
        rows = [(i, s) for i in draw(_ids)
                for s in draw(st.sets(st.integers(0, 2), min_size=1))]
        rows = draw(st.permutations(rows))
        k = len(rows)
        xy = np.array(draw(st.lists(_number, min_size=2 * k, max_size=2 * k)))
        trajectory.append((frame, np.array([i for i, _ in rows], dtype=np.int64),
                           xy.reshape(k, 2),
                           np.array([s for _, s in rows], dtype=np.int8)))
    return trajectory


def _empty_report(frame):
    return FrameReport(frame=frame, ids=np.zeros(0, dtype=np.int64),
                       position=np.zeros((0, 2)), elevation=np.zeros(0),
                       yaw=np.zeros(0), dims=np.zeros((0, 3)), score=np.zeros(0),
                       bbox2d=np.zeros((0, 4)), status=np.zeros(0, dtype=np.int8),
                       obj_type=np.zeros(0, dtype=object))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(reports=[], trajectory=[])
@example(reports=[_empty_report(0), _empty_report(3)], trajectory=[])
@given(reports=_reports(), trajectory=_trajectories())
def test_columnar_writers_match_per_row_reference(tmp_path, reports, trajectory):
    for write, reference, data, name in (
            (kio.write_tracks, reference_write_tracks, reports, "tracks.txt"),
            (kio.export_trajectory_csv, reference_export_trajectory_csv,
             trajectory, "trajectory.csv")):
        write(data, tmp_path / name)
        reference(data, tmp_path / ("reference-" + name))
        assert ((tmp_path / name).read_bytes()
                == (tmp_path / ("reference-" + name)).read_bytes())


# -- the columnar parser against the per-line reference ---------------------

_KINDS = {"detections": (lambda path: kio.parse_detections(path).detections,
                         kio.DETECTION_FIELDS),
          "annotations": (kio.parse_annotations, kio.ANNOTATION_FIELDS),
          "tracks": (kio.parse_tracks, kio.TRACK_FIELDS)}


def _underscored(token, at):
    """`token` with "_" between the first two adjacent digits from `at` on."""
    for i in range(at, len(token)):
        if i and token[i - 1].isdigit() and token[i].isdigit():
            return token[:i] + "_" + token[i:]
    return token


@st.composite
def _int_token(draw, values, underscores=True):
    value = draw(values)
    token = draw(st.sampled_from([str(value), f"+{value}" if value >= 0
                                  else str(value), f"{value:03d}"]))
    return _underscored(token, draw(st.integers(0, 4))) \
        if underscores and draw(st.booleans()) else token


@st.composite
def _float_token(draw, underscores=True):
    value = draw(_number)
    token = draw(st.sampled_from([repr(value), f"{value:.9f}", f"{value:e}",
                                  f"{value:.3g}", f"{value:016.4f}"]))
    if draw(st.booleans()) and not token.startswith("-"):
        token = "+" + token
    return _underscored(token, draw(st.integers(0, 6))) \
        if underscores and draw(st.booleans()) else token


# What `str.split` splits at, besides the ASCII blanks: a unit separator, a
# no-break space and an ideographic space.
_SEPARATORS = [" ", "  ", "\t", "\x1f", "\xa0", "\u3000"]


@st.composite
def _label_file(draw, kind, underscores=True):
    """Text of a valid label file of `kind`: frames out of order and with
    gaps, blank and whitespace-only lines, mixed line ends, and numeric
    tokens in several spellings (digit underscores only if `underscores`)."""
    n_fields = _KINDS[kind][1]
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        tokens = [draw(_int_token(st.integers(0, 40), underscores))]
        if kind != "detections":
            tokens.append(draw(_int_token(st.integers(-10 ** 12, 10 ** 12),
                                          underscores)))
        tokens.append(draw(st.sampled_from(["Car", "Van", "Fußgänger", "DontCare"])))
        tokens.append(draw(_float_token(underscores)))
        tokens.append(draw(_int_token(st.integers(0, 3), underscores)))
        tokens += [draw(_float_token(underscores))
                   for _ in range(n_fields - len(tokens))]
        sep = draw(st.sampled_from(_SEPARATORS))
        lines.append(draw(st.sampled_from(["", " "])) + sep.join(tokens))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "   ", "\t"])))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


def _assert_parses_as_reference(path, kind):
    frames = _KINDS[kind][0](path)
    records, raw = reference_parse(path, kind)
    # repr tells -0.0 from 0.0 and shows every float exactly
    assert repr(label_records(frames)) == repr(records)
    assert [labels.raw.tolist() for labels in frames] == raw


def _refuse_per_token_checks(monkeypatch):
    """Make the per-line path fail: only numpy's reader may read a file."""
    def refuse(*args):
        raise AssertionError("per-token check on the success path")

    monkeypatch.setattr(kio, "_float_field", refuse)
    monkeypatch.setattr(kio, "_int_field", refuse)


def _count_per_line_reads(monkeypatch) -> list:
    calls = []
    by_line = kio._table_by_line
    monkeypatch.setattr(kio, "_table_by_line",
                        lambda *args: calls.append(args[0]) or by_line(*args))
    return calls


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_parser_matches_per_line_reference(kind, tmp_path):
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_label_file(kind))
    def check(text):
        path = tmp_path / "labels.txt"
        path.write_bytes(text.encode())
        _assert_parses_as_reference(path, kind)

    check()


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_plain_spellings_parse_as_the_reference_without_the_per_line_path(
        kind, tmp_path, monkeypatch):
    # repr, fixed, exponent and general floats, signs and leading zeros:
    # spellings numpy's reader accepts, so no file may fall back.
    _refuse_per_token_checks(monkeypatch)

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_label_file(kind, underscores=False))
    def check(text):
        path = tmp_path / "labels.txt"
        path.write_bytes(text.encode())
        _assert_parses_as_reference(path, kind)

    check()


@pytest.mark.parametrize("sep", [" ", "\x1f", "\xa0", "\u3000"])
def test_tokens_split_where_str_split_does(sep, tmp_path, monkeypatch):
    _refuse_per_token_checks(monkeypatch)
    path = tmp_path / "d.txt"
    path.write_bytes((sep.join(DET_LINE.split()) + sep + "\n").encode())
    _assert_parses_as_reference(path, "detections")


def test_a_type_holding_a_no_break_space_is_two_fields(tmp_path):
    path = tmp_path / "d.txt"
    path.write_bytes(DET_LINE.replace("Car", "Big\xa0Car").encode() + b"\n")
    with pytest.raises(ParseError) as reference:
        reference_parse(path, "detections")
    with pytest.raises(ParseError) as parsed:
        kio.parse_detections(path)
    assert str(parsed.value) == str(reference.value) == \
        f"{path}:1: expected 17 fields, got 18"


@pytest.mark.parametrize("kind, line", [
    ("detections", "1_0" + DET_LINE[1:]),
    ("detections", DET_LINE.replace("-1.50", "-1_000.5")),
    ("annotations", GT_LINE.replace(" 7 ", " \u0661\u0662 ")),
    ("annotations", "\u0663" + GT_LINE[1:].replace("30.00", "\u0663\u0660.\u0665")),
    ("tracks", TRACK_LINE.replace("0.85", "0.8_5"))])
def test_spellings_numpy_refuses_are_read_by_the_per_line_path(
        kind, line, tmp_path, monkeypatch):
    # Digit underscores and non-ASCII digits: `int` and `float` accept them.
    calls = _count_per_line_reads(monkeypatch)
    path = tmp_path / "labels.txt"
    path.write_bytes((DET_LINE if kind == "detections" else TRACK_LINE
                      if kind == "tracks" else GT_LINE).encode() + b"\n"
                     + line.encode() + b"\n")
    _assert_parses_as_reference(path, kind)
    assert calls == [path]


def test_a_deprecation_warning_from_numpy_sends_the_file_to_the_per_line_path(
        tmp_path, monkeypatch):
    # numpy < 2 reads "1.5" in an integer column as 1 and only warns.
    loadtxt = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(kio.np, "loadtxt", warning_loadtxt)
    calls = _count_per_line_reads(monkeypatch)
    path = tmp_path / "gt.txt"
    path.write_text(GT_LINE + "\n" + GT_LINE.replace(" 7 ", " 8 ") + "\n")
    _assert_parses_as_reference(path, "annotations")
    assert calls == [path]


_BAD_TOKENS = ["nan", "inf", "-inf", "1e999", "x1"]
_BAD_INTEGERS = [str(2 ** 63), str(-2 ** 63 - 1), "1.5"]


@st.composite
def _mutated_file(draw, kind):
    """A valid file with one line broken."""
    text = draw(_label_file(kind))
    lines = text.splitlines()
    at = [i for i, line in enumerate(lines) if line.strip()]
    if not at:
        lines.append(DET_LINE if kind == "detections"
                     else TRACK_LINE if kind == "tracks" else GT_LINE)
        at = [len(lines) - 1]
    i = draw(st.sampled_from(at))
    tokens = lines[i].split()
    mutation = draw(st.sampled_from(["drop", "extra", "token", "frame",
                                     "score and frame"]))
    if mutation == "drop":
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    elif mutation == "extra":
        tokens.insert(draw(st.integers(0, len(tokens))), "1.0")
    elif mutation == "token":
        type_at = 1 if kind == "detections" else 2
        column = draw(st.sampled_from([c for c in range(len(tokens))
                                       if c != type_at]))
        integer = column < type_at or column == type_at + 2
        tokens[column] = draw(st.sampled_from(
            _BAD_TOKENS + (_BAD_INTEGERS if integer else [])))
    elif mutation == "frame":
        tokens[0] = draw(st.sampled_from(["-1", str(kio.MAX_FRAME + 1),
                                          str(10 ** 18)]))
    else:
        tokens[-1] = "nan"
        tokens[0] = draw(st.sampled_from(["x", str(kio.MAX_FRAME + 1)]))
    lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_parser_errors_match_per_line_reference(kind, tmp_path):
    parse = _KINDS[kind][0]

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_mutated_file(kind))
    def check(text):
        path = tmp_path / "labels.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as reference:
            reference_parse(path, kind)
        with pytest.raises(ParseError) as columnar:
            parse(path)
        assert str(columnar.value) == str(reference.value)

    check()


def test_track_line_reports_score_before_frame(tmp_path):
    path = tmp_path / "trk.txt"
    path.write_text("x" + TRACK_LINE[1:-4] + "nan\n")
    with pytest.raises(ParseError, match=r"trk\.txt:1: column 18: non-finite"):
        kio.parse_tracks(path)


def test_huge_frame_index_is_a_parse_error(tmp_path):
    # Rejected before anything is sized by the frame index.
    path = tmp_path / "d.txt"
    path.write_text(DET_LINE + "\n" + str(10 ** 18) + DET_LINE[1:] + "\n")
    with pytest.raises(ParseError, match=r"d\.txt:2: column 1: frame index "
                                         r"1000000000000000000 exceeds 1000000"):
        kio.parse_detections(path)


def test_valid_file_parses_without_per_token_checks(tmp_path, monkeypatch):
    _refuse_per_token_checks(monkeypatch)
    for name, text, parse in (
            ("d.txt", DET_LINE + "\n\n" + DET_LINE_F3 + "\n",
             lambda p: kio.parse_detections(p).detections),
            ("gt.txt", GT_LINE + "\n", kio.parse_annotations),
            ("trk.txt", TRACK_LINE + "\n", kio.parse_tracks)):
        path = tmp_path / name
        path.write_text(text)
        assert sum(map(len, parse(path))) == text.count("\n") - text.count("\n\n")


# -- text encoding and memory ------------------------------------------------

@pytest.mark.parametrize("data, line_no", [
    (b"0 7 Fu\xdfg", 1),
    (GT_LINE.encode() + b"\n0 7 Fu\xdfg", 2),
    (GT_LINE.encode() + b"\r\n\r\xff\n", 3)])
def test_a_file_that_is_not_utf8_is_a_parse_error(data, line_no, tmp_path):
    path = tmp_path / "gt.txt"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=rf"gt\.txt:{line_no}: not UTF-8 text$"):
        kio.parse_annotations(path)


_ROUND_TRIP = """
import sys
from dynatrack import kitti_io
frames = kitti_io.parse_annotations(sys.argv[1])
kitti_io.write_annotations(frames, sys.argv[2])
frames[0].raw = None  # formatted from the columns
kitti_io.write_annotations(frames, sys.argv[3])
"""


def test_label_files_are_utf8_in_an_ascii_locale(tmp_path):
    src = tmp_path / "gt.txt"
    src.write_bytes(GT_LINE.replace("Car", "Fußgänger").encode() + b"\n")
    python_stdout(_ROUND_TRIP, src, tmp_path / "raw.txt", tmp_path / "formatted.txt",
            LC_ALL="C", PYTHONUTF8="0")
    assert (tmp_path / "raw.txt").read_bytes() == src.read_bytes()
    assert "Fußgänger".encode() in (tmp_path / "formatted.txt").read_bytes()


_LARGE_FILE = PEAK_RSS + """
import sys
from dynatrack import kitti_io

before = peak()
frames = kitti_io.parse_detections(sys.argv[1]).detections
assert sum(map(len, frames)) == int(sys.argv[2])
print(peak() - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the peak RSS from Linux's VmHWM")
def test_parsing_a_large_file_stays_within_a_memory_bound(tmp_path):
    # The growth of the child's own peak RSS (`PEAK_RSS`). The
    # parsed frames keep every source line, so the peak grows with the file:
    # by 3.1 times its size on Linux, for lines formatted as the writers
    # format them. Splitting every line of the file at once grew it by 10.3.
    n = 200_000
    path = tmp_path / "d.txt"
    head = " Car 0.000000000 0" + " %.9f" * 8 % (-1.5, 100, 120, 150, 160, 1.5,
                                                1.7, 4.2)
    tail = " %.9f" * 4 % (1.4, 30, 0.1, 0.92) + "\n"
    path.write_text("".join(f"{i // 200}{head} {i % 97}.250000000{tail}"
                            for i in range(n)))
    growth = float(python_stdout(_LARGE_FILE, path, n))
    assert growth < 4.5 * path.stat().st_size
