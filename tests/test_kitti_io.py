"""Label file parsing/writing, trajectory CSV round trips, coordinate mapping."""
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dynatrack import kitti_io as kio
from dynatrack.errors import ParseError
from dynatrack.tracker import STATUSES, TRAJECTORY_SOURCES, FrameReport

from helpers import (format_record, label_records, read_trajectory_csv,
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
    assert ds.num_frames == 1
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
    assert ds.num_frames == 4
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


def test_load_sequence_pads_to_common_length(tmp_path):
    det = tmp_path / "det.txt"
    det.write_text(DET_LINE + "\n")
    gt = tmp_path / "gt.txt"
    longer = GT_LINE.split()
    longer[0] = "5"
    gt.write_text(GT_LINE + "\n" + " ".join(longer) + "\n")
    ds = kio.load_sequence(det, gt)
    assert ds.num_frames == 6
    assert len(ds.detections) == 6
    assert len(ds.ground_truth) == 6


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
def _int_token(draw, values):
    value = draw(values)
    token = draw(st.sampled_from([str(value), f"+{value}" if value >= 0
                                  else str(value), f"{value:03d}"]))
    return _underscored(token, draw(st.integers(0, 4))) if draw(st.booleans()) \
        else token


@st.composite
def _float_token(draw):
    value = draw(_number)
    token = draw(st.sampled_from([repr(value), f"{value:.9f}", f"{value:e}",
                                  f"{value:.3g}"]))
    if draw(st.booleans()) and not token.startswith("-"):
        token = "+" + token
    return _underscored(token, draw(st.integers(0, 6))) if draw(st.booleans()) \
        else token


@st.composite
def _label_file(draw, kind):
    """Text of a valid label file of `kind`: frames out of order and with
    gaps, blank and whitespace-only lines, mixed line ends, and numeric
    tokens in several spellings."""
    n_fields = _KINDS[kind][1]
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        tokens = [draw(_int_token(st.integers(0, 40)))]
        if kind != "detections":
            tokens.append(draw(_int_token(st.integers(-10 ** 12, 10 ** 12))))
        tokens.append(draw(st.sampled_from(["Car", "Van", "Fußgänger", "DontCare"])))
        tokens.append(draw(_float_token()))
        tokens.append(draw(_int_token(st.integers(0, 3))))
        tokens += [draw(_float_token()) for _ in range(n_fields - len(tokens))]
        sep = draw(st.sampled_from([" ", "  ", "\t"]))
        lines.append(draw(st.sampled_from(["", " "])) + sep.join(tokens))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "   ", "\t"])))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


def _raw_lines(frames):
    return [labels.raw.tolist() for labels in frames]


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_parser_matches_per_line_reference(kind, tmp_path, monkeypatch):
    parse = _KINDS[kind][0]
    monkeypatch.setattr(kio, "CHUNK_LINES", 3)  # files span several chunks

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_label_file(kind))
    def check(text):
        path = tmp_path / "labels.txt"
        path.write_bytes(text.encode())
        frames = parse(path)
        records, raw = reference_parse(path, kind)
        # repr tells -0.0 from 0.0 and shows every float exactly
        assert repr(label_records(frames)) == repr(records)
        assert _raw_lines(frames) == raw

    check()


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
def test_parser_errors_match_per_line_reference(kind, tmp_path, monkeypatch):
    parse = _KINDS[kind][0]
    monkeypatch.setattr(kio, "CHUNK_LINES", 3)

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
    def refuse(*args):
        raise AssertionError("per-token check on the success path")

    monkeypatch.setattr(kio, "_float_field", refuse)
    monkeypatch.setattr(kio, "_int_field", refuse)
    for name, text, parse in (
            ("d.txt", DET_LINE + "\n\n" + DET_LINE_F3 + "\n",
             lambda p: kio.parse_detections(p).detections),
            ("gt.txt", GT_LINE + "\n", kio.parse_annotations),
            ("trk.txt", TRACK_LINE + "\n", kio.parse_tracks)):
        path = tmp_path / name
        path.write_text(text)
        assert sum(map(len, parse(path))) == text.count("\n") - text.count("\n\n")
