"""KITTI-style label I/O, dataset container, trajectory CSV export.

Line formats (whitespace separated):
  detections   frame type trunc occ alpha bbox(4) dims(3) loc(3) rot_y score
  annotations  frame id type trunc occ alpha bbox(4) dims(3) loc(3) rot_y
  tracks       frame id type trunc occ alpha bbox(4) dims(3) loc(3) rot_y score

Camera locations (x right, y down, z forward) map to the tracking ground
plane as (lateral, longitudinal) = (x, z) with y kept as elevation; the
mapping is inverted on write.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParseError
from .tracker import TRAJECTORY_SOURCES, Detections

TRAJECTORY_HEADER = ["frame", "track_id", "x", "y", "source"]

DETECTION_FIELDS = 17
ANNOTATION_FIELDS = 17
TRACK_FIELDS = 18

# Largest accepted frame index. Frames are stored densely, so one corrupt
# index would otherwise allocate that many empty frames; KITTI tracking
# sequences have fewer than 1,200 frames.
MAX_FRAME = 1_000_000

# Integer columns are stored as int64 downstream; wider values are rejected.
INT64 = np.iinfo(np.int64)


@dataclass
class DetectionRecord:
    frame: int
    obj_type: str
    truncated: float
    occluded: int
    alpha: float
    bbox2d: tuple
    dims: tuple            # height, width, length
    location: tuple        # camera x, y, z
    rotation_y: float
    score: float
    raw: str | None = field(default=None, compare=False, repr=False)


@dataclass
class GroundTruthRecord(DetectionRecord):
    """Id-bearing record; also the shape track-output lines parse into."""

    track_id: int = -1


def ground_position(record: DetectionRecord) -> np.ndarray:
    """Ground-plane (lateral, longitudinal) from a camera-frame location."""
    x, _, z = record.location
    return np.array([x, z])


def camera_location(position, elevation: float) -> tuple:
    """Invert ground_position: (x, y, z) camera coordinates."""
    return (float(position[0]), float(elevation), float(position[1]))


@dataclass
class SequenceDataset:
    """Per-frame detections with optional aligned ground truth."""

    sequence_id: str
    detections: list = field(default_factory=list)
    ground_truth: list | None = None

    @property
    def num_frames(self) -> int:
        n = len(self.detections)
        if self.ground_truth is not None:
            n = max(n, len(self.ground_truth))
        return n


def _float_field(token: str, path, line_no: int, column: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(
            f"{path}:{line_no}: column {column}: not a number: {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(
            f"{path}:{line_no}: column {column}: non-finite value: {token!r}")
    return value


def _int_field(token: str, path, line_no: int, column: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(
            f"{path}:{line_no}: column {column}: not an integer: {token!r}") from None
    if not INT64.min <= value <= INT64.max:
        raise ParseError(
            f"{path}:{line_no}: column {column}: integer out of range: {token!r}")
    return value


def _split_lines(path):
    lines = Path(path).read_text().splitlines()
    for line_no, line in enumerate(lines, start=1):
        if line.strip():
            yield line_no, line


def _pad_frames(frames: list, frame: int):
    while len(frames) <= frame:
        frames.append([])


def _shared_columns(tokens, offset: int, path, line_no: int) -> tuple:
    """The 15 columns type..rotation_y starting at token `offset`.

    Returned in DetectionRecord field order (obj_type through rotation_y) so
    callers pass them positionally; errors name 1-based columns.
    """
    head = (tokens[offset],
            _float_field(tokens[offset + 1], path, line_no, offset + 2),
            _int_field(tokens[offset + 2], path, line_no, offset + 3),
            _float_field(tokens[offset + 3], path, line_no, offset + 4))
    # bbox (4), dims (3), location (3), rotation_y
    f = [_float_field(tokens[i], path, line_no, i + 1)
         for i in range(offset + 4, offset + 15)]
    return head + (tuple(f[0:4]), tuple(f[4:7]), tuple(f[7:10]), f[10])


def _parse_frames(path: Path, n_fields: int, make_record) -> list:
    """Per-frame record lists; `make_record(tokens, line_no, line)` builds one."""
    frames: list = []
    for line_no, line in _split_lines(path):
        tokens = line.split()
        if len(tokens) != n_fields:
            raise ParseError(
                f"{path}:{line_no}: expected {n_fields} fields, got {len(tokens)}")
        record = make_record(tokens, line_no, line)
        if record.frame < 0:
            raise ParseError(f"{path}:{line_no}: column 1: negative frame index")
        if record.frame > MAX_FRAME:
            raise ParseError(f"{path}:{line_no}: column 1: frame index "
                             f"{record.frame} exceeds {MAX_FRAME}")
        _pad_frames(frames, record.frame)
        frames[record.frame].append(record)
    return frames


def parse_detections(path, sequence_id: str | None = None) -> SequenceDataset:
    """Parse a 17-column detection file into a dense per-frame dataset."""
    path = Path(path)

    def make_record(tokens, line_no, line):
        return DetectionRecord(
            _int_field(tokens[0], path, line_no, 1),
            *_shared_columns(tokens, 1, path, line_no),
            _float_field(tokens[16], path, line_no, 17),
            raw=line)

    frames = _parse_frames(path, DETECTION_FIELDS, make_record)
    return SequenceDataset(sequence_id=sequence_id or path.stem, detections=frames)


def _parse_labeled(path, expect_score: bool):
    path = Path(path)

    def make_record(tokens, line_no, line):
        score = _float_field(tokens[17], path, line_no, 18) if expect_score else 1.0
        frame = _int_field(tokens[0], path, line_no, 1)
        track_id = _int_field(tokens[1], path, line_no, 2)
        return GroundTruthRecord(frame, *_shared_columns(tokens, 2, path, line_no),
                                 score, raw=line, track_id=track_id)

    return _parse_frames(path, TRACK_FIELDS if expect_score else ANNOTATION_FIELDS,
                         make_record)


def parse_annotations(path) -> list:
    """Parse ground-truth labels (track id, no score) into per-frame lists."""
    return _parse_labeled(path, expect_score=False)


def parse_tracks(path) -> list:
    """Parse tracker output (track id plus score) into per-frame lists."""
    return _parse_labeled(path, expect_score=True)


def load_sequence(detection_path, annotation_path=None) -> SequenceDataset:
    """Detections plus optional aligned ground truth, padded to a common length."""
    ds = parse_detections(detection_path)
    if annotation_path is not None:
        gt = parse_annotations(annotation_path)
        n = max(len(ds.detections), len(gt))
        _pad_frames(ds.detections, n - 1)
        _pad_frames(gt, n - 1)
        ds.ground_truth = gt
    return ds


def _fmt(value: float) -> str:
    return f"{value:.9f}"


def _format_fields(head: list, obj_type: str, truncated: float, occluded: int,
                   alpha: float, numbers) -> str:
    """`head` columns, then type, truncation, occlusion, alpha and `numbers`:
    bbox (4), dims (3), location (3), rotation_y and, if present, the score."""
    return " ".join([*head, obj_type, _fmt(truncated), str(occluded), _fmt(alpha),
                     *map(_fmt, numbers)])


def _format_line(head: list, record: DetectionRecord, with_score: bool) -> str:
    numbers = [*record.bbox2d, *record.dims, *record.location, record.rotation_y]
    if with_score:
        numbers.append(record.score)
    return _format_fields(head, record.obj_type, record.truncated,
                          record.occluded, record.alpha, numbers)


def format_detection(record: DetectionRecord) -> str:
    return _format_line([str(record.frame)], record, with_score=True)


def format_labeled(record: GroundTruthRecord, with_score: bool) -> str:
    return _format_line([str(record.frame), str(record.track_id)], record,
                        with_score)


def _write_lines(path, lines: list):
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def write_detections(frames, path):
    """Write detection records; untouched records keep their original line."""
    lines = []
    for frame_records in frames:
        for record in frame_records:
            lines.append(record.raw if record.raw is not None
                         else format_detection(record))
    _write_lines(path, lines)


def write_annotations(frames, path):
    """Write ground-truth records (id-bearing, no score column)."""
    lines = []
    for frame_records in frames:
        for record in sorted(frame_records, key=lambda r: r.track_id):
            lines.append(record.raw if record.raw is not None
                         else format_labeled(record, with_score=False))
    _write_lines(path, lines)


def write_tracks(reports, path):
    """Write `FrameReport`s as tracker output, ids ascending within a frame.

    A row's location is its position mapped back to the camera frame (see
    `camera_location`); truncation, occlusion and alpha are written as zero.
    """
    lines = []
    for report in reports:
        order = np.argsort(report.ids, kind="stable")
        position = report.position[order]
        numbers = np.column_stack((
            report.bbox2d[order], report.dims[order], position[:, 0],
            report.elevation[order], position[:, 1], report.yaw[order],
            report.score[order])).tolist()
        frame = str(report.frame)
        lines += [_format_fields([frame, str(track_id)], obj_type, 0.0, 0, 0.0, row)
                  for track_id, obj_type, row in zip(
                      report.ids[order].tolist(), report.obj_type[order].tolist(),
                      numbers)]
    _write_lines(path, lines)


def export_trajectory_csv(trajectory, path):
    """Trajectory rows at full float precision, ordered by frame, track id and
    source; `trajectory` holds `MultiObjectTracker.trajectory` entries."""
    empty = (np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0),) * 2 + (
        np.zeros(0, dtype=np.int8),)
    rows = [empty] + [(np.full(len(i), f), i, xy[:, 0], xy[:, 1], s)
                      for f, i, xy, s in trajectory]
    frame, ids, x, y, source = map(np.concatenate, zip(*rows))
    order = np.lexsort((source, ids, frame))
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRAJECTORY_HEADER)
        writer.writerows(zip(frame[order].tolist(), ids[order].tolist(),
                             map(repr, x[order].tolist()),
                             map(repr, y[order].tolist()),
                             [TRAJECTORY_SOURCES[k] for k in source[order].tolist()]))


def measurements_from(ds: SequenceDataset) -> list:
    """Per-frame `Detections` for the tracker, built in one pass over the records."""
    records = [r for frame_records in ds.detections for r in frame_records]
    # location (3), rotation_y, dims (3), score, bbox (4)
    numbers = np.array([(*r.location, r.rotation_y, *r.dims, r.score, *r.bbox2d)
                        for r in records], dtype=float).reshape(len(records), 12)
    columns = dict(position=numbers[:, [0, 2]], elevation=numbers[:, 1],
                   yaw=numbers[:, 3], dims=numbers[:, 4:7], score=numbers[:, 7],
                   bbox2d=numbers[:, 8:12],
                   obj_type=np.array([r.obj_type for r in records], dtype=object))
    ends = np.cumsum([len(frame_records) for frame_records in ds.detections])
    split = {name: np.split(column, ends)[:-1] for name, column in columns.items()}
    return [Detections(**dict(zip(split, frame)))
            for frame in zip(*split.values())]


def id_position_frames(frames) -> list:
    """Per-frame (track_id, ground position) pairs for the metrics layer."""
    return [[(r.track_id, ground_position(r)) for r in frame_records]
            for frame_records in frames]
