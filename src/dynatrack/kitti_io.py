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
from .filtering import Measurement

TRAJECTORY_HEADER = ["frame", "track_id", "x", "y", "source"]
TRAJECTORY_SOURCES = ("measurement", "predicted", "updated", "ground_truth")

DETECTION_FIELDS = 17
ANNOTATION_FIELDS = 17
TRACK_FIELDS = 18

# Largest accepted frame index. Frames are stored densely, so one corrupt
# index would otherwise allocate that many empty frames; KITTI tracking
# sequences have fewer than 1,200 frames.
MAX_FRAME = 1_000_000


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
        return int(token)
    except ValueError:
        raise ParseError(
            f"{path}:{line_no}: column {column}: not an integer: {token!r}") from None


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


def _format_line(head: list, record: DetectionRecord, with_score: bool) -> str:
    """`head` columns, then type..rotation_y, then the score if asked for."""
    parts = head + [record.obj_type, _fmt(record.truncated),
                    str(record.occluded), _fmt(record.alpha)]
    parts += [_fmt(v) for v in record.bbox2d]
    parts += [_fmt(v) for v in record.dims]
    parts += [_fmt(v) for v in record.location]
    parts.append(_fmt(record.rotation_y))
    if with_score:
        parts.append(_fmt(record.score))
    return " ".join(parts)


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


def snapshot_to_record(snap) -> GroundTruthRecord:
    """Convert a tracker snapshot to a writable track record."""
    return GroundTruthRecord(
        frame=snap.frame,
        track_id=snap.track_id,
        obj_type=snap.obj_type,
        truncated=0.0,
        occluded=0,
        alpha=0.0,
        bbox2d=tuple(snap.bbox2d),
        dims=tuple(snap.dims),
        location=camera_location(snap.position, snap.elevation),
        rotation_y=snap.yaw,
        score=snap.score,
    )


def write_tracks(per_frame_snapshots, path):
    """Write tracker output, frames ascending and ids ascending within a frame."""
    lines = []
    for snapshots in per_frame_snapshots:
        records = sorted((snapshot_to_record(s) for s in snapshots),
                         key=lambda r: r.track_id)
        lines.extend(format_labeled(r, with_score=True) for r in records)
    _write_lines(path, lines)


def export_trajectory_csv(points, path):
    """Trajectory rows at full float precision, deterministically ordered."""
    ordered = sorted(points, key=lambda p: (p.frame, p.track_id,
                                            TRAJECTORY_SOURCES.index(p.source)))
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRAJECTORY_HEADER)
        for p in ordered:
            writer.writerow([p.frame, p.track_id, repr(p.x), repr(p.y), p.source])


def measurements_from(ds: SequenceDataset) -> list:
    """Per-frame Measurement lists for the tracker."""
    frames = []
    for frame_records in ds.detections:
        frames.append([
            Measurement(
                position=ground_position(r),
                elevation=r.location[1],
                yaw=r.rotation_y,
                dims=r.dims,
                score=r.score,
                bbox2d=r.bbox2d,
                obj_type=r.obj_type,
            )
            for r in frame_records
        ])
    return frames


def id_position_frames(frames) -> list:
    """Per-frame (track_id, ground position) pairs for the metrics layer."""
    return [[(r.track_id, ground_position(r)) for r in frame_records]
            for frame_records in frames]
