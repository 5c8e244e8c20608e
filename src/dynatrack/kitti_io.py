"""KITTI-style label I/O, dataset container, trajectory CSV export.

Line formats (whitespace separated):
  detections   frame type trunc occ alpha bbox(4) dims(3) loc(3) rot_y score
  annotations  frame id type trunc occ alpha bbox(4) dims(3) loc(3) rot_y
  tracks       frame id type trunc occ alpha bbox(4) dims(3) loc(3) rot_y score

A file parses into one `Labels` per frame: that frame's rows as columns, in
file order, sliced from one table per file. Frames are dense; a frame with
no rows is an empty `Labels`.

Camera locations (x right, y down, z forward) map to the tracking ground
plane as (lateral, longitudinal) = (x, z) with y kept as elevation; the
mapping is inverted on write.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractViolationError, ParseError
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
    """One label as an editable object; what `synth.generate` builds."""

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


@dataclass
class GroundTruthRecord(DetectionRecord):
    """Id-bearing record."""

    track_id: int = -1


@dataclass(eq=False)
class Labels:
    """One frame's labels as columns, one row per object.

    `bbox2d (n, 4)`, `dims (n, 3)` (height, width, length) and
    `location (n, 3)` (camera x, y, z) are row blocks; the other columns are
    `(n,)`. `track_id` is None for detections, and `raw` holds the parsed
    lines (None for labels built from records).
    """

    obj_type: np.ndarray
    truncated: np.ndarray
    occluded: np.ndarray
    alpha: np.ndarray
    bbox2d: np.ndarray
    dims: np.ndarray
    location: np.ndarray
    rotation_y: np.ndarray
    score: np.ndarray
    track_id: np.ndarray | None = None
    raw: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.obj_type)

    def take(self, index) -> Labels:
        """The rows at `index`: a slice, a boolean mask or row positions."""
        return Labels(**{name: None if column is None else column[index]
                         for name, column in vars(self).items()})


# Columns of the float block a file or a record list is read into.
FLOAT_BLOCK = 14


def _from_block(block: np.ndarray, obj_type, occluded, track_id=None,
                raw=None) -> Labels:
    """`Labels` viewing the float block's columns: truncated, alpha,
    bbox (4), dims (3), location (3), rotation_y and score."""
    return Labels(obj_type=obj_type, truncated=block[:, 0], occluded=occluded,
                  alpha=block[:, 1], bbox2d=block[:, 2:6], dims=block[:, 6:9],
                  location=block[:, 9:12], rotation_y=block[:, 12],
                  score=block[:, 13], track_id=track_id, raw=raw)


def as_labels(frame) -> Labels:
    """One frame as `Labels`: returned as is, or built from a list of records.

    The one reader of records. `track_id` is kept when every record is a
    `GroundTruthRecord`.
    """
    if isinstance(frame, Labels):
        return frame
    block = np.array([(r.truncated, r.alpha, *r.bbox2d, *r.dims, *r.location,
                       r.rotation_y, r.score) for r in frame],
                     dtype=float).reshape(len(frame), FLOAT_BLOCK)
    track_id = None
    if all(isinstance(r, GroundTruthRecord) for r in frame):
        track_id = np.array([r.track_id for r in frame], dtype=np.int64)
    return _from_block(block, np.array([r.obj_type for r in frame], dtype=object),
                       np.array([r.occluded for r in frame], dtype=np.int64),
                       track_id)


# The camera location columns of the ground plane's (lateral, longitudinal).
GROUND_COLUMNS = [0, 2]


def ground_position(labels: Labels) -> np.ndarray:
    """Ground-plane (lateral, longitudinal) rows `(n, 2)` from camera locations."""
    return labels.location[:, GROUND_COLUMNS]


def stack_frames(frames) -> tuple:
    """Frames of labels (`Labels` or record lists) stacked in order: (every
    row's track id, None if a frame has none; every row's ground position
    `(N, 2)`)."""
    frames = list(map(as_labels, frames))
    location = np.concatenate([np.zeros((0, 3))]
                              + [labels.location for labels in frames])
    ids = None
    if all(labels.track_id is not None for labels in frames):
        ids = np.concatenate([np.zeros(0, dtype=np.int64)]
                             + [labels.track_id for labels in frames])
    return ids, location[:, GROUND_COLUMNS]


def camera_location(position, elevation: float) -> tuple:
    """Invert ground_position for one point: (x, y, z) camera coordinates."""
    return (float(position[0]), float(elevation), float(position[1]))


@dataclass
class SequenceDataset:
    """Per-frame detections with optional aligned ground truth.

    Frames are `Labels` when parsed, or record lists from `synth.generate`.
    """

    sequence_id: str
    detections: list = field(default_factory=list)
    ground_truth: list | None = None

    @property
    def num_frames(self) -> int:
        n = len(self.detections)
        if self.ground_truth is not None:
            n = max(n, len(self.ground_truth))
        return n


# -- parsing -----------------------------------------------------------------

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


# Lines split at a time. Only one chunk's tokens (about 1.3 KB a line) exist
# at once, so parsing needs little more memory than its result. On a 2-vCPU
# Xeon, 256-line chunks parsed faster than 1,024-line chunks or whole files.
CHUNK_LINES = 256


def _ints(column: tuple) -> np.ndarray:
    return np.fromiter(map(int, column), np.int64, len(column))


def _table(lines: list, n_fields: int, labeled: bool) -> list:
    """Dense per-frame `Labels` from a file's lines.

    Every check runs on whole columns; any failure raises ValueError or
    OverflowError (an integer outside int64), and the caller then finds the
    first bad line.
    """
    raw = [line for line in lines if line and not line.isspace()]
    n = len(raw)
    if not n:
        return []
    type_at = 2 if labeled else 1
    frame, occluded, track_id = (np.empty(n, dtype=np.int64) for _ in range(3))
    obj_type = np.empty(n, dtype=object)
    block = np.ones((FLOAT_BLOCK, n))
    for start in range(0, n, CHUNK_LINES):
        rows = [line.split() for line in raw[start:start + CHUNK_LINES]]
        if any(len(fields) != n_fields for fields in rows):
            raise ValueError("field count")
        columns = list(zip(*rows))
        part = slice(start, start + len(rows))
        frame[part] = _ints(columns[0])
        if labeled:
            track_id[part] = _ints(columns[1])
        obj_type[part] = columns[type_at]
        occluded[part] = _ints(columns[type_at + 2])
        # truncated, then alpha through rotation_y and the score if present
        numbers = [columns[type_at + 1], *columns[type_at + 3:]]
        block[:len(numbers), part] = np.fromiter(
            map(float, itertools.chain.from_iterable(numbers)), float,
            len(numbers) * len(rows)).reshape(len(numbers), len(rows))
    if frame.min() < 0 or frame.max() > MAX_FRAME:
        raise ValueError("frame range")
    if not np.isfinite(block).all():
        raise ValueError("non-finite")
    order = np.argsort(frame, kind="stable")
    table = _from_block(block.T[order], obj_type[order], occluded[order],
                        track_id[order] if labeled else None,
                        np.array(raw, dtype=object)[order])
    bounds = np.cumsum(np.bincount(frame)).tolist()
    empty = table.take(slice(0, 0))
    return [table.take(slice(start, stop)) if stop > start else empty
            for start, stop in zip([0] + bounds, bounds)]


def _raise_first_error(path, lines: list, n_fields: int, labeled: bool):
    """Check each line in turn and raise the first failure as a ParseError.

    Per line: the field count, then each numeric token from left to right
    (a track line's score first), then the frame range.
    """
    type_at = 2 if labeled else 1
    checks = [(_int_field, i) for i in range(type_at)]
    checks += [(_float_field, type_at + 1), (_int_field, type_at + 2)]
    checks += [(_float_field, i) for i in range(type_at + 3, n_fields)]
    if n_fields == TRACK_FIELDS:
        checks.insert(0, checks.pop())
    for line_no, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != n_fields:
            raise ParseError(
                f"{path}:{line_no}: expected {n_fields} fields, got {len(fields)}")
        for check, i in checks:
            check(fields[i], path, line_no, i + 1)
        frame = int(fields[0])
        if frame < 0:
            raise ParseError(f"{path}:{line_no}: column 1: negative frame index")
        if frame > MAX_FRAME:
            raise ParseError(f"{path}:{line_no}: column 1: frame index "
                             f"{frame} exceeds {MAX_FRAME}")
    raise ContractViolationError(f"{path}: the column checks failed but no line did")


def _parse(path: Path, n_fields: int, labeled: bool) -> list:
    """Dense per-frame `Labels` of one file; a bad line raises ParseError."""
    lines = path.read_text().splitlines()
    try:
        return _table(lines, n_fields, labeled)
    except (ValueError, OverflowError):
        _raise_first_error(path, lines, n_fields, labeled)


def parse_detections(path) -> SequenceDataset:
    """Parse a 17-column detection file into a dense per-frame dataset."""
    path = Path(path)
    frames = _parse(path, DETECTION_FIELDS, labeled=False)
    return SequenceDataset(sequence_id=path.stem, detections=frames)


def parse_annotations(path) -> list:
    """Parse ground-truth labels (track id, no score; score reads 1.0) into
    per-frame `Labels`."""
    return _parse(Path(path), ANNOTATION_FIELDS, labeled=True)


def parse_tracks(path) -> list:
    """Parse tracker output (track id plus score) into per-frame `Labels`."""
    return _parse(Path(path), TRACK_FIELDS, labeled=True)


def _no_labels(labeled: bool) -> Labels:
    return _from_block(np.zeros((0, FLOAT_BLOCK)), np.zeros(0, dtype=object),
                       np.zeros(0, dtype=np.int64),
                       np.zeros(0, dtype=np.int64) if labeled else None)


def load_sequence(detection_path, annotation_path) -> SequenceDataset:
    """Detections plus aligned ground truth, padded to a common length."""
    ds = parse_detections(detection_path)
    gt = parse_annotations(annotation_path)
    n = max(len(ds.detections), len(gt))
    ds.detections += [_no_labels(False)] * (n - len(ds.detections))
    ds.ground_truth = gt + [_no_labels(True)] * (n - len(gt))
    return ds


# -- writing -----------------------------------------------------------------

def _frame_lines(frame: int, labels: Labels, with_id: bool,
                 with_score: bool) -> list:
    """One frame's lines: its parsed lines if it has them, else its rows
    formatted under index `frame`: the frame and, `with_id`, the track id,
    then type, truncation, occlusion, alpha, bbox (4), dims (3), location (3),
    rotation_y and, `with_score`, the score."""
    if labels.raw is not None:
        return labels.raw.tolist()
    numbers = [labels.alpha, labels.bbox2d, labels.dims, labels.location,
               labels.rotation_y]
    if with_score:
        numbers.append(labels.score)
    # One format per row: "%.9f" % x is f"{x:.9f}", and "%d" % i is str(i).
    fmt = (f"{frame} %d" if with_id else f"{frame}") + " %s %.9f %d" \
        + " %.9f" * (12 + with_score)
    heads = zip(labels.track_id.tolist(), labels.obj_type.tolist()) if with_id \
        else zip(labels.obj_type.tolist())
    return [fmt % (*head, truncated, occluded, *row)
            for head, truncated, occluded, row in zip(
                heads, labels.truncated.tolist(), labels.occluded.tolist(),
                np.column_stack(numbers).tolist())]


def _write_lines(path, lines: list):
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def write_detections(frames, path):
    """Write detection frames (`Labels` or record lists); parsed rows keep
    their original line."""
    _write_lines(path, [line for frame, labels in enumerate(map(as_labels, frames))
                        for line in _frame_lines(frame, labels, False, True)])


def _id_lines(frame: int, labels: Labels, with_score: bool) -> list:
    """One id-bearing frame's lines, ids ascending."""
    labels = labels.take(np.argsort(labels.track_id, kind="stable"))
    return _frame_lines(frame, labels, True, with_score)


def write_annotations(frames, path):
    """Write ground-truth frames (id-bearing, no score column), ids ascending
    within a frame."""
    _write_lines(path, [line for frame, labels in enumerate(map(as_labels, frames))
                        for line in _id_lines(frame, labels, False)])


def write_tracks(reports, path):
    """Write `FrameReport`s as tracker output, ids ascending within a frame.

    Each position goes back to a camera location, the inverse of
    `measurements_from` (see `camera_location`); a track has no truncation,
    occlusion or alpha, so they are written as zeros. The whole sequence is
    stacked, ordered by report and then id with one lexsort, and formatted
    in one pass.
    """
    reports = list(reports)
    if not reports:
        _write_lines(path, [])
        return

    def column(name):
        return np.concatenate([getattr(report, name) for report in reports])

    counts = [len(report) for report in reports]
    ids = column("ids")
    order = np.lexsort((ids, np.repeat(np.arange(len(reports)), counts)))
    frame = np.repeat([report.frame for report in reports], counts)
    position = column("position")
    numbers = np.column_stack((column("bbox2d"), column("dims"), position[:, 0],
                               column("elevation"), position[:, 1],
                               column("yaw"), column("score")))
    # "%.9f" % x is f"{x:.9f}", and "%d" % i is str(i).
    fmt = "%d %d %s 0.000000000 0 0.000000000" + " %.9f" * 12
    _write_lines(path, [fmt % (f, i, t, *row) for f, i, t, row in zip(
        frame.take(order).tolist(), ids.take(order).tolist(),
        column("obj_type").take(order).tolist(),
        numbers.take(order, axis=0).tolist())])


def export_trajectory_csv(trajectory, path):
    """Trajectory rows at full float precision, ordered by frame, track id and
    source; `trajectory` holds `MultiObjectTracker.trajectory` entries."""
    empty = (np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0),) * 2 + (
        np.zeros(0, dtype=np.int8),)
    rows = [empty] + [(np.full(len(i), f), i, xy[:, 0], xy[:, 1], s)
                      for f, i, xy, s in trajectory]
    frame, ids, x, y, source = map(np.concatenate, zip(*rows))
    order = np.lexsort((source, ids, frame))
    # The csv module's default row: comma-separated, "\r\n"-terminated; no
    # field here holds a comma, quote or line break, so none is quoted.
    with open(path, "w", newline="") as handle:
        handle.write(",".join(TRAJECTORY_HEADER) + "\r\n")
        handle.writelines("%d,%d,%r,%r,%s\r\n" % row for row in zip(
            frame[order].tolist(), ids[order].tolist(), x[order].tolist(),
            y[order].tolist(), [TRAJECTORY_SOURCES[k] for k in source[order].tolist()]))


# -- readers -----------------------------------------------------------------

def measurements_from(ds: SequenceDataset) -> list:
    """Per-frame `Detections` for the tracker, sliced from each frame's columns."""
    return [Detections(position=ground_position(labels),
                       elevation=labels.location[:, 1], yaw=labels.rotation_y,
                       dims=labels.dims, score=labels.score, bbox2d=labels.bbox2d,
                       obj_type=labels.obj_type)
            for labels in map(as_labels, ds.detections)]


def id_position_frames(frames) -> list:
    """Per-frame (track_id, ground position) pairs for the metrics layer."""
    return [list(zip(labels.track_id.tolist(), ground_position(labels)))
            for labels in map(as_labels, frames)]
