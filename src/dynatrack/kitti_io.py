"""KITTI-style label I/O, dataset container, trajectory CSV export.

Line formats (whitespace separated):
  detections   frame type trunc occ alpha bbox(4) dims(3) loc(3) rot_y score
  annotations  frame id type trunc occ alpha bbox(4) dims(3) loc(3) rot_y
  tracks       frame id type trunc occ alpha bbox(4) dims(3) loc(3) rot_y score

A UTF-8 file parses into one `Labels` per frame: that frame's rows as
columns, in file order, sliced from one table per file. Frames are dense up
to the file's last labelled frame; a frame with no rows is an empty
`Labels`. numpy's C reader reads the table; a file it refuses is read again
line by line with `int` and `float`, the definition, which raises the first
bad line as a ParseError.

Camera locations (x right, y down, z forward) map to the tracking ground
plane as (lateral, longitudinal) = (x, z) with y kept as elevation; the
mapping is inverted on write.
"""
from __future__ import annotations

import math
import warnings
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
        track_id, raw = self.track_id, self.raw
        return Labels(self.obj_type[index], self.truncated[index],
                      self.occluded[index], self.alpha[index], self.bbox2d[index],
                      self.dims[index], self.location[index],
                      self.rotation_y[index], self.score[index],
                      None if track_id is None else track_id[index],
                      None if raw is None else raw[index])


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
GROUND_COLUMNS = slice(0, 3, 2)


def ground_position(labels: Labels) -> np.ndarray:
    """Ground-plane (lateral, longitudinal) rows `(n, 2)` from camera
    locations, as one C-contiguous copy: the tracker and scoring read it fastest."""
    return labels.location[:, GROUND_COLUMNS].copy()


def camera_location(position, elevation: float) -> tuple:
    """Invert ground_position for one point: (x, y, z) camera coordinates."""
    return (float(position[0]), float(elevation), float(position[1]))


@dataclass
class SequenceDataset:
    """Per-frame detections with optional ground truth, each as parsed.

    Frames are `Labels` when parsed, or record lists from `synth.generate`.
    """

    sequence_id: str
    detections: list = field(default_factory=list)
    ground_truth: list | None = None


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


def _row_dtype(n_fields: int, labeled: bool) -> np.dtype:
    """A line as a structured row; the floats after `occluded` form `numbers`."""
    head = [("frame", "i8")] + [("track_id", "i8")] * labeled
    return np.dtype(head + [("obj_type", "O"), ("truncated", "f8"), ("occluded", "i8"),
                            ("numbers", "f8", (n_fields - len(head) - 3,))])


def _table(raw: list, n_fields: int, labeled: bool) -> np.ndarray:
    """A file's non-blank lines as rows, read by numpy's C reader: it splits
    as `str.split` and converts as `int` and `float` do, but refuses more
    (digit underscores, non-ASCII digits). A refusal, a bad frame index, a
    non-finite value or numpy < 2's warning on reading an int through a
    float raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        rows = np.loadtxt(raw, dtype=_row_dtype(n_fields, labeled),
                          comments=None, ndmin=1)
    if rows["frame"].min() < 0 or rows["frame"].max() > MAX_FRAME:
        raise ValueError("frame range")
    if not (np.isfinite(rows["truncated"]).all()
            and np.isfinite(rows["numbers"]).all()):
        raise ValueError("non-finite")
    return rows


def _table_by_line(path, lines: list, n_fields: int, labeled: bool) -> np.ndarray:
    """The definition of the rows `_table` reads, raising the first bad line
    as a ParseError. Per line: the field count, then each numeric token left
    to right with `int` or `float` (a track line's score first), then the
    frame range."""
    type_at = 2 if labeled else 1
    checks = [(_int_field, i) for i in range(type_at)]
    checks += [(_float_field, type_at + 1), (_int_field, type_at + 2)]
    checks += [(_float_field, i) for i in range(type_at + 3, n_fields)]
    if n_fields == TRACK_FIELDS:
        checks.insert(0, checks.pop())
    rows = []
    for line_no, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != n_fields:
            raise ParseError(
                f"{path}:{line_no}: expected {n_fields} fields, got {len(fields)}")
        for check, i in checks:
            fields[i] = check(fields[i], path, line_no, i + 1)
        if fields[0] < 0:
            raise ParseError(f"{path}:{line_no}: column 1: negative frame index")
        if fields[0] > MAX_FRAME:
            raise ParseError(f"{path}:{line_no}: column 1: frame index "
                             f"{fields[0]} exceeds {MAX_FRAME}")
        rows.append((*fields[:type_at + 3], fields[type_at + 3:]))
    return np.array(rows, dtype=_row_dtype(n_fields, labeled))


def _parse(path: Path, n_fields: int, labeled: bool) -> list:
    """Dense per-frame `Labels` of one file; a bad line raises ParseError.
    A file `_table` refuses is read again by the definition."""
    try:
        lines = path.read_bytes().decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        # The line of the first bad byte, counted as `splitlines` counts.
        line_no = len((exc.object[:exc.start].decode("utf-8") + "?").splitlines())
        raise ParseError(f"{path}:{line_no}: not UTF-8 text") from None
    raw = [line for line in lines if line and not line.isspace()]
    if not raw:
        return []
    try:
        rows = _table(raw, n_fields, labeled)
    except (ValueError, OverflowError, DeprecationWarning):
        rows = _table_by_line(path, lines, n_fields, labeled)
    bounds = np.cumsum(np.bincount(rows["frame"])).tolist()
    order = np.argsort(rows["frame"], kind="stable")
    numbers = rows["numbers"]
    block = np.column_stack((rows["truncated"], numbers, np.ones(  # 1.0: no score
        (len(rows), FLOAT_BLOCK - 1 - numbers.shape[1]))))
    obj_type, occluded = rows["obj_type"][order], rows["occluded"][order]
    track_id = rows["track_id"][order] if labeled else None
    del rows, numbers  # freed before the block is sorted: one table copy at a time
    table = _from_block(block[order], obj_type, occluded, track_id,
                        np.array(raw, dtype=object)[order])
    empty = table.take(slice(0, 0))
    return [table.take(slice(start, stop)) if stop > start else empty
            for start, stop in zip([0] + bounds, bounds)]


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


def load_sequence(detection_path, annotation_path) -> SequenceDataset:
    """Detections plus ground truth, each as parsed; `metrics.gated_chunks`
    pairs them frame by frame."""
    ds = parse_detections(detection_path)
    ds.ground_truth = parse_annotations(annotation_path)
    return ds


# -- writing -----------------------------------------------------------------

def is_word(value) -> bool:
    """Whether `value` can be one field of a whitespace-separated label line:
    a string that `str.split` keeps whole (not empty, no whitespace)."""
    return isinstance(value, str) and value.split() == [value]


def _write_lines(path, lines: list, types=(), numbers=()):
    """Write `lines` once each distinct object type among their rows' `types`
    is one word (`is_word`) and every array of the `numbers` they were
    formatted from is finite, so that every line parses back."""
    bad = [obj_type for obj_type in dict.fromkeys(types) if not is_word(obj_type)]
    if bad:
        raise ContractViolationError(f"{path}: object type {bad[0]!r} is not one word")
    if not all(np.isfinite(block).all() for block in numbers):
        raise ContractViolationError(f"{path}: a number to write is not finite")
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""),
                          encoding="utf-8")


def _write_frames(frames, path, with_id: bool):
    """Write label frames (`Labels` or record lists): each frame's parsed
    lines if it has them, else its rows formatted under the frame's index:
    the frame and, `with_id` (annotations, ids ascending within a frame),
    the track id, then type, truncation, occlusion, alpha, bbox (4), dims (3),
    location (3), rotation_y and, without an id (detections), the score."""
    lines, types, blocks = [], [], []
    for frame, labels in enumerate(map(as_labels, frames)):
        if with_id:
            labels = labels.take(np.argsort(labels.track_id, kind="stable"))
        types += labels.obj_type.tolist()
        if labels.raw is not None:
            lines += labels.raw.tolist()
            continue
        numbers = [labels.alpha, labels.bbox2d, labels.dims, labels.location,
                   labels.rotation_y]
        if not with_id:
            numbers.append(labels.score)
        block = np.column_stack(numbers)
        blocks += [labels.truncated, block]
        # One format per row: "%.9f" % x is f"{x:.9f}", and "%d" % i is str(i).
        fmt = (f"{frame} %d" if with_id else f"{frame}") + " %s %.9f %d" \
            + " %.9f" * (13 - with_id)
        heads = zip(labels.track_id.tolist(), labels.obj_type.tolist()) if with_id \
            else zip(labels.obj_type.tolist())
        lines += [fmt % (*head, truncated, occluded, *row)
                  for head, truncated, occluded, row in zip(
                      heads, labels.truncated.tolist(), labels.occluded.tolist(),
                      block.tolist())]
    _write_lines(path, lines, types, blocks)


def write_detections(frames, path):
    """Write detection frames; parsed rows keep their original line."""
    _write_frames(frames, path, with_id=False)


def write_annotations(frames, path):
    """Write ground-truth frames (id-bearing, no score column), ids ascending
    within a frame."""
    _write_frames(frames, path, with_id=True)


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

    obj_type = column("obj_type")
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
        obj_type.take(order).tolist(),
        numbers.take(order, axis=0).tolist())], obj_type.tolist(), [numbers])


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
    with open(path, "w", newline="", encoding="utf-8") as handle:
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
