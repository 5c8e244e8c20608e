"""Frames across the tracker boundary, as columns: `Detections` in, one
`FrameReport` out. I/O, scoring and occlusion use them without the tracker."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A report stores a status as its index here. A row's status follows from its
# counters: tentative while `hits < min_hits` (never reported), then coasting
# while `misses > 0` and confirmed otherwise.
STATUSES = ("tentative", "confirmed", "coasting")
TENTATIVE, CONFIRMED, COASTING = range(len(STATUSES))

# A trajectory row stores its source as its index here.
TRAJECTORY_SOURCES = ("measurement", "predicted", "updated")
MEASUREMENT, PREDICTED, UPDATED = range(len(TRAJECTORY_SOURCES))


@dataclass(eq=False)
class Detections:
    """One frame's detections as columns, one row per detection.

    `position (M, 2)` is on the ground plane; `elevation`, `yaw` and
    `dims (M, 3)` are smoothed by the track a row matches; `score`,
    `bbox2d (M, 4)` and the `obj_type` labels are passed on to it.
    """

    position: np.ndarray
    elevation: np.ndarray
    yaw: np.ndarray
    dims: np.ndarray
    score: np.ndarray
    bbox2d: np.ndarray
    obj_type: np.ndarray


@dataclass
class TrackSnapshot:
    """One row of a `FrameReport`, built when the report is iterated."""

    frame: int
    track_id: int
    position: np.ndarray
    elevation: float
    yaw: float
    dims: tuple
    score: float
    status: str
    obj_type: str
    bbox2d: tuple


@dataclass(eq=False)
class FrameReport:
    """The confirmed and coasting tracks after one step, as columns.

    Rows are in bank order, which is ascending id. `status` holds indices
    into STATUSES; the reported columns (`tracker.REPORTED`), views of one
    block, are shaped as in `Detections`.
    """

    frame: int
    ids: np.ndarray
    position: np.ndarray
    status: np.ndarray
    elevation: np.ndarray
    yaw: np.ndarray
    dims: np.ndarray
    score: np.ndarray
    bbox2d: np.ndarray
    obj_type: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        """One `TrackSnapshot` per row."""
        for k, (i, e, y, d, s, c, o, b) in enumerate(zip(
                self.ids.tolist(), self.elevation.tolist(), self.yaw.tolist(),
                self.dims.tolist(), self.score.tolist(), self.status.tolist(),
                self.obj_type.tolist(), self.bbox2d.tolist())):
            yield TrackSnapshot(self.frame, i, self.position[k], e, y, tuple(d),
                                s, STATUSES[c], o, tuple(b))
