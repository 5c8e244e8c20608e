"""Synthetic trajectory generation: piecewise motion regimes plus seeded noise.

Truth is integrated exactly from the Taylor expansion each frame. A segment
holds one derivative constant: at its start that derivative is set (or kept),
higher derivatives are zeroed, and lower ones carry over, so position and all
still-active derivatives stay continuous across the boundary.
"""
from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass

import numpy as np

from .config import check_kind, check_mapping, load_yaml, require
from .errors import ConfigurationError
from .kitti_io import (MAX_FRAME, DetectionRecord, GroundTruthRecord,
                       SequenceDataset, camera_location, is_word)
from .occlusion import OcclusionSpec

SEGMENT_KINDS = ("stationary", "cv", "ca", "cj")

# Derivative index a segment kind pins: velocity=1, acceleration=2, jerk=3.
_HELD_INDEX = {"cv": 1, "ca": 2, "cj": 3}

DEFAULT_DIMS = (1.5, 1.8, 4.2)
DEFAULT_ELEVATION = 1.5
DEFAULT_BBOX = (0.0, 0.0, 80.0, 40.0)
DETECTION_SCORE = 0.9


def _numbers(values, n: int, key: str) -> tuple:
    """`values`, a list or tuple of `n` finite numbers (`check_kind`), as a
    tuple of floats; else ConfigurationError naming `key`."""
    require(isinstance(values, (list, tuple)) and len(values) == n, key,
            f"needs {n} finite entries, got {values!r}")
    return tuple(float(check_kind(value, "float", key)) for value in values)


@dataclass(frozen=True)
class RegimeSegment:
    kind: str
    duration: int
    value: tuple | None = None   # held derivative per axis; None keeps current

    def __post_init__(self):
        require(self.kind in SEGMENT_KINDS, "kind",
                f"must be one of {SEGMENT_KINDS}, got {self.kind!r}")
        require(check_kind(self.duration, "int", "duration") >= 1, "duration",
                f"must be >= 1, got {self.duration}")
        if self.value is not None:
            object.__setattr__(self, "value", _numbers(self.value, 2, "value"))


@dataclass
class ObjectSpec:
    initial_position: tuple
    segments: list[RegimeSegment]
    velocity: tuple = (0.0, 0.0)
    acceleration: tuple = (0.0, 0.0)
    jerk: tuple = (0.0, 0.0)
    dims: tuple = DEFAULT_DIMS
    elevation: float = DEFAULT_ELEVATION
    obj_type: str = "Car"

    def __post_init__(self):
        self.initial_position = _numbers(self.initial_position, 2, "initial")
        self.velocity = _numbers(self.velocity, 2, "velocity")
        self.acceleration = _numbers(self.acceleration, 2, "acceleration")
        self.jerk = _numbers(self.jerk, 2, "jerk")
        self.dims = _numbers(self.dims, 3, "dims")
        self.elevation = float(check_kind(self.elevation, "float", "elevation"))
        require(bool(self.segments), "segments", "at least one segment required")
        require(is_word(self.obj_type), "type",
                f"must be one word, got {self.obj_type!r}")


@dataclass
class ScenarioSpec:
    objects: list[ObjectSpec]
    dt: float = 0.1
    noise_sigma: float = 0.3
    seed: int = 0
    occlusion: OcclusionSpec | None = None

    def __post_init__(self):
        self.dt = float(check_kind(self.dt, "float", "dt"))
        self.noise_sigma = float(check_kind(self.noise_sigma, "float", "noise_sigma"))
        require(self.dt > 0, "dt", f"must be positive, got {self.dt}")
        require(self.noise_sigma >= 0, "noise_sigma",
                f"must be >= 0, got {self.noise_sigma}")
        require(check_kind(self.seed, "int", "seed") >= 0, "seed",
                f"must be >= 0, got {self.seed}")
        require(bool(self.objects), "objects", "at least one object required")
        # Checked before anything is integrated: frame indices past MAX_FRAME
        # would be written, and no label file parser reads them.
        for number, obj in enumerate(self.objects, start=1):
            frames = sum(segment.duration for segment in obj.segments)
            require(frames <= MAX_FRAME + 1, "segments",
                    f"object {number} lasts {frames} frames, more than the "
                    f"{MAX_FRAME + 1} of a label file")


def object_truth(obj: ObjectSpec, dt: float) -> np.ndarray:
    """Ground-plane positions for every frame of the object's lifespan."""
    p = np.array(obj.initial_position, dtype=float)
    state = [np.array(obj.velocity, dtype=float),
             np.array(obj.acceleration, dtype=float),
             np.array(obj.jerk, dtype=float)]
    positions = []
    for segment in obj.segments:
        if segment.kind == "stationary":
            state = [np.zeros(2), np.zeros(2), np.zeros(2)]
        else:
            held = _HELD_INDEX[segment.kind]
            if segment.value is not None:
                state[held - 1] = np.array(segment.value, dtype=float)
            for i in range(held, 3):
                state[i] = np.zeros(2)
        v, a, j = state
        for _ in range(segment.duration):
            positions.append(p.copy())
            p = p + v * dt + a * (dt ** 2) / 2.0 + j * (dt ** 3) / 6.0
            v = v + a * dt + j * (dt ** 2) / 2.0
            a = a + j * dt
        state = [v, a, j]
    return np.array(positions)


def generate(spec: ScenarioSpec):
    """Build (ground-truth dataset, noisy detection dataset) for one scenario."""
    rng = np.random.default_rng(spec.seed)
    truths = [object_truth(obj, spec.dt) for obj in spec.objects]
    num_frames = max(len(t) for t in truths)
    gt_frames = [[] for _ in range(num_frames)]
    det_frames = [[] for _ in range(num_frames)]
    for track_id, (obj, truth) in enumerate(zip(spec.objects, truths), start=1):
        noise = rng.normal(0.0, spec.noise_sigma, size=truth.shape) \
            if spec.noise_sigma > 0 else np.zeros(truth.shape)
        noisy = truth + noise
        for frame in range(len(truth)):
            gt_frames[frame].append(GroundTruthRecord(
                frame=frame,
                track_id=track_id,
                obj_type=obj.obj_type,
                truncated=0.0,
                occluded=0,
                alpha=0.0,
                bbox2d=DEFAULT_BBOX,
                dims=obj.dims,
                location=camera_location(truth[frame], obj.elevation),
                rotation_y=0.0,
                score=1.0,
            ))
            det_frames[frame].append(DetectionRecord(
                frame=frame,
                obj_type=obj.obj_type,
                truncated=0.0,
                occluded=0,
                alpha=0.0,
                bbox2d=DEFAULT_BBOX,
                dims=obj.dims,
                location=camera_location(noisy[frame], obj.elevation),
                rotation_y=0.0,
                score=DETECTION_SCORE,
            ))
    gt = SequenceDataset(sequence_id="synth", ground_truth=gt_frames)
    dets = SequenceDataset(sequence_id="synth", detections=det_frames)
    return gt, dets


# Scenario-file keys that differ from their spec field's name.
_FILE_KEYS = {"initial_position": "initial", "obj_type": "type"}


def _from_mapping(cls, data, what: str):
    """A `cls` spec from one mapping of a scenario file, called `what` in
    errors. Its keys are the dataclass's field names (`_FILE_KEYS` renames
    two), a field without a default is required, and a field typed as a
    spec, a list of specs or a spec or None is read the same way."""
    fields = {_FILE_KEYS.get(f.name, f.name): f for f in dataclasses.fields(cls)}
    check_mapping(data, fields, what)
    missing = [f"'{key}'" for key, f in fields.items()
               if f.default is dataclasses.MISSING and key not in data]
    if missing:
        raise ConfigurationError(f"each {what} needs {' and '.join(missing)}")
    hints = typing.get_type_hints(cls)
    values = {}
    for key, value in data.items():
        hint = hints[fields[key].name]
        spec = next(iter(typing.get_args(hint)), None)   # X of list[X], X | None
        if typing.get_origin(hint) is list:   # "objects" holds each "object"
            if not isinstance(value, list):
                raise ConfigurationError(
                    f"'{key}' must be a list, got {type(value).__name__}")
            value = [_from_mapping(spec, item, key[:-1]) for item in value]
        elif dataclasses.is_dataclass(spec) and value is not None:
            value = _from_mapping(spec, value, key)
        values[fields[key].name] = value
    return cls(**values)


def load_scenario(path) -> ScenarioSpec:
    """Read a scenario from a UTF-8 YAML document (`config.load_yaml`)."""
    return load_yaml(path, "scenario",
                     lambda data: _from_mapping(ScenarioSpec, data, "scenario"))
