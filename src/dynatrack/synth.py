"""Synthetic trajectory generation: piecewise motion regimes plus seeded noise.

Truth is integrated exactly from the Taylor expansion each frame. A segment
holds one derivative constant: at its start that derivative is set (or kept),
higher derivatives are zeroed, and lower ones carry over, so position and all
still-active derivatives stay continuous across the boundary.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import check_kind, check_mapping, require
from .errors import ConfigurationError
from .kitti_io import DetectionRecord, GroundTruthRecord, SequenceDataset, camera_location
from .occlusion import OcclusionSpec

SEGMENT_KINDS = ("stationary", "cv", "ca", "cj")

# Derivative index a segment kind pins: velocity=1, acceleration=2, jerk=3.
_HELD_INDEX = {"cv": 1, "ca": 2, "cj": 3}

DEFAULT_DIMS = (1.5, 1.8, 4.2)
DEFAULT_ELEVATION = 1.5
DEFAULT_BBOX = (0.0, 0.0, 80.0, 40.0)
DETECTION_SCORE = 0.9


def _finite(values, n: int) -> bool:
    """Whether `values` holds exactly `n` finite numbers."""
    return len(values) == n and bool(np.all(np.isfinite(values)))


@dataclass(frozen=True)
class RegimeSegment:
    kind: str
    duration: int
    value: tuple | None = None   # held derivative per axis; None keeps current

    def __post_init__(self):
        require(self.kind in SEGMENT_KINDS, "kind",
                f"must be one of {SEGMENT_KINDS}, got {self.kind!r}")
        require(self.duration >= 1, "duration", f"must be >= 1, got {self.duration}")
        require(self.value is None or _finite(self.value, 2), "value",
                f"needs 2 finite entries, one per axis, got {self.value!r}")


@dataclass
class ObjectSpec:
    initial_position: tuple
    segments: list
    velocity: tuple = (0.0, 0.0)
    acceleration: tuple = (0.0, 0.0)
    jerk: tuple = (0.0, 0.0)
    dims: tuple = DEFAULT_DIMS
    elevation: float = DEFAULT_ELEVATION
    obj_type: str = "Car"

    def __post_init__(self):
        for key, v, n in (("initial", self.initial_position, 2), ("dims", self.dims, 3),
                          ("velocity", self.velocity, 2), ("jerk", self.jerk, 2),
                          ("acceleration", self.acceleration, 2)):
            require(_finite(v, n), key, f"needs {n} finite entries, got {v!r}")
        require(np.isfinite(self.elevation), "elevation",
                f"must be finite, got {self.elevation!r}")
        require(bool(self.segments), "segments", "at least one segment required")
        # The type is one field of a whitespace-separated label line.
        word = isinstance(self.obj_type, str) and self.obj_type.split() == [self.obj_type]
        require(word, "type", f"must be one word, got {self.obj_type!r}")


@dataclass
class ScenarioSpec:
    objects: list
    dt: float = 0.1
    noise_sigma: float = 0.3
    seed: int = 0
    occlusion: OcclusionSpec | None = None

    def __post_init__(self):
        require(self.dt > 0, "dt", f"must be positive, got {self.dt}")
        require(self.noise_sigma >= 0, "noise_sigma",
                f"must be >= 0, got {self.noise_sigma}")
        require(self.seed >= 0, "seed", f"must be >= 0, got {self.seed}")
        require(bool(self.objects), "objects", "at least one object required")


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
    gt = SequenceDataset(sequence_id="synth",
                         detections=[[] for _ in range(num_frames)],
                         ground_truth=gt_frames)
    dets = SequenceDataset(sequence_id="synth", detections=det_frames)
    return gt, dets


def _segment_from_mapping(data) -> RegimeSegment:
    check_mapping(data, ("kind", "duration", "value"), "segment")
    value = data.get("value")
    return RegimeSegment(kind=data.get("kind", ""),
                         duration=check_kind(data.get("duration", 0), "int", "duration"),
                         value=tuple(map(float, value)) if value is not None else None)


def _object_from_mapping(data) -> ObjectSpec:
    check_mapping(data, ("initial", "velocity", "acceleration", "jerk", "segments",
                         "dims", "elevation", "type"), "object")
    if "initial" not in data or "segments" not in data:
        raise ConfigurationError("each object needs 'initial' and 'segments'")
    return ObjectSpec(
        initial_position=tuple(map(float, data["initial"])),
        velocity=tuple(map(float, data.get("velocity", (0.0, 0.0)))),
        acceleration=tuple(map(float, data.get("acceleration", (0.0, 0.0)))),
        jerk=tuple(map(float, data.get("jerk", (0.0, 0.0)))),
        segments=[_segment_from_mapping(s) for s in data["segments"]],
        dims=tuple(map(float, data.get("dims", DEFAULT_DIMS))),
        elevation=float(data.get("elevation", DEFAULT_ELEVATION)),
        obj_type=data.get("type", "Car"),
    )


def _scenario_from_mapping(data) -> ScenarioSpec:
    check_mapping(data, ("dt", "noise_sigma", "seed", "objects", "occlusion"), "scenario")
    occlusion = None
    if data.get("occlusion") is not None:
        occ = check_mapping(data["occlusion"], ("kind", "start_after", "length",
                                                "match_threshold"), "occlusion")
        occlusion = OcclusionSpec(
            kind=occ.get("kind", ""),
            start_after=check_kind(occ.get("start_after", 0), "int", "start_after"),
            length=check_kind(occ.get("length", 0), "int", "length"),
            match_threshold=float(occ.get("match_threshold", 2.0)),
        )
    return ScenarioSpec(
        objects=[_object_from_mapping(o) for o in data.get("objects", [])],
        dt=float(data.get("dt", 0.1)),
        noise_sigma=float(data.get("noise_sigma", 0.3)),
        seed=check_kind(data.get("seed", 0), "int", "seed"),
        occlusion=occlusion,
    )


def load_scenario(path) -> ScenarioSpec:
    """Read a scenario from a YAML document; malformed ones raise ConfigurationError."""
    import yaml   # here, so that importing the package does not load PyYAML
    try:
        return _scenario_from_mapping(yaml.safe_load(Path(path).read_text()))
    except (ConfigurationError, yaml.YAMLError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"scenario file {path}: {exc}") from None
