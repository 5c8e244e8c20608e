"""Multi-object tracking with a motion-dynamics weighted Kalman filter."""

from .config import RunConfig, load_config, save_config
from .dynamics import DynamicsWindow, update_weights
from .filtering import (NoiseModel, StateEstimate, build_noise,
                        packed_transition, post_measurement, predict,
                        transition_block, update)
from .kitti_io import Labels, SequenceDataset, load_sequence, parse_detections
from .metrics import clearmot, idf1, measure_latency
from .occlusion import OcclusionSpec, occlude_dataset
from .synth import ObjectSpec, RegimeSegment, ScenarioSpec, generate
from .tracker import (Detections, FrameReport, MultiObjectTracker,
                      TrackSnapshot, associate)

__version__ = "0.1.0"

__all__ = [
    "RunConfig", "load_config", "save_config",
    "DynamicsWindow", "update_weights",
    "NoiseModel", "StateEstimate",
    "build_noise", "packed_transition", "post_measurement", "predict",
    "transition_block", "update",
    "Labels", "SequenceDataset", "load_sequence", "parse_detections",
    "clearmot", "idf1", "measure_latency",
    "OcclusionSpec", "occlude_dataset",
    "ObjectSpec", "RegimeSegment", "ScenarioSpec", "generate",
    "Detections", "FrameReport", "MultiObjectTracker", "TrackSnapshot",
    "associate",
    "__version__",
]
