"""Multi-object tracking with a motion-dynamics weighted Kalman filter.

Each public name is imported from its submodule when it is first used (a
PEP 562 module `__getattr__`), so `import dynatrack` loads only what its
caller touches: building a tracker loads neither the KITTI I/O nor scoring,
occlusion or synthesis, and parsing, scoring and occlusion load no filter
bank.
"""
import sys

__version__ = "0.1.0"

# Submodule -> the public names the package exports from it. Each submodule
# named here is also an attribute of the package, as `dynatrack.metrics`.
_EXPORTS = {
    "config": ("RunConfig", "load_config", "save_config"),
    "dynamics": ("DynamicsWindow", "update_weights"),
    "filtering": ("NoiseModel", "StateEstimate", "build_noise",
                  "packed_transition", "post_measurement", "predict",
                  "transition_block", "update"),
    "frames": ("Detections", "FrameReport", "TrackSnapshot"),
    "kitti_io": ("Labels", "SequenceDataset", "load_sequence", "parse_detections"),
    "metrics": ("clearmot", "idf1"),
    "occlusion": ("OcclusionSpec", "occlude_dataset"),
    "synth": ("ObjectSpec", "RegimeSegment", "ScenarioSpec", "generate"),
    "tracker": ("MultiObjectTracker", "measure_latency"),
    "association": ("associate",),
    "errors": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER, "__version__"]


def __getattr__(name: str):
    """Import the submodule that defines `name`, or is `name`, and keep the
    value in the package's globals, so that later lookups do not come here."""
    module = _OWNER.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # `__import__` is the import statement's own path, which `-X importtime`
    # reports; `importlib.import_module` bypasses it.
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_OWNER, *_EXPORTS})
