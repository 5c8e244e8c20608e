"""Run configuration: defaults, validation, flat YAML round-trip."""
from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import ConfigurationError

CONFIG_ENV_VAR = "DYNATRACK_CONFIG"

VALID_ORDERS = (1, 2, 3)
COLD_START_MODES = ("identity", "constant_velocity")


@dataclass
class RunConfig:
    """All tracker tunables. Field names are also the config-file keys."""

    model_order: int = 3
    dynamics_enabled: bool = True
    transition_window: int = 8
    smoothing_window: int = 4
    factor_velocity: float = 0.5
    factor_acceleration: float = 0.25
    factor_jerk: float = 0.15
    process_noise: float = 1.0
    measurement_noise: float = 0.3
    gate_distance: float = 2.5
    min_hits: int = 3
    max_misses: int = 23
    dt: float = 0.1
    seed: int = 0
    cold_start_mode: str = "identity"
    noise_term_strategy: str = "innovation"

    def __post_init__(self):
        validate_config(self)

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes)


def _require(cond: bool, key: str, message: str):
    if not cond:
        raise ConfigurationError(f"config key '{key}': {message}")


def validate_config(cfg: RunConfig):
    """Raise ConfigurationError naming the offending key."""
    _require(cfg.model_order in VALID_ORDERS, "model_order",
             f"must be one of {VALID_ORDERS}, got {cfg.model_order}")
    _require(isinstance(cfg.dynamics_enabled, bool), "dynamics_enabled",
             f"must be a boolean, got {cfg.dynamics_enabled!r}")
    _require(cfg.transition_window >= 3, "transition_window",
             f"must be >= 3, got {cfg.transition_window}")
    _require(cfg.smoothing_window >= 1, "smoothing_window",
             f"must be >= 1, got {cfg.smoothing_window}")
    for key in ("factor_velocity", "factor_acceleration", "factor_jerk",
                "process_noise", "measurement_noise", "gate_distance", "dt"):
        value = getattr(cfg, key)
        _require(isinstance(value, (int, float)) and not isinstance(value, bool),
                 key, f"must be a number, got {value!r}")
        _require(value > 0, key, f"must be positive, got {value}")
    _require(cfg.min_hits >= 1, "min_hits", f"must be >= 1, got {cfg.min_hits}")
    _require(cfg.max_misses >= 0, "max_misses",
             f"must be >= 0, got {cfg.max_misses}")
    _require(isinstance(cfg.seed, int) and not isinstance(cfg.seed, bool),
             "seed", f"must be an integer, got {cfg.seed!r}")
    _require(cfg.cold_start_mode in COLD_START_MODES, "cold_start_mode",
             f"must be one of {COLD_START_MODES}, got {cfg.cold_start_mode!r}")
    # Kept so older config_effective files load; innovation is the only term.
    _require(cfg.noise_term_strategy == "innovation", "noise_term_strategy",
             f"must be 'innovation', got {cfg.noise_term_strategy!r}")


# Key -> annotation name ("int", "float", "bool" or "str"). The annotations are
# strings under `from __future__ import annotations`; the dataclass above is
# the one place a key's type is written.
FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _coerce(key: str, value):
    kind = FIELD_TYPES[key]
    if kind == "bool":
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        raise ConfigurationError(f"config key '{key}': expected a boolean, got {value!r}")
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(f"config key '{key}': expected an integer, got {value!r}")
        return value
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(f"config key '{key}': expected a number, got {value!r}")
        return float(value)
    if not isinstance(value, str):
        raise ConfigurationError(f"config key '{key}': expected a string, got {value!r}")
    return value


def config_from_mapping(mapping: dict) -> RunConfig:
    unknown = set(mapping) - set(FIELD_TYPES)
    if unknown:
        raise ConfigurationError(f"unknown config key '{sorted(unknown)[0]}'")
    values = {key: _coerce(key, value) for key, value in mapping.items()}
    return RunConfig(**values)


def load_config(path: str | Path) -> RunConfig:
    """Load a flat key-value YAML config file."""
    text = Path(path).read_text()
    data = yaml.safe_load(text)
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigurationError(f"config file {path} must hold a flat key-value mapping")
    return config_from_mapping(data)


def save_config(cfg: RunConfig, path: str | Path):
    """Write the config as a flat key-value YAML document (reloadable)."""
    Path(path).write_text(yaml.safe_dump(dataclasses.asdict(cfg), sort_keys=True))


def default_config_path() -> str | None:
    """Path from the environment, if the user set one."""
    value = os.environ.get(CONFIG_ENV_VAR, "")
    return value or None


def merge_overrides(cfg: RunConfig, overrides: dict) -> RunConfig:
    """Apply non-None override values on top of an existing config."""
    changes = {k: _coerce(k, v) for k, v in overrides.items() if v is not None}
    if not changes:
        return cfg
    return cfg.replace(**changes)
