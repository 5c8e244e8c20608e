"""Run configuration: defaults, validation, flat YAML round-trip."""
from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigurationError

CONFIG_ENV_VAR = "DYNATRACK_CONFIG"

VALID_ORDERS = (1, 2, 3)

# Fewest positions a dynamics window may hold: two differences need three.
MIN_WINDOW = 3


def min_support(order: int) -> int:
    """Fewest window positions from which a model of `order` gets weights: each
    fluctuation series it consumes needs two samples, as one sample's sigma is 0."""
    return max(MIN_WINDOW, order + 1)


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

    def __post_init__(self):
        validate_config(self)

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes)


def require(cond: bool, key: str, message: str):
    """Raise ConfigurationError "config key '<key>': <message>" unless `cond`."""
    if not cond:
        raise ConfigurationError(f"config key '{key}': {message}")


# Annotation name -> (accepted types, what is expected); only "bool" takes a bool.
_KINDS = {"int": (int, "an integer"), "float": ((int, float), "a number"),
          "bool": (bool, "a boolean")}


def check_kind(value, kind: str, key: str):
    """`value` if it is of `kind` ("int", "float" or "bool"); else
    ConfigurationError naming `key`."""
    types, expected = _KINDS[kind]
    require(isinstance(value, types) and isinstance(value, bool) == (kind == "bool"),
            key, f"expected {expected}, got {value!r}")
    return value


def validate_config(cfg: RunConfig):
    """Raise ConfigurationError naming the offending key; types are checked first."""
    for key, kind in FIELD_TYPES.items():
        check_kind(getattr(cfg, key), kind, key)
    require(cfg.model_order in VALID_ORDERS, "model_order",
            f"must be one of {VALID_ORDERS}, got {cfg.model_order}")
    support = min_support(cfg.model_order)
    require(cfg.transition_window >= support, "transition_window",
            f"must be >= {support} for model_order {cfg.model_order}, "
            f"got {cfg.transition_window}")
    require(cfg.smoothing_window >= 1, "smoothing_window",
            f"must be >= 1, got {cfg.smoothing_window}")
    for key in ("factor_velocity", "factor_acceleration", "factor_jerk",
                "process_noise", "measurement_noise", "gate_distance", "dt"):
        value = getattr(cfg, key)
        require(value > 0, key, f"must be positive, got {value}")
    require(cfg.min_hits >= 1, "min_hits", f"must be >= 1, got {cfg.min_hits}")
    require(cfg.max_misses >= 0, "max_misses",
            f"must be >= 0, got {cfg.max_misses}")


# Key -> annotation name ("int", "float" or "bool"). The annotations are
# strings under `from __future__ import annotations`; the dataclass above is
# the one place a key's type is written.
FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def check_mapping(data, known, what: str, kind: str = "key-value mapping") -> dict:
    """`data` if it is a dict with no key outside `known`; else ConfigurationError
    naming the first unknown key in sorted order."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{what} must be a {kind}, got {type(data).__name__}")
    unknown = sorted(set(data) - set(known), key=str)
    if unknown:
        raise ConfigurationError(f"unknown {what} key '{unknown[0]}'")
    return data


def _coerce(key: str, value):
    """Spellings files and flags use: "true"/"false" (any case) for a bool, an
    int for a float. Any other value is left for `validate_config` to check."""
    kind = FIELD_TYPES[key]
    if kind == "bool" and isinstance(value, str) and value.lower() in ("true", "false"):
        return value.lower() == "true"
    if kind == "float" and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    return value


def config_from_mapping(mapping: dict) -> RunConfig:
    check_mapping(mapping, FIELD_TYPES, "config", "flat key-value mapping")
    return RunConfig(**{key: _coerce(key, value) for key, value in mapping.items()})


def load_config(path: str | Path) -> RunConfig:
    """Load a flat key-value YAML config file."""
    import yaml   # here, so that importing the package does not load PyYAML
    try:
        data = yaml.safe_load(Path(path).read_text())
        return config_from_mapping({} if data is None else data)
    except (ConfigurationError, yaml.YAMLError) as exc:
        raise ConfigurationError(f"config file {path}: {exc}") from None


def save_config(cfg: RunConfig, path: str | Path):
    """Write the config as a flat key-value YAML document (reloadable)."""
    import yaml
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
