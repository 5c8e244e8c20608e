"""Config defaults, validation messages, YAML round trip, override merging."""
import dataclasses
import math
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dynatrack

from dynatrack.config import (FIELD_TYPES, MAX_WINDOW, VALID_ORDERS, RunConfig,
                              config_from_mapping, load_config, merge_overrides,
                              min_support, save_config)
from dynatrack.errors import ConfigurationError


def test_defaults():
    cfg = RunConfig()
    assert cfg.model_order == 3
    assert cfg.dynamics_enabled is True
    assert cfg.transition_window == 8
    assert cfg.smoothing_window == 4
    assert (cfg.factor_velocity, cfg.factor_acceleration, cfg.factor_jerk) == \
        (0.5, 0.25, 0.15)
    assert cfg.process_noise == 1.0
    assert cfg.measurement_noise == 0.3
    assert cfg.gate_distance == 2.5
    assert (cfg.min_hits, cfg.max_misses) == (3, 23)
    assert cfg.dt == 0.1
    assert len(FIELD_TYPES) == 13


@pytest.mark.parametrize("key,value", [
    ("model_order", 0),
    ("model_order", 4),
    ("transition_window", 2),
    # order 3 needs 4 positions: a window of 3 could never adapt
    ("transition_window", 3),
    ("transition_window", MAX_WINDOW + 1),
    ("transition_window", 10 ** 8),
    ("smoothing_window", 0),
    ("smoothing_window", MAX_WINDOW + 1),
    ("smoothing_window", 10 ** 8),
    ("factor_velocity", 0.0),
    ("factor_jerk", -0.1),
    ("process_noise", 0.0),
    ("measurement_noise", -1.0),
    ("gate_distance", 0.0),
    ("min_hits", 0),
    ("max_misses", -1),
    ("dt", 0.0),
])
def test_validation_names_offending_key(key, value):
    with pytest.raises(ConfigurationError, match=f"config key '{key}'"):
        RunConfig(**{key: value})


def test_windows_up_to_the_bound_are_accepted():
    cfg = RunConfig(transition_window=MAX_WINDOW, smoothing_window=MAX_WINDOW)
    assert (cfg.transition_window, cfg.smoothing_window) == (MAX_WINDOW, MAX_WINDOW)
    with pytest.raises(ConfigurationError,
                       match=rf"'smoothing_window': must be in \[1, {MAX_WINDOW}\], "
                             rf"got {MAX_WINDOW + 1}"):
        merge_overrides(cfg, {"smoothing_window": MAX_WINDOW + 1})


def _wrong_types():
    """(key, value) with a value of the wrong type for every key."""
    defaults = RunConfig()
    wrong = {"int": lambda d: [float(d), True, str(d)],
             "float": lambda d: [True, str(d), math.inf],
             "bool": lambda d: [int(d)]}
    cases = [(key, value) for key, kind in FIELD_TYPES.items()
             for value in wrong[kind](getattr(defaults, key))]
    # wrong types that the value checks alone would pass or crash on
    extra = [("min_hits", 2.5), ("max_misses", True), ("model_order", 3.0),
             ("smoothing_window", 2.0), ("transition_window", "8"),
             ("gate_distance", -math.inf), ("dt", math.nan)]
    return cases + [case for case in extra if case not in cases]


@pytest.mark.parametrize("key,value", _wrong_types())
def test_wrong_type_names_key_from_python_and_mappings(key, value):
    with pytest.raises(ConfigurationError, match=f"config key '{key}': expected"):
        RunConfig(**{key: value})
    with pytest.raises(ConfigurationError, match=f"config key '{key}': expected"):
        config_from_mapping({key: value})


def test_readme_config_table_lists_exactly_the_config_keys():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| key | default | meaning |\n", 1)[1].split("\n\n", 1)[0]
    keys = re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE)
    assert sorted(keys) == sorted(FIELD_TYPES)


def test_replace_revalidates():
    cfg = RunConfig()
    assert cfg.replace(dt=0.2).dt == 0.2
    with pytest.raises(ConfigurationError, match="'dt'"):
        cfg.replace(dt=-1.0)


def test_mapping_rejects_unknown_key():
    with pytest.raises(ConfigurationError, match="unknown config key 'speed'"):
        config_from_mapping({"speed": 3})


def test_mapping_type_coercion():
    cfg = config_from_mapping({"process_noise": 2, "dynamics_enabled": "false"})
    assert cfg.process_noise == 2.0
    assert isinstance(cfg.process_noise, float)
    assert cfg.dynamics_enabled is False
    with pytest.raises(ConfigurationError, match="'min_hits'"):
        config_from_mapping({"min_hits": 2.5})
    with pytest.raises(ConfigurationError, match="'dynamics_enabled'"):
        config_from_mapping({"dynamics_enabled": "maybe"})
    # an int past the float range is refused, not converted
    with pytest.raises(ConfigurationError, match="'dt': expected a finite number"):
        config_from_mapping({"dt": 2 ** 1024})


def test_save_load_round_trip(tmp_path):
    cfg = RunConfig(model_order=2, factor_velocity=0.7, dynamics_enabled=False)
    path = tmp_path / "config.yaml"
    save_config(cfg, path)
    assert load_config(path) == cfg


# A positive number for a float key: any finite float, one of the spellings
# whose repr has an exponent but no point, or an int.
_POSITIVE = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.sampled_from([1e-9, 1e16, 5e-324, 1e300, 0.1]),
    st.integers(1, 2 ** 53))


@st.composite
def _configs(draw):
    order = draw(st.sampled_from(VALID_ORDERS))
    return RunConfig(
        model_order=order, dynamics_enabled=draw(st.booleans()),
        transition_window=draw(st.integers(min_support(order), MAX_WINDOW)),
        smoothing_window=draw(st.integers(1, MAX_WINDOW)),
        min_hits=draw(st.integers(1, 10 ** 6)),
        max_misses=draw(st.integers(0, 10 ** 6)),
        **{key: draw(_POSITIVE) for key in (
            "factor_velocity", "factor_acceleration", "factor_jerk",
            "process_noise", "measurement_noise", "gate_distance", "dt")})


@settings(max_examples=200, deadline=None)
@given(_configs())
@example(RunConfig(dt=1e-9, gate_distance=1e16, process_noise=2))
def test_save_config_writes_the_bytes_pyyaml_writes(tmp_path_factory, cfg):
    path = tmp_path_factory.mktemp("config") / "config_effective"
    save_config(cfg, path)
    text = path.read_text(encoding="utf-8")
    assert text == yaml.safe_dump(dataclasses.asdict(cfg), sort_keys=True)
    assert load_config(path) == cfg


def test_load_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    assert load_config(path) == RunConfig()


def test_load_rejects_non_mapping(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigurationError, match="flat key-value mapping"):
        load_config(path)


def test_merge_overrides_skips_none():
    cfg = RunConfig()
    merged = merge_overrides(cfg, {"dt": None, "min_hits": 5,
                                   "dynamics_enabled": "true"})
    assert merged.dt == cfg.dt
    assert merged.min_hits == 5
    assert merged.dynamics_enabled is True
    assert merge_overrides(cfg, {"dt": None}) == cfg


def test_every_config_key_is_read_outside_config():
    # A key nothing reads is a dead knob: it is accepted, echoed to
    # config_effective and offered as a flag, yet changes no result.
    package = Path(dynatrack.__file__).parent
    source = "\n".join(path.read_text() for path in sorted(package.glob("*.py"))
                       if path.name != "config.py")
    unread = [key for key in FIELD_TYPES
              if not re.search(rf"\bcfg\.{key}\b", source)]
    assert unread == []
