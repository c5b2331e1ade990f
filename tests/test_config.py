"""Configuration: defaults, validation, file round-trips, presets."""

import ast
import dataclasses
from pathlib import Path

import pytest

import platoonsim
from platoonsim.config import (DESK_OVERRIDES, GRANULARITIES, SimConfig,
                               parse_config_text)

# every default the experiment tables pin, by field name
PINNED_DEFAULTS = {
    "l_c": 5.0, "w_c": 1.8, "l_lane": 2.5, "L": 200.0,
    "a_max": 5.0, "v_max": 20.0, "d_h": 1.0, "d_h_hat": 1.5,
    "T": 3600.0, "M": 100, "gamma": 0.9, "epsilon": 0.1,
    "replay_capacity": 1000, "batch_size": 32, "O": 100, "C": 200,
    "T_m": 60.0, "w1": -1.0, "w2": -1.0, "w3": -1.0,
    "R_deadlock": -10.0, "g": 12,
    "dt": 1.0, "seed": 0, "condition": 1, "policy": "coor-plt",
    "fuel_idle": 0.5, "fuel_rolling": 0.25, "fuel_accel": 0.1,
    "adam_lr": 0.001,
}


def test_defaults_match_pinned_table():
    cfg = SimConfig()
    for name, value in PINNED_DEFAULTS.items():
        assert getattr(cfg, name) == value, name


def test_config_is_frozen():
    cfg = SimConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.g = 6


def test_granularity_values():
    assert GRANULARITIES == (6, 12, 24)
    for g in GRANULARITIES:
        assert SimConfig(g=g).g == g
    with pytest.raises(ValueError):
        SimConfig(g=10)


@pytest.mark.parametrize("field,bad", [
    ("policy", "magic"),
    ("condition", 4),
    ("condition", 0),
    ("dt", 0.0),
    ("dt", -1.0),
    ("T", 0.0),
    ("M", 0),
    ("v_max", -5.0),
    ("R_deadlock", 1.0),
    ("epsilon", 1.5),
    ("gamma", -0.1),
])
def test_validation_rejects(field, bad):
    with pytest.raises(ValueError):
        SimConfig(**{field: bad})


def test_desk_preset_overrides():
    cfg = SimConfig.desk()
    for name, value in DESK_OVERRIDES.items():
        assert getattr(cfg, name) == value, name
    assert cfg.T == 600.0 and cfg.M == 60 and cfg.flow_scale == 0.25
    # explicit overrides still win
    assert SimConfig.desk(M=3).M == 3


def test_override_returns_new_instance():
    base = SimConfig()
    other = base.override(g=6, seed=9)
    assert (other.g, other.seed) == (6, 9)
    assert (base.g, base.seed) == (12, 0)


def test_save_load_round_trip(tmp_path):
    cfg = SimConfig(g=24, seed=17, condition=3, policy="webster",
                    flow_scale=0.4, T=1200.0)
    path = tmp_path / "run.cfg"
    cfg.save(path)
    assert SimConfig.load(path) == cfg


def test_load_applies_overrides_after_file(tmp_path):
    path = tmp_path / "run.cfg"
    SimConfig(seed=17).save(path)
    assert SimConfig.load(path, seed=99).seed == 99


def test_parse_rejects_unknown_key():
    with pytest.raises(ValueError, match="line 2"):
        parse_config_text("g = 12\nwheels = 6\n")


def test_parse_ignores_comments_and_blank_lines():
    parsed = parse_config_text("# header\n\ng = 6\n  # indented note\nseed = 3\n")
    assert parsed == {"g": 6, "seed": 3}


def test_shipped_configs_match_presets():
    assert SimConfig.load("configs/default.cfg") == SimConfig()
    assert SimConfig.load("configs/desk.cfg") == SimConfig.desk()


def test_derived_quantities():
    cfg = SimConfig()
    assert cfg.n_sizes() == 33
    params = cfg.vehicle_params()
    assert params.length == 5.0 and params.headway_platoon == 1.0
    layout = cfg.layout()
    assert layout.zone_side == 15.0 and layout.formation_length == 200.0
    fuel = cfg.fuel_model()
    assert fuel.increment(0.0, 0.0, 2.0) == pytest.approx(1.0)


def test_every_field_is_read_by_the_package():
    # a field nothing reads is a knob that changes no run; validation in
    # __post_init__ does not count as a use
    read = set()

    def walk(node, in_post_init=False):
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            in_post_init = True
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and not in_post_init):
            read.add(node.attr)
        for child in ast.iter_child_nodes(node):
            walk(child, in_post_init)

    for path in Path(platoonsim.__file__).parent.rglob("*.py"):
        walk(ast.parse(path.read_text(encoding="utf-8")))
    unread = [f.name for f in dataclasses.fields(SimConfig) if f.name not in read]
    assert unread == []
