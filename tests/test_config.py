"""Scenario file loading, unit handling and validation reporting."""

import copy
import dataclasses
import math
import re

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from flapsim.aero import Wrench, allocate, yaw_damping_coefficient
from flapsim.config import (
    MAX_TICKS,
    ConfigError,
    DEFAULTS,
    bundled_config_path,
    config_from_dict,
    load_config,
    parse_yaml,
    read_raw,
)
from flapsim.dynamics import InertialConfig
from flapsim.spatial import _euler_zyx

BUNDLED = (
    "hover.cfg",
    "ballistic.cfg",
    "yaw_damp.cfg",
    "position_hold.cfg",
    "position_sat.cfg",
    "two_wing.cfg",
)


def minimal(**overrides) -> dict:
    raw = {"name": "t"}
    raw.update(overrides)
    return raw


def test_defaults_build():
    cfg = config_from_dict(minimal())
    assert cfg.name == "t"
    assert cfg.mode == "altitude-attitude"
    assert cfg.dt == pytest.approx(5e-4)
    assert cfg.measurement_every == 4


def test_bundled_configs_are_valid():
    for name in BUNDLED:
        load_config(bundled_config_path(name))


def test_default_vehicle_figures():
    v = config_from_dict({}).vehicle
    assert v.weight == pytest.approx(9.31950e-4, rel=1e-12)
    assert v.total_lift == pytest.approx(1.4e-3, rel=1e-9)
    assert v.lift_to_weight == pytest.approx(1.5022265142979772, rel=1e-9)
    assert v.wing_loading == pytest.approx(4.65975, rel=1e-9)
    assert v.yaw_damping == pytest.approx(2.1781709064889234e-09, rel=1e-12)


def test_unit_conversions():
    cfg = config_from_dict(minimal())
    wing = cfg.vehicle.wing
    assert wing.area == pytest.approx(50e-6)
    assert wing.flap_amplitude == pytest.approx(math.radians(65.0))
    assert wing.stroke_inclination == pytest.approx(math.radians(20.0))
    assert wing.lever_yaw == pytest.approx(8e-3)
    assert cfg.vehicle.mass == pytest.approx(95e-6)
    assert cfg.estimation.rate_corner == pytest.approx(2 * math.pi * 30.0)
    assert cfg.estimation.velocity_corner == pytest.approx(2 * math.pi * 20.0)


def test_noise_unit_conversions():
    cfg = config_from_dict(
        minimal(estimation={"position_noise_std_mm": 0.5, "attitude_noise_std_deg": 0.25})
    )
    assert cfg.estimation.position_noise_std == pytest.approx(0.5e-3)
    assert cfg.estimation.attitude_noise_std == pytest.approx(math.radians(0.25))


def test_auto_steer_gain():
    cfg = config_from_dict(minimal())
    wing = cfg.vehicle.wing
    assert wing.k_steer == pytest.approx(wing.k_thrust * math.sin(wing.stroke_inclination))
    explicit = config_from_dict(
        minimal(vehicle={"wing": {"k_steer_n_per_v": 3.3e-7}})
    )
    assert explicit.vehicle.wing.k_steer == pytest.approx(3.3e-7)


def test_auto_yaw_damping():
    cfg = config_from_dict(minimal())
    want = yaw_damping_coefficient(cfg.vehicle.wing, 4)
    assert cfg.vehicle.yaw_damping == pytest.approx(want, rel=1e-12)
    explicit = config_from_dict(minimal(vehicle={"yaw_damping_n_m_s": 7e-10}))
    assert explicit.vehicle.yaw_damping == pytest.approx(7e-10)


def test_unknown_keys_reported_with_paths():
    with pytest.raises(ConfigError) as info:
        config_from_dict(minimal(vehicle={"wing": {"span_mm": 30.0}}, turbo=True))
    errors = info.value.errors
    assert any(e.startswith("vehicle.wing.span_mm") for e in errors)
    assert any(e.startswith("turbo") for e in errors)


def test_all_violations_collected():
    bad = minimal(
        mode="hover",  # not a mode
        duration_s=-1.0,
        seed=-3,
        vehicle={"mass_mg": -95.0},
    )
    with pytest.raises(ConfigError) as info:
        config_from_dict(bad)
    errors = info.value.errors
    assert len(errors) >= 4
    joined = " | ".join(errors)
    assert "mode" in joined and "duration_s" in joined
    assert "seed" in joined and "vehicle.mass_mg" in joined


def test_schema_version_checked():
    with pytest.raises(ConfigError) as info:
        config_from_dict(minimal(schema_version=2))
    assert any("schema_version" in e for e in info.value.errors)


def test_rate_divisibility():
    with pytest.raises(ConfigError) as info:
        config_from_dict(minimal(rates={"control_hz": 2000.0, "measurement_hz": 300.0}))
    assert any("integer multiple" in e for e in info.value.errors)


def test_closed_loop_requires_four_wings():
    with pytest.raises(ConfigError) as info:
        config_from_dict(minimal(mode="position-hold", vehicle={"n_wings": 2}))
    assert any("n_wings" in e for e in info.value.errors)
    # open loop is fine with two wings
    config_from_dict(minimal(mode="open-loop", vehicle={"n_wings": 2}))


def test_zero_steer_gain_rejected_for_closed_loop():
    raw = minimal(vehicle={"wing": {"k_steer_n_per_v": 0.0}})
    with pytest.raises(ConfigError) as info:
        config_from_dict(raw)
    assert any("singular" in e for e in info.value.errors)
    # allowed: neither mode allocates
    config_from_dict(dict(raw, mode="open-loop"))
    config_from_dict(dict(raw, mode="yaw-damping-compare", comparison_vehicle={}))


@pytest.mark.parametrize(
    "key, value, entry",
    [
        ("lever_roll_mm", 1e-320, "k_thrust * lever_roll"),
        ("lever_pitch_mm", 1e-320, "k_thrust * lever_pitch"),
        ("lever_yaw_mm", 1e-320, "k_steer * lever_yaw"),
        ("k_thrust_n_per_v", 1e-322, "k_thrust * lever_roll"),
    ],
)
def test_underflowing_mixing_entry_rejected_for_closed_loop(key, value, entry):
    """Positive factors whose product in the mixing matrix underflows to 0
    make it singular as a zero steering gain does."""
    raw = minimal(mode="position-hold", vehicle={"wing": {key: value}})
    with pytest.raises(ConfigError) as info:
        config_from_dict(raw)
    assert info.value.errors == [
        f"vehicle.wing: {entry} is zero, which makes the mixing matrix singular"
    ]
    wing = config_from_dict(dict(raw, mode="open-loop")).vehicle.wing
    with pytest.raises(ValueError, match=f"singular: {re.escape(entry)} is zero"):
        allocate(wing, Wrench(1e-3, (0.0, 0.0, 0.0)))


def test_open_loop_command_range():
    with pytest.raises(ConfigError) as info:
        config_from_dict(minimal(open_loop={"command_v": [0.0, 100.0, 300.0, 0.0]}))
    assert any("command_v" in e for e in info.value.errors)


def test_schedule_validation():
    with pytest.raises(ConfigError):
        config_from_dict(
            minimal(setpoint={"schedule": [{"t_s": 1.0, "position_m": [0, 0, 0.3]}]})
        )
    with pytest.raises(ConfigError):
        config_from_dict(
            minimal(
                setpoint={
                    "schedule": [
                        {"t_s": 0.0, "position_m": [0, 0, 0.3]},
                        {"t_s": 0.5, "position_m": [0, 0, 0.3], "speed": 1.0},
                    ]
                }
            )
        )
    with pytest.raises(ConfigError):
        config_from_dict(
            minimal(
                setpoint={
                    "schedule": [
                        {"t_s": 1.0, "position_m": [0, 0, 0.3]},
                        {"t_s": 0.5, "position_m": [0, 0, 0.3]},
                    ]
                }
            )
        )


def test_setpoint_schedule_lookup():
    cfg = config_from_dict(
        minimal(
            setpoint={
                "schedule": [
                    {"t_s": 0.0, "position_m": [0, 0, 0.1]},
                    {"t_s": 2.0, "position_m": [0, 0, 0.4], "yaw_deg": 90.0},
                ]
            }
        )
    )
    assert cfg.setpoint_at(0.0).position == pytest.approx([0, 0, 0.1])
    assert cfg.setpoint_at(1.999).position == pytest.approx([0, 0, 0.1])
    assert cfg.setpoint_at(2.0).position == pytest.approx([0, 0, 0.4])
    assert cfg.setpoint_at(2.0).yaw == pytest.approx(math.pi / 2)
    assert cfg.setpoint_at(5.0).position == pytest.approx([0, 0, 0.4])


def test_initial_state_construction():
    cfg = config_from_dict(
        minimal(
            initial={
                "position_m": [0.1, 0.2, 0.3],
                "attitude_rpy_deg": [10.0, 0.0, 0.0],
                "omega_rad_per_s": [0.0, 0.0, 20.0],
            }
        )
    )
    state = cfg.initial
    assert state[1:4] == pytest.approx([0.1, 0.2, 0.3])
    roll, pitch, yaw = _euler_zyx(*state[7:11])
    assert roll == pytest.approx(math.radians(10.0))
    assert state.wz == pytest.approx(20.0)


def test_comparison_vehicle_merges_onto_defaults():
    cfg = config_from_dict(
        minimal(
            mode="yaw-damping-compare",
            comparison_vehicle={"n_wings": 2, "wing": {"flap_frequency_hz": 141.42}},
        )
    )
    cmp = cfg.comparison_vehicle
    assert cmp is not None
    assert cmp.n_wings == 2
    assert cmp.wing.flap_frequency == pytest.approx(141.42)
    # untouched fields inherit the stock vehicle
    assert cmp.mass == pytest.approx(95e-6)
    assert cmp.wing.area == pytest.approx(50e-6)


_VIBRATION = ("vibration_amplitude", "vibration_frequency", "vibration_ramp")


def test_disturbance_reaches_both_vehicles():
    """The disturbance section fills the vibration fields ``step`` reads, on
    the primary vehicle and on the comparison vehicle alike."""
    hover = load_config(bundled_config_path("hover.cfg")).vehicle
    assert isinstance(hover, InertialConfig)
    # Amplitude and frequency as written in hover.cfg, the ramp by default.
    assert [getattr(hover, f) for f in _VIBRATION] == [1.03e-4, 100.0, 0.5]

    raw = read_raw(bundled_config_path("yaw_damp.cfg"))
    shaken = config_from_dict(dict(raw, disturbance={"vibration_amplitude_n_m": 2e-5}))
    assert [getattr(shaken.vehicle, f) for f in _VIBRATION] == [2e-5, 100.0, 0.5]
    for cfg in (config_from_dict(raw), shaken):
        want = [getattr(cfg.vehicle, f) for f in _VIBRATION]
        assert [getattr(cfg.comparison_vehicle, f) for f in _VIBRATION] == want


def test_yaw_compare_requires_comparison_vehicle():
    with pytest.raises(ConfigError) as info:
        config_from_dict(minimal(mode="yaw-damping-compare"))
    assert any("comparison_vehicle" in e for e in info.value.errors)


def test_defaults_not_mutated_by_loading():
    before = repr(DEFAULTS)
    config_from_dict(minimal(vehicle={"mass_mg": 50.0}))
    assert repr(DEFAULTS) == before


def test_load_config_bad_yaml(tmp_path):
    p = tmp_path / "broken.cfg"
    p.write_text("mode: [unclosed\n")
    with pytest.raises(ConfigError) as info:
        load_config(p)
    assert info.value.errors[0].startswith("invalid YAML: ")
    with pytest.raises(ConfigError) as info:
        load_config(tmp_path / "missing.cfg")
    assert info.value.errors != []



def leaf_paths(tree: dict, prefix: str = "") -> list[str]:
    paths = []
    for key, value in tree.items():
        if isinstance(value, dict):
            paths += leaf_paths(value, f"{prefix}{key}.")
        else:
            paths.append(f"{prefix}{key}")
    return paths


def value_at(tree: dict, path: str):
    for key in path.split("."):
        tree = tree[key]
    return tree


def set_path(raw: dict, path: str, value) -> dict:
    *sections, leaf = path.split(".")
    node = raw
    for key in sections:
        node = node.setdefault(key, {})
    node[leaf] = value
    return raw


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


NUMERIC_LEAVES = [p for p in leaf_paths(DEFAULTS) if is_number(value_at(DEFAULTS, p))]


@pytest.mark.parametrize("text", [".nan", ".inf", "-.inf"])
@pytest.mark.parametrize(
    "path", NUMERIC_LEAVES + ["setpoint.schedule[0].t_s", "setpoint.schedule[0].yaw_deg"]
)
def test_non_finite_numbers_rejected(path, text):
    value = parse_yaml(text)
    if path.startswith("setpoint.schedule[0]."):
        raw = minimal(setpoint={"schedule": [{path.rsplit(".", 1)[1]: value}]})
    else:
        raw = set_path(minimal(), path, value)
    with pytest.raises(ConfigError) as info:
        config_from_dict(raw)
    assert any(e.startswith(f"{path}: ") for e in info.value.errors), info.value.errors


# One row per message template: the input and the exact message list.  The
# texts are those of earlier releases except where noted.
_VIBRATION_ALIASED = (
    "disturbance.vibration_frequency_hz: must lie below half of rates.control_hz "
    "while vibration_amplitude_n_m is non-zero"
)
MESSAGES = {
    "root": ([1, 2], ["config root must be a mapping"]),
    "unknown-key": (minimal(turbo=True), ["turbo: unknown key"]),
    "section-mapping": (minimal(vehicle=5), ["vehicle: must be a mapping"]),
    "comparison-mapping": (
        minimal(comparison_vehicle=5),
        ["comparison_vehicle: must be a mapping or null"],
    ),
    # Top-level paths used to start with a stray dot (".duration_s").
    "number": (minimal(duration_s="x"), ["duration_s: must be a number, got 'x'"]),
    # New: non-finite numbers used to pass.
    "finite": (minimal(duration_s=math.nan), ["duration_s: must be finite"]),
    "vector-size": (
        minimal(initial={"position_m": [1.0, 2.0]}),
        ["initial.position_m: must be a list of 3 numbers"],
    ),
    # New: `[yes, 0, 0]` (YAML reads `yes` as True) and `["0.5", 0, 0]` used
    # to load as x = 1.0 m and 0.5 m.
    "vector-boolean": (
        minimal(initial={"position_m": [True, 0, 0]}),
        ["initial.position_m: must be a list of 3 numbers"],
    ),
    "vector-string": (
        minimal(initial={"position_m": ["0.5", 0, 0]}),
        ["initial.position_m: must be a list of 3 numbers"],
    ),
    "vector-finite": (
        minimal(initial={"position_m": [1.0, math.inf, 2.0]}),
        ["initial.position_m: entries must be finite"],
    ),
    "vector-positive": (
        minimal(control={"attitude_k1_n_m": [-1.0, 1.0, 1.0]}),
        ["control.attitude_k1_n_m: entries must be positive"],
    ),
    "positive": (minimal(vehicle={"mass_mg": -95.0}), ["vehicle.mass_mg: must be positive"]),
    "non-negative": (
        minimal(disturbance={"vibration_ramp_s": -0.1}),
        ["disturbance.vibration_ramp_s: must be non-negative"],
    ),
    "number-or-auto": (
        minimal(vehicle={"yaw_damping_n_m_s": "x"}),
        ['vehicle.yaw_damping_n_m_s: must be a number or "auto"'],
    ),
    "positive-integer": (
        minimal(vehicle={"n_wings": 0}),
        ["vehicle.n_wings: must be a positive integer"],
    ),
    "non-negative-integer": (minimal(seed=-3), ["seed: must be a non-negative integer"]),
    "name": (minimal(name=""), ["name: must be a non-empty string"]),
    "mode": (
        minimal(mode="hover"),
        [
            "mode: must be one of altitude-attitude, position-hold, "
            "yaw-damping-compare, open-loop; got 'hover'"
        ],
    ),
    "schema-version": (minimal(schema_version=2), ["schema_version: expected 1, got 2"]),
    "feedback": (
        minimal(control={"feedback": "both"}),
        ['control.feedback: must be "estimated" or "true"'],
    ),
    "boolean": (
        minimal(control={"yaw_feedback": "yes"}),
        ["control.yaw_feedback: must be a boolean"],
    ),
    "schedule-list": (
        minimal(setpoint={"schedule": []}),
        ["setpoint.schedule: must be a non-empty list"],
    ),
    "schedule-entry-mapping": (
        minimal(setpoint={"schedule": [5]}),
        ["setpoint.schedule[0]: must be a mapping"],
    ),
    "schedule-entry-key": (
        minimal(setpoint={"schedule": [{"t_s": 0.0, "speed": 1.0}]}),
        ["setpoint.schedule[0].speed: unknown key"],
    ),
    "schedule-start": (
        minimal(setpoint={"schedule": [{"t_s": 1.0}]}),
        ["setpoint.schedule[0].t_s: first entry must start at 0"],
    ),
    "schedule-order": (
        minimal(setpoint={"schedule": [{"t_s": 0.0}, {"t_s": 0.0}]}),
        ["setpoint.schedule[1].t_s: times must be strictly increasing"],
    ),
    "rates": (
        minimal(rates={"control_hz": 2000.0, "measurement_hz": 300.0}),
        ["rates: control_hz must be an integer multiple of measurement_hz"],
    ),
    "rates-below-one": (
        minimal(rates={"control_hz": 0.001, "measurement_hz": 1.0e7}),
        ["rates: measurement_hz must not exceed control_hz"],
    ),
    # New: duration_s * control_hz overflowed to inf and the run ended in an
    # OverflowError, or asked for more ticks than memory holds.
    "tick-count-overflow": (
        minimal(rates={"control_hz": 1e308, "measurement_hz": 1e308}),
        ["duration_s: must span at most 10000000 control ticks"],
    ),
    "tick-count-limit": (
        minimal(duration_s=5000.5),
        ["duration_s: must span at most 10000000 control ticks"],
    ),
    # New: a huge noise std overflowed in the first noisy sample.
    "attitude-noise-huge": (
        minimal(estimation={"attitude_noise_std_deg": 1e300}),
        ["estimation.attitude_noise_std_deg: must lie in [0, 180] deg"],
    ),
    "attitude-noise-negative": (
        minimal(estimation={"attitude_noise_std_deg": -0.1}),
        ["estimation.attitude_noise_std_deg: must lie in [0, 180] deg"],
    ),
    "comparison-required": (
        minimal(mode="yaw-damping-compare"),
        ["comparison_vehicle: required for mode yaw-damping-compare"],
    ),
    # New: a comparison vehicle that is not a mapping was also reported as
    # missing.
    "comparison-mapping-in-compare-mode": (
        minimal(mode="yaw-damping-compare", comparison_vehicle=[]),
        ["comparison_vehicle: must be a mapping or null"],
    ),
    # New: an invalid mode also ran the steering rule of the closed-loop
    # modes.
    "mode-skips-mode-rules": (
        minimal(mode="foo", vehicle={"wing": {"k_steer_n_per_v": 0}}),
        [
            "mode: must be one of altitude-attitude, position-hold, "
            "yaw-damping-compare, open-loop; got 'foo'"
        ],
    ),
    "four-wings": (
        minimal(mode="position-hold", vehicle={"n_wings": 2}),
        ["vehicle.n_wings: closed-loop control requires the four-wing layout"],
    ),
    "singular": (
        minimal(vehicle={"wing": {"k_steer_n_per_v": 0.0}}),
        [
            "vehicle.wing.k_steer_n_per_v: zero steering gain makes the mixing "
            "matrix singular"
        ],
    ),
    "command-range": (
        minimal(open_loop={"command_v": [0.0, 100.0, 300.0, 0.0]}),
        ["open_loop.command_v: entries must lie in [0, v_max]"],
    ),
    # Wing ranges used to read "vehicle.wing: wing area must be positive" and
    # so on; they now name the key.
    "wing-area": (
        minimal(vehicle={"wing": {"area_mm2": -1.0}}),
        ["vehicle.wing.area_mm2: must be positive"],
    ),
    "wing-amplitude": (
        minimal(vehicle={"wing": {"flap_amplitude_deg": 100.0}}),
        ["vehicle.wing.flap_amplitude_deg: must lie in (0, 90] deg"],
    ),
    "wing-k-thrust": (
        minimal(vehicle={"wing": {"k_thrust_n_per_v": 0.0}}),
        ["vehicle.wing.k_thrust_n_per_v: must be positive"],
    ),
    "wing-inclination": (
        minimal(vehicle={"wing": {"stroke_inclination_deg": 90.0}}),
        ["vehicle.wing.stroke_inclination_deg: must lie in [0, 90) deg"],
    ),
    # The tick aliases the vibration; at 1.7e308 Hz its phase 2 pi f t was
    # inf and vibration_torque raised "math domain error".
    "vibration-at-nyquist": (
        minimal(
            rates={"control_hz": 500.0, "measurement_hz": 125.0},
            disturbance={"vibration_amplitude_n_m": 2e-5, "vibration_frequency_hz": 250.0},
        ),
        [_VIBRATION_ALIASED],
    ),
    "vibration-huge": (
        minimal(
            disturbance={"vibration_amplitude_n_m": 2e-5, "vibration_frequency_hz": 1.7e308}
        ),
        [_VIBRATION_ALIASED],
    ),
}


@pytest.mark.parametrize("case", MESSAGES)
def test_error_messages(case):
    raw, expected = MESSAGES[case]
    with pytest.raises(ConfigError) as info:
        config_from_dict(copy.deepcopy(raw))
    assert info.value.errors == expected


def test_vibration_frequency_is_checked_only_with_a_vibration():
    """Below the Nyquist rate of the tick a vibration is accepted; without a
    vibration its frequency is never used, so it is not checked."""
    shaken = {"vibration_amplitude_n_m": 2e-5, "vibration_frequency_hz": 999.9}
    config_from_dict(minimal(disturbance=shaken))
    config_from_dict(minimal(disturbance={"vibration_frequency_hz": 1.7e308}))


def test_attitude_noise_may_reach_half_a_turn():
    raw = minimal(estimation={"attitude_noise_std_deg": 180.0})
    assert config_from_dict(raw).estimation.attitude_noise_std == math.pi


def test_tick_count_limit_is_inclusive():
    """MAX_TICKS ticks at the default 2 kHz are 5000 s; the file and the
    override draw the line at the same duration."""
    assert MAX_TICKS == 10**7
    cfg = config_from_dict(minimal(duration_s=5000.0))
    assert cfg.n_steps == MAX_TICKS
    assert cfg.with_run(duration=5000.0).n_steps == MAX_TICKS
    with pytest.raises(ConfigError) as info:
        cfg.with_run(duration=5000.5)
    assert info.value.errors == ["duration_s: must span at most 10000000 control ticks"]


def test_with_run_returns_a_copy_and_leaves_the_config_unchanged():
    cfg = config_from_dict(minimal(seed=3, duration_s=2.0))
    before = copy.deepcopy(cfg)
    run = cfg.with_run(seed=7, duration=0.5)
    assert (run.seed, run.duration, run.n_steps) == (7, 0.5, 1000)
    assert cfg == before
    same = cfg.with_run()
    assert (same.seed, same.duration) == (3, 2.0)
    assert same == cfg


def test_with_run_reports_every_failure_together():
    cfg = config_from_dict(minimal())
    with pytest.raises(ConfigError) as info:
        cfg.with_run(seed=-1, duration=-2.0)
    assert info.value.errors == [
        "seed: must be a non-negative integer",
        "duration_s: must be positive",
    ]


def test_wing_range_errors_are_all_reported():
    raw = minimal(
        vehicle={
            "wing": {"area_mm2": -1.0, "flap_amplitude_deg": 100.0, "k_thrust_n_per_v": 0.0}
        }
    )
    with pytest.raises(ConfigError) as info:
        config_from_dict(raw)
    assert sorted(info.value.errors) == sorted(
        MESSAGES["wing-area"][1] + MESSAGES["wing-amplitude"][1] + MESSAGES["wing-k-thrust"][1]
    )


def test_loader_reads_bundled_configs_as_safe_load():
    for name in BUNDLED:
        path = bundled_config_path(name)
        assert read_raw(path) == yaml.safe_load(path.read_text())


def test_loader_reads_exponent_floats_without_a_dot():
    assert parse_yaml("[1e-3, 5E+2, -2e3, 1.5e3, .5e1, 1e3x]") == [
        1e-3, 5e2, -2e3, 1.5e3, 5.0, "1e3x"
    ]


def all_finite(value) -> bool:
    """True when every float reachable from a built config is finite."""
    if dataclasses.is_dataclass(value):
        return all(
            all_finite(getattr(value, f.name)) for f in dataclasses.fields(value) if f.name != "raw"
        )
    if isinstance(value, (list, tuple)):
        return all(all_finite(v) for v in value)
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    if is_number(value):
        return math.isfinite(value)
    return True


MUTABLE_PATHS = leaf_paths(DEFAULTS) + [
    "comparison_vehicle.mass_mg",
    "comparison_vehicle.wing.flap_frequency_hz",
    "setpoint.schedule",
]
ANY_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=6),
    st.sampled_from([math.nan, math.inf, -math.inf, "auto"]),
    st.integers(),
    st.floats(),
    st.lists(st.floats(), max_size=5),
    st.lists(st.fixed_dictionaries({"t_s": st.floats()}), max_size=3),
    st.dictionaries(st.text(max_size=4), st.floats(), max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(BUNDLED),
    path=st.sampled_from(MUTABLE_PATHS),
    value=ANY_VALUE,
)
def test_mutated_config_raises_config_error_or_builds_finite(name, path, value):
    raw = set_path(read_raw(bundled_config_path(name)), path, value)
    try:
        cfg = config_from_dict(raw)
    except ConfigError:
        return
    assert all_finite(cfg)
