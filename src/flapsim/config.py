"""Configuration schema, calibrated defaults and validation.

Scenario files are YAML documents carrying a version-1 schema.  Keys embed
their units (``mass_mg``, ``flap_amplitude_deg``, ``attitude_k1_n_m``); the
loader converts everything to SI.  Any key omitted from a file falls back to
the calibrated defaults below, so bundled scenarios only state what differs
from the stock vehicle.  Unknown keys and every constraint violation are
reported together with their key path.

The default vehicle is calibrated around a single design point: four wings of
50 mm^2 each, flapping 65 deg per quadrant at 100 Hz, produce 1.4 mN of
total lift, and a drive amplitude of 200 V yields that same 0.35 mN per
wing.  The stroke planes are inclined 20 deg, which fixes the steering gain
relative to the thrust gain.  Inertia values are representative for a 95 mg
airframe of 33 mm span; treat them as adjustable rather than measured.
"""

from __future__ import annotations

import copy
import math
import re
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Any, NamedTuple

import yaml

from .aero import WingConfig, cycle_avg_lift, singular_entry, yaw_damping_coefficient
from .control import AttitudeGains, FlightController, PIDGains, Setpoint
from .dynamics import InertialConfig, VehicleState
from .estimation import FilterConfig
from .spatial import Quaternion

__all__ = [
    "ConfigError",
    "SimConfig",
    "VehicleParams",
    "ControlParams",
    "DEFAULTS",
    "MODES",
    "MAX_TICKS",
    "DIVERGENCE_RADIUS",
    "load_config",
    "read_raw",
    "parse_yaml",
    "config_from_dict",
    "bundled_config_path",
]

MODES = (*FlightController.MODES, "yaw-damping-compare", "open-loop")

# Most control ticks in one run: 3.9 GB of 392 B rows, 5000 s at the default 2 kHz.
MAX_TICKS = 10**7

DIVERGENCE_RADIUS = 10.0  # [m] position norm beyond which a run is divergent

# Design-point calibration of the lift coefficient: 0.35 mN per wing at
# 100 Hz and 65 deg per-quadrant amplitude on a 50 mm^2 wing.
_DESIGN_LIFT_N = 1.4e-3
_DESIGN_AMPLITUDE_RAD = math.radians(65.0)
_DEFAULT_C_LIFT = (_DESIGN_LIFT_N / 4.0) / (
    100.0**2 * _DESIGN_AMPLITUDE_RAD**2 * 50.0e-6
)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Kinds: a test of the value as written and the message when it fails ("{!r}"
# is the value, "{n}" the vector size).  Numbers go on to the SI checks.
_NUMBER = (_is_number, "must be a number, got {!r}")
_AUTO = (lambda v: v == "auto" or _is_number(v), 'must be a number or "auto"')
_VECTOR = (
    lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v)),
    "must be a list of {n} numbers",
)
_SCHEDULE = (lambda v: isinstance(v, list) and len(v) > 0, "must be a non-empty list")
_VERSION = (lambda v: v == 1, "expected 1, got {!r}")
_NAME = (lambda v: isinstance(v, str) and v != "", "must be a non-empty string")
_MODE = (lambda v: v in MODES, f"must be one of {', '.join(MODES)}; got {{!r}}")
_SEED = (lambda v: _is_int(v) and v >= 0, "must be a non-negative integer")
_COUNT = (lambda v: _is_int(v) and v >= 1, "must be a positive integer")
_FEEDBACK = (lambda v: v in ("estimated", "true"), 'must be "estimated" or "true"')
_BOOL = (lambda v: isinstance(v, bool), "must be a boolean")
_COMPARISON = (lambda v: v is None or isinstance(v, dict), "must be a mapping or null")

# Bounds on the SI value: (test, message).
_POSITIVE = (lambda x: x > 0.0, "must be positive")
_NON_NEGATIVE = (lambda x: x >= 0.0, "must be non-negative")
# Each wing sweeps a single quadrant of the stroke.
_QUADRANT = (lambda x: 0.0 < x <= 0.5 * math.pi, "must lie in (0, 90] deg")
_TILT = (lambda x: 0.0 <= x < 0.5 * math.pi, "must lie in [0, 90) deg")
_HALF_TURN = (lambda x: 0.0 <= x <= math.pi, "must lie in [0, 180] deg")
# A position noise beyond the divergence radius measures nothing about the
# run; near 1e308 mm it made the estimate inf or NaN.
_WITHIN_RADIUS = (
    lambda x: 0.0 <= x <= DIVERGENCE_RADIUS,
    f"must lie in [0, {DIVERGENCE_RADIUS * 1e3:.0f}] mm",
)

_DEG = math.radians
_HZ = 2.0 * math.pi  # Hz -> rad/s


class _Key(NamedTuple):
    path: str  # dotted key path
    default: Any
    kind: Any = _NUMBER
    bound: tuple | None = None
    si: Any = 1.0  # unit -> SI: a factor, or a function such as math.radians


# Keys of one setpoint schedule entry; omitted ones default to zero.
_ENTRY = (
    _Key("t_s", 0.0),
    _Key("position_m", [0.0, 0.0, 0.0], _VECTOR),
    _Key("yaw_deg", 0.0, si=_DEG),
)


def _tree(rows, leaf) -> dict:
    """Nest ``leaf(row)`` for every row under its dotted path."""
    tree: dict = {}
    for row in rows:
        *sections, key = row.path.split(".")
        node = tree
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = leaf(row)
    return tree


# The single source of the keys: one row per key.  DEFAULTS, the checks, the
# SI conversion and the error paths all derive from it; only the few rules
# that span several keys are written out in config_from_dict.
_SCHEMA = (
    _Key("schema_version", 1, _VERSION),
    _Key("name", "run", _NAME),
    _Key("mode", "altitude-attitude", _MODE),
    _Key("duration_s", 5.0, bound=_POSITIVE),
    _Key("seed", 0, _SEED),
    _Key("rates.control_hz", 2000.0, bound=_POSITIVE),
    _Key("rates.measurement_hz", 500.0, bound=_POSITIVE),
    _Key("vehicle.mass_mg", 95.0, bound=_POSITIVE, si=1e-6),
    _Key("vehicle.inertia_kg_m2", [1.5e-9, 1.5e-9, 0.5e-9], _VECTOR, _POSITIVE),
    _Key("vehicle.gravity_m_per_s2", 9.81, bound=_POSITIVE),
    _Key("vehicle.n_wings", 4, _COUNT),
    # "auto" derives the passive yaw damping from the wing model.
    _Key("vehicle.yaw_damping_n_m_s", "auto", _AUTO, _NON_NEGATIVE),
    _Key("vehicle.wing.area_mm2", 50.0, bound=_POSITIVE, si=1e-6),
    _Key("vehicle.wing.flap_amplitude_deg", 65.0, bound=_QUADRANT, si=_DEG),
    _Key("vehicle.wing.flap_frequency_hz", 100.0, bound=_POSITIVE),
    _Key("vehicle.wing.stroke_inclination_deg", 20.0, bound=_TILT, si=_DEG),
    _Key("vehicle.wing.c_lift", _DEFAULT_C_LIFT),
    # Sets the free yaw decay time constant to about 0.23 s at the default
    # inertia.
    _Key("vehicle.wing.c_damp_rate", 1.2e-5),
    _Key("vehicle.wing.k_thrust_n_per_v", 1.75e-6, bound=_POSITIVE),
    # "auto" = k_thrust * sin(stroke inclination).
    _Key("vehicle.wing.k_steer_n_per_v", "auto", _AUTO, _NON_NEGATIVE),
    _Key("vehicle.wing.lever_roll_mm", 5.0, bound=_POSITIVE, si=1e-3),
    _Key("vehicle.wing.lever_pitch_mm", 5.0, bound=_POSITIVE, si=1e-3),
    _Key("vehicle.wing.lever_yaw_mm", 8.0, bound=_POSITIVE, si=1e-3),
    _Key("vehicle.wing.steering_arm_mm", 8.0, bound=_POSITIVE, si=1e-3),
    _Key("vehicle.wing.v_max_v", 260.0, bound=_POSITIVE),
    _Key("disturbance.vibration_amplitude_n_m", 0.0, bound=_NON_NEGATIVE),
    _Key("disturbance.vibration_frequency_hz", 100.0, bound=_POSITIVE),
    _Key("disturbance.vibration_ramp_s", 0.5, bound=_NON_NEGATIVE),
    # "estimated" closes the loop on the estimator output, "true" on the
    # simulated state (useful for isolating estimator effects).
    _Key("control.feedback", "estimated", _FEEDBACK),
    _Key("control.yaw_feedback", False, _BOOL),
    _Key("control.attitude_k1_n_m", [4.8e-6, 4.8e-6, 2.4e-6], _VECTOR, _POSITIVE),
    _Key("control.attitude_k2_n_m_s", [1.5e-8, 1.5e-8, 8.0e-9], _VECTOR, _POSITIVE),
    _Key("control.position_kp_n_per_m", [1.5e-3, 1.5e-3, 2.4e-3], _VECTOR, _POSITIVE),
    _Key("control.position_kd_n_s_per_m", [6.8e-4, 6.8e-4, 9.5e-4], _VECTOR, _POSITIVE),
    _Key("control.position_ki_n_per_m_s", [2.0e-4, 2.0e-4, 2.0e-3], _VECTOR, _POSITIVE),
    _Key("control.position_integral_limit_m_s", 0.05, bound=_POSITIVE),
    _Key("control.altitude_kp_n_per_m", 2.4e-3, bound=_POSITIVE),
    _Key("control.altitude_kd_n_s_per_m", 9.5e-4, bound=_POSITIVE),
    _Key("control.altitude_ki_n_per_m_s", 5.0e-4, bound=_POSITIVE),
    _Key("control.altitude_integral_limit_m_s", 0.5, bound=_POSITIVE),
    _Key("estimation.rate_corner_hz", 30.0, bound=_POSITIVE, si=_HZ),
    _Key("estimation.velocity_corner_hz", 20.0, bound=_POSITIVE, si=_HZ),
    _Key("estimation.position_noise_std_mm", 0.0, bound=_WITHIN_RADIUS, si=1e-3),
    _Key("estimation.attitude_noise_std_deg", 0.0, bound=_HALF_TURN, si=_DEG),
    _Key("setpoint.schedule", [_tree(_ENTRY, lambda row: row.default)], _SCHEDULE),
    _Key("initial.position_m", [0.0, 0.0, 0.0], _VECTOR),
    _Key("initial.velocity_m_per_s", [0.0, 0.0, 0.0], _VECTOR),
    _Key("initial.attitude_rpy_deg", [0.0, 0.0, 0.0], _VECTOR, si=_DEG),
    _Key("initial.omega_rad_per_s", [0.0, 0.0, 0.0], _VECTOR),
    _Key("open_loop.command_v", [0.0, 0.0, 0.0, 0.0], _VECTOR),
    # A second "vehicle" section, required by yaw-damping-compare.
    _Key("comparison_vehicle", None, _COMPARISON),
)

_SPEC = _tree(_SCHEMA, lambda row: row)
_ENTRY_SPEC = _tree(_ENTRY, lambda row: row)
DEFAULTS: dict = _tree(_SCHEMA, lambda row: copy.deepcopy(row.default))


class ConfigError(ValueError):
    """Raised on invalid configuration; carries the full violation list."""

    def __init__(self, errors: list[str]) -> None:
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(kw_only=True, frozen=True)
class VehicleParams(InertialConfig):
    """SI vehicle description assembled from a config vehicle section.

    It is the :class:`InertialConfig` that ``step`` integrates, with the
    wings added; the ``vibration_*`` fields come from the disturbance section.
    """

    n_wings: int
    wing: WingConfig

    @property
    def weight(self) -> float:
        return self.mass * self.gravity

    @property
    def total_lift(self) -> float:
        return self.n_wings * cycle_avg_lift(self.wing)

    @property
    def lift_to_weight(self) -> float:
        return self.total_lift / self.weight

    @property
    def wing_loading(self) -> float:
        """Weight over total wing area [N/m^2]."""
        return self.weight / (self.n_wings * self.wing.area)


@dataclass
class ControlParams:
    attitude: AttitudeGains
    position: PIDGains  # three axes
    altitude: PIDGains  # the z axis alone
    yaw_feedback: bool
    feedback: str  # "estimated" | "true"


@dataclass
class SimConfig:
    name: str
    mode: str
    duration: float
    seed: int
    control_rate: float
    measurement_rate: float
    vehicle: VehicleParams
    comparison_vehicle: VehicleParams | None
    control: ControlParams
    estimation: FilterConfig
    # (start [s], setpoint), starts increasing from 0; a run's setpoint at
    # time t is the last entry that starts by t + 1e-12.
    schedule: list[tuple[float, Setpoint]]
    initial: VehicleState
    open_loop_command: tuple[float, float, float, float]  # [V]

    @property
    def dt(self) -> float:
        return 1.0 / self.control_rate

    @property
    def measurement_every(self) -> int:
        return int(round(self.control_rate / self.measurement_rate))

    @property
    def n_steps(self) -> int:
        """Control ticks of the run; it records one row more."""
        return int(round(self.duration * self.control_rate))

    def with_run(
        self, seed: int | None = None, duration: float | None = None
    ) -> SimConfig:
        """A copy of this scenario run with the given seed and duration [s].

        Each override is checked like the file's ``seed`` and ``duration_s``,
        the duration also against ``MAX_TICKS``; a ConfigError lists every
        failure.  The config itself is left unchanged.
        """
        errors: list[str] = []
        given = (("seed", "seed", seed), ("duration", "duration_s", duration))
        changes = {
            f: _check(_SPEC[k], v, k, errors) for f, k, v in given if v is not None
        }
        _check_ticks(changes.get("duration"), self.control_rate, errors)
        if errors:
            raise ConfigError(errors)
        return replace(self, **changes)


def _complete(si: dict) -> bool:
    return all(value is not None for value in si.values())


def _to_si(value, si) -> float:
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    return si(value) if callable(si) else value * si


def _walk(spec: dict, user, path: str, errors: list[str]) -> dict:
    """SI values of ``user`` merged onto ``spec`` (None where invalid)."""
    if not isinstance(user, dict):
        errors.append(f"{path}: must be a mapping")
        user = {}
    prefix = f"{path}." if path else ""
    errors.extend(f"{prefix}{key}: unknown key" for key in user if key not in spec)
    si = {}
    for key, node in spec.items():
        if isinstance(node, dict):
            section = _walk(node, user.get(key, {}), prefix + key, errors)
            si[key] = section if _complete(section) else None
        else:
            si[key] = _check(node, user.get(key, node.default), prefix + key, errors)
    return si


def _check(key: _Key, value, where: str, errors: list[str]):
    """SI value of one key, or None after recording why it is invalid."""
    test, problem = key.kind
    size = len(key.default) if key.kind is _VECTOR else None
    if test(value) and (size is None or len(value) == size):
        if key.kind is _SCHEDULE:
            return _schedule(value, errors)
        if key.kind is _COMPARISON and value is not None:
            section = _walk(_SPEC["vehicle"], value, where, errors)
            return section if _complete(section) else None
        if key.kind not in (_NUMBER, _AUTO, _VECTOR) or value == "auto":
            return value
        si = tuple(_to_si(v, key.si) for v in (value if size else [value]))
        each = "entries " if size else ""
        if not all(map(math.isfinite, si)):
            problem = each + "must be finite"
        elif key.bound and not all(map(key.bound[0], si)):
            problem = each + key.bound[1]
        else:
            return si if size else si[0]
    errors.append(f"{where}: {problem.format(value, n=size)}")
    return None


def _check_ticks(duration: float | None, control_rate: float, errors: list[str]):
    """Record why a valid ``duration`` [s] (None: not given) is too long."""
    if duration is not None and not duration * control_rate <= MAX_TICKS:  # inf too
        errors.append(f"duration_s: must span at most {MAX_TICKS} control ticks")


def _schedule(entries: list, errors: list[str]) -> list[tuple[float, Setpoint]]:
    schedule: list[tuple[float, Setpoint]] = []
    for i, entry in enumerate(entries):
        where = f"setpoint.schedule[{i}]"
        si = _walk(_ENTRY_SPEC, entry, where, errors)
        if not isinstance(entry, dict) or not _complete(si):
            continue
        t = si["t_s"]
        if i == 0 and t != 0.0:
            errors.append(f"{where}.t_s: first entry must start at 0")
        if schedule and t <= schedule[-1][0]:
            errors.append(f"{where}.t_s: times must be strictly increasing")
        schedule.append((t, Setpoint(position=si["position_m"], yaw=si["yaw_deg"])))
    return schedule


def _vehicle(v: dict, d: dict | None) -> VehicleParams:
    """Assemble a vehicle from the SI values of a checked vehicle section and
    disturbance section ``d`` (None leaves the vehicle undisturbed)."""
    w = v["wing"]
    k_steer = w["k_steer_n_per_v"]
    if k_steer == "auto":
        k_steer = w["k_thrust_n_per_v"] * math.sin(w["stroke_inclination_deg"])
    wing = WingConfig(
        area=w["area_mm2"],
        flap_amplitude=w["flap_amplitude_deg"],
        flap_frequency=w["flap_frequency_hz"],
        stroke_inclination=w["stroke_inclination_deg"],
        c_lift=w["c_lift"],
        c_damp_rate=w["c_damp_rate"],
        k_thrust=w["k_thrust_n_per_v"],
        k_steer=k_steer,
        lever_roll=w["lever_roll_mm"],
        lever_pitch=w["lever_pitch_mm"],
        lever_yaw=w["lever_yaw_mm"],
        steering_arm=w["steering_arm_mm"],
        v_max=w["v_max_v"],
    )
    yaw_damping = v["yaw_damping_n_m_s"]
    if yaw_damping == "auto":
        yaw_damping = yaw_damping_coefficient(wing, v["n_wings"])
    vibration = d and {
        "vibration_amplitude": d["vibration_amplitude_n_m"],
        "vibration_frequency": d["vibration_frequency_hz"],
        "vibration_ramp": d["vibration_ramp_s"],
    }
    return VehicleParams(
        mass=v["mass_mg"],
        inertia=v["inertia_kg_m2"],
        gravity=v["gravity_m_per_s2"],
        n_wings=v["n_wings"],
        wing=wing,
        yaw_damping=float(yaw_damping),
        **(vibration or {}),
    )


def config_from_dict(user: dict) -> SimConfig:
    """Validate a raw config mapping and build the simulation config.

    Raises ConfigError listing every violation with its key path.
    """
    if not isinstance(user, dict):
        raise ConfigError(["config root must be a mapping"])
    errors: list[str] = []
    si = _walk(_SPEC, user, "", errors)

    # Rules that span several keys; each runs once the keys it reads are valid.
    mode, rates = si["mode"], si["rates"]
    if rates is not None:
        ratio = rates["control_hz"] / rates["measurement_hz"]
        if not (math.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9):
            errors.append(
                "rates: control_hz must be an integer multiple of measurement_hz"
            )
        elif round(ratio) < 1:
            errors.append("rates: measurement_hz must not exceed control_hz")
        _check_ticks(si["duration_s"], rates["control_hz"], errors)
        # The tick aliases a faster vibration; with MAX_TICKS this also keeps
        # the phase 2 pi f t of vibration_torque finite.
        d = si["disturbance"]
        if d is not None and d["vibration_amplitude_n_m"] > 0.0 and not (
            d["vibration_frequency_hz"] < 0.5 * rates["control_hz"]
        ):
            errors.append(
                "disturbance.vibration_frequency_hz: must lie below half of "
                "rates.control_hz while vibration_amplitude_n_m is non-zero"
            )
    if mode == "yaw-damping-compare" and user.get("comparison_vehicle") is None:
        errors.append("comparison_vehicle: required for mode yaw-damping-compare")
    vehicle = si["vehicle"] and _vehicle(si["vehicle"], si["disturbance"])
    if vehicle is not None:
        wing = vehicle.wing
        closed_loop = mode in FlightController.MODES
        if closed_loop and vehicle.n_wings != 4:
            errors.append(
                "vehicle.n_wings: closed-loop control requires the four-wing layout"
            )
        entry = singular_entry(wing)
        if closed_loop and entry is not None:
            errors.append(
                "vehicle.wing.k_steer_n_per_v: zero steering gain makes the "
                "mixing matrix singular"
                if wing.k_steer == 0.0
                else f"vehicle.wing: {entry} is zero, which makes the mixing "
                "matrix singular"
            )
        command = si["open_loop"] and si["open_loop"]["command_v"]
        if command is not None and not all(0.0 <= v <= wing.v_max for v in command):
            errors.append("open_loop.command_v: entries must lie in [0, v_max]")
    if errors:
        raise ConfigError(errors)

    c, estimation, initial = si["control"], si["estimation"], si["initial"]
    comparison = si["comparison_vehicle"]
    q = Quaternion.from_euler_zyx(*initial["attitude_rpy_deg"])
    return SimConfig(
        name=si["name"],
        mode=mode,
        duration=si["duration_s"],
        seed=si["seed"],
        control_rate=rates["control_hz"],
        measurement_rate=rates["measurement_hz"],
        vehicle=vehicle,
        comparison_vehicle=comparison and _vehicle(comparison, si["disturbance"]),
        control=ControlParams(
            attitude=AttitudeGains(c["attitude_k1_n_m"], c["attitude_k2_n_m_s"]),
            position=PIDGains(
                kp=c["position_kp_n_per_m"],
                kd=c["position_kd_n_s_per_m"],
                ki=c["position_ki_n_per_m_s"],
                integral_limit=c["position_integral_limit_m_s"],
            ),
            altitude=PIDGains(
                kp=(c["altitude_kp_n_per_m"],),
                kd=(c["altitude_kd_n_s_per_m"],),
                ki=(c["altitude_ki_n_per_m_s"],),
                integral_limit=c["altitude_integral_limit_m_s"],
            ),
            yaw_feedback=c["yaw_feedback"],
            feedback=c["feedback"],
        ),
        estimation=FilterConfig(
            rate_corner=estimation["rate_corner_hz"],
            velocity_corner=estimation["velocity_corner_hz"],
            measurement_dt=1.0 / rates["measurement_hz"],
            position_noise_std=estimation["position_noise_std_mm"],
            attitude_noise_std=estimation["attitude_noise_std_deg"],
        ),
        schedule=si["setpoint"]["schedule"],
        initial=VehicleState(
            0.0,
            *initial["position_m"],
            *initial["velocity_m_per_s"],
            *q,
            *initial["omega_rad_per_s"],
        ),
        open_loop_command=si["open_loop"]["command_v"],
    )


class _Loader(yaml.SafeLoader):
    """Safe YAML loader that also reads exponent floats without a dot (1e-3)."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def parse_yaml(text: str):
    """Parse YAML text as config files are parsed."""
    try:
        return yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError([f"invalid YAML: {exc}"]) from exc


def read_raw(path: str | Path) -> dict:
    """Read a scenario file into its unvalidated mapping."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([str(exc)]) from exc
    raw = parse_yaml(text)
    if raw is None:
        raise ConfigError(["empty config file"])
    return raw


def load_config(path: str | Path) -> SimConfig:
    """Load and validate a scenario file."""
    return config_from_dict(read_raw(path))


def bundled_config_path(name: str) -> Path:
    """Path of a scenario file shipped with the package."""
    return Path(str(resources.files("flapsim").joinpath("configs", name)))

