"""Scenario execution, run records, metrics and variant comparison.

A scenario steps the plant at the control rate while the estimator ingests
pose measurements at the (slower) measurement rate.  Four modes exist:

* ``altitude-attitude``: height PID plus attitude stabilization; lateral
  position drifts freely.
* ``position-hold``: full position PID through tilt allocation.
* ``yaw-damping-compare``: no feedback; the plant is driven by an ideal
  weight-cancelling wrench while the yaw rate decays through the passive
  damping of the wings.  When the config carries a comparison vehicle the
  same scenario runs again with only the vehicle swapped, and the fitted
  time constants are reported side by side.
* ``open-loop``: constant drive amplitudes from the config.

Every run produces a :class:`RunRecord` with one row per control tick plus a
final row (``duration * rate + 1`` rows), the true and estimated states,
setpoints, the realized wrench and the per-wing commands.  Summary metrics
are computed from the recorded rows alone so they can be recomputed exactly
from the CSV.  Floats are written with ``repr`` so the CSV round-trips
bit-exactly and identical (config, seed) pairs produce identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .aero import ActuatorCommand, Wrench, cycle_avg_lift, mix
from .config import SimConfig, VehicleParams
from .control import FlightController
from .dynamics import VehicleState, _pack, step
from .estimation import Estimator, MocapSensor

__all__ = [
    "CSV_SCHEMA",
    "CSV_COLUMNS",
    "DIVERGENCE_RADIUS",
    "RunRecord",
    "run_scenario",
    "compare_variants",
    "lift_report",
    "read_csv",
    "metrics_from_rows",
]

CSV_SCHEMA = "flapsim-run-csv v1"
DIVERGENCE_RADIUS = 10.0  # [m] position norm beyond which a run is divergent

CSV_COLUMNS = (
    ["t_s"]
    + ["pos_x_m", "pos_y_m", "pos_z_m"]
    + ["vel_x_mps", "vel_y_mps", "vel_z_mps"]
    + ["quat_w", "quat_x", "quat_y", "quat_z"]
    + ["omega_x_radps", "omega_y_radps", "omega_z_radps"]
    + ["roll_rad", "pitch_rad", "yaw_rad"]
    + ["est_pos_x_m", "est_pos_y_m", "est_pos_z_m"]
    + ["est_vel_x_mps", "est_vel_y_mps", "est_vel_z_mps"]
    + ["est_quat_w", "est_quat_x", "est_quat_y", "est_quat_z"]
    + ["est_omega_x_radps", "est_omega_y_radps", "est_omega_z_radps"]
    + ["est_roll_rad", "est_pitch_rad", "est_yaw_rad"]
    + ["sp_x_m", "sp_y_m", "sp_z_m", "sp_yaw_rad"]
    + ["thrust_n", "tau_x_nm", "tau_y_nm", "tau_z_nm"]
    + ["cmd_1_v", "cmd_2_v", "cmd_3_v", "cmd_4_v"]
    + ["sat_1", "sat_2", "sat_3", "sat_4"]
)
_COL = {name: i for i, name in enumerate(CSV_COLUMNS)}


@dataclass
class RunRecord:
    """Everything a completed (or diverged) run produced."""

    name: str
    mode: str
    seed: int
    rows: np.ndarray  # (n_rows, len(CSV_COLUMNS))
    metrics: dict[str, float]  # recomputable from rows
    extra_metrics: dict[str, float] = field(default_factory=dict)
    status: int = 0  # 0 completed, 2 diverged

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, _COL[name]]

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as f:
            f.write(f"# {CSV_SCHEMA}\n")
            f.write(",".join(CSV_COLUMNS) + "\n")
            for row in self.rows.tolist():
                f.write(",".join(map(repr, row)) + "\n")


def read_csv(path: str | Path) -> np.ndarray:
    """Read a run CSV back into the row array (schema checked)."""
    with open(path) as f:
        schema = f.readline().strip()
        if schema != f"# {CSV_SCHEMA}":
            raise ValueError(f"unexpected CSV schema line: {schema!r}")
        header = f.readline().strip().split(",")
        if header != CSV_COLUMNS:
            raise ValueError("CSV columns do not match the current schema")
        rows = [[float(v) for v in line.split(",")] for line in f if line.strip()]
    return np.array(rows)


def metrics_from_rows(rows: np.ndarray) -> dict[str, float]:
    """Summary metrics of a run, computed purely from its recorded rows."""
    t = rows[:, _COL["t_s"]]
    err = rows[:, _COL["sp_x_m"] : _COL["sp_z_m"] + 1] - rows[
        :, _COL["pos_x_m"] : _COL["pos_z_m"] + 1
    ]
    err_norm2 = (err**2).sum(axis=1)
    metrics: dict[str, float] = {}
    metrics["rms_position_error_m"] = float(math.sqrt(err_norm2.mean()))
    window = t >= t[-1] - 2.0
    metrics["rms_position_error_final2s_m"] = float(
        math.sqrt(err_norm2[window].mean())
    )
    metrics["final_position_error_m"] = float(math.sqrt(err_norm2[-1]))
    metrics["max_abs_roll_rad"] = float(np.abs(rows[:, _COL["roll_rad"]]).max())
    metrics["max_abs_pitch_rad"] = float(np.abs(rows[:, _COL["pitch_rad"]]).max())
    metrics["altitude_rise_time_s"] = _altitude_rise_time(rows, t)
    metrics["yaw_decay_tau_s"] = _yaw_decay_tau(
        t, rows[:, _COL["omega_z_radps"]]
    )
    sat = rows[:, _COL["sat_1"] : _COL["sat_4"] + 1]
    metrics["saturated_ticks"] = float((sat.sum(axis=1) > 0.0).sum())
    return metrics


def _altitude_rise_time(rows: np.ndarray, t: np.ndarray) -> float:
    """First time the altitude enters the 20 % band around the step target."""
    z = rows[:, _COL["pos_z_m"]]
    z_ref = rows[:, _COL["sp_z_m"]]
    step_size = z_ref[0] - z[0]
    if abs(step_size) < 1e-9:
        return float("nan")
    inside = np.abs(z - z_ref) <= 0.2 * abs(step_size)
    idx = np.nonzero(inside)[0]
    if idx.size == 0:
        return float("nan")
    return float(t[idx[0]])


def _yaw_decay_tau(t: np.ndarray, omega_z: np.ndarray) -> float:
    """Exponential time constant fitted to the yaw-rate decay.

    Least squares on log |omega_z| over the samples that remain above 0.1 %
    of the initial rate; NaN when there is no appreciable initial rate.  The
    slope is the centred closed form sum(dt dy) / sum(dt^2), every sum taken
    with ``math.fsum``.
    """
    w0 = abs(omega_z[0])
    if w0 < 0.1:
        return float("nan")
    keep = np.abs(omega_z) > 1e-3 * w0
    if keep.sum() < 10:
        return float("nan")
    ts = t[keep].tolist()
    ys = [math.log(abs(w)) for w in omega_z[keep].tolist()]
    t_mean = math.fsum(ts) / len(ts)
    y_mean = math.fsum(ys) / len(ys)
    dts = [ti - t_mean for ti in ts]
    slope = math.fsum(d * (yi - y_mean) for d, yi in zip(dts, ys)) / math.fsum(
        d * d for d in dts
    )
    if slope >= 0.0:
        return float("nan")
    return -1.0 / slope


def _row(
    state: VehicleState,
    est: VehicleState,
    sp_position: np.ndarray,
    sp_yaw: float,
    wrench: Wrench,
    command: ActuatorCommand,
) -> list[float]:
    roll, pitch, yaw = state.attitude.to_euler_zyx()
    eroll, epitch, eyaw = est.attitude.to_euler_zyx()
    q = state.attitude
    eq = est.attitude
    return [
        state.t,
        state.position[0], state.position[1], state.position[2],
        state.velocity[0], state.velocity[1], state.velocity[2],
        q.w, q.x, q.y, q.z,
        state.omega[0], state.omega[1], state.omega[2],
        roll, pitch, yaw,
        est.position[0], est.position[1], est.position[2],
        est.velocity[0], est.velocity[1], est.velocity[2],
        eq.w, eq.x, eq.y, eq.z,
        est.omega[0], est.omega[1], est.omega[2],
        eroll, epitch, eyaw,
        sp_position[0], sp_position[1], sp_position[2], sp_yaw,
        wrench.thrust, wrench.torque[0], wrench.torque[1], wrench.torque[2],
        command.amplitudes[0], command.amplitudes[1],
        command.amplitudes[2], command.amplitudes[3],
        float(command.saturated[0]), float(command.saturated[1]),
        float(command.saturated[2]), float(command.saturated[3]),
    ]


def _diverged(state: VehicleState) -> bool:
    values = _pack(state)
    if not all(map(math.isfinite, values)):
        return True
    x, y, z = values[0:3]
    return math.sqrt(x * x + y * y + z * z) > DIVERGENCE_RADIUS


def run_scenario(
    config: SimConfig,
    seed: int | None = None,
    out: str | Path | None = None,
    duration: float | None = None,
) -> RunRecord:
    """Execute a scenario and optionally write its CSV.

    ``seed`` and ``duration`` override the config values.  A diverged run
    (non-finite state or position norm beyond 10 m) stops early and is
    returned with status 2 and the rows recorded so far.
    """
    seed = config.seed if seed is None else seed
    duration = config.duration if duration is None else duration
    dt = config.dt
    n_steps = int(round(duration * config.control_rate))
    every = config.measurement_every

    vehicle = config.vehicle
    inertial = vehicle.inertial_config(
        config.vibration_amplitude, config.vibration_frequency, config.vibration_ramp
    )
    sensor = MocapSensor(config.estimation, seed)
    estimator = Estimator(config.estimation)

    # The drive is decided once: a fixed command and wrench, or a controller
    # that commands every tick from the chosen feedback source.
    controller = None
    if config.mode == "open-loop":
        command = ActuatorCommand(amplitudes=config.open_loop_command.copy())
        wrench = mix(vehicle.wing, command.amplitudes)
    elif config.mode == "yaw-damping-compare":  # ideal weight-cancelling wrench
        command = ActuatorCommand(amplitudes=np.zeros(4))
        wrench = Wrench(vehicle.weight, np.zeros(3))
    else:
        controller = FlightController(
            wing=vehicle.wing,
            attitude_gains=config.control.attitude,
            position_gains=config.control.position,
            altitude_gains=config.control.altitude,
            mass=vehicle.mass,
            gravity=vehicle.gravity,
            mode=config.mode,
            yaw_feedback=config.control.yaw_feedback,
        )
        true_feedback = config.control.feedback == "true"

    state = config.initial.copy()
    rows = np.empty((n_steps + 2, len(CSV_COLUMNS)))
    n_rows = status = 0
    for k in range(n_steps + 1):
        sample = sensor.sample(state) if k % every == 0 else None
        est = estimator.tick(sample)
        sp = config.setpoint_at(state.t)
        if controller is not None:
            command = controller.tick(state if true_feedback else est, sp, dt)
            wrench = mix(vehicle.wing, command.amplitudes)
        rows[n_rows] = _row(state, est, sp.position, sp.yaw, wrench, command)
        n_rows += 1
        if k == n_steps:
            break
        state = step(state, wrench, inertial, dt)
        if _diverged(state):
            rows[n_rows] = _row(state, est, sp.position, sp.yaw, wrench, command)
            n_rows += 1
            status = 2
            break

    rows = rows[:n_rows]
    record = RunRecord(
        name=config.name,
        mode=config.mode,
        seed=seed,
        rows=rows,
        metrics=metrics_from_rows(rows),
        status=status,
    )

    if config.mode == "yaw-damping-compare" and config.comparison_vehicle is not None:
        comparison = replace(
            config, vehicle=config.comparison_vehicle, comparison_vehicle=None
        )
        tau_cmp = run_scenario(comparison, seed, duration=duration).metrics[
            "yaw_decay_tau_s"
        ]
        tau_primary = record.metrics["yaw_decay_tau_s"]
        record.extra_metrics["comparison_yaw_decay_tau_s"] = tau_cmp
        record.extra_metrics["yaw_decay_tau_ratio"] = (
            tau_primary / tau_cmp if tau_cmp and not math.isnan(tau_cmp) else float("nan")
        )

    if out is not None:
        record.write_csv(out)
    return record


def lift_report(vehicle: VehicleParams | None = None) -> dict:
    """Design-point lift summary for a vehicle (stock vehicle by default)."""
    if vehicle is None:
        from .config import default_vehicle

        vehicle = default_vehicle()
    return {
        "per_wing_lift_n": cycle_avg_lift(vehicle.wing),
        "total_lift_n": vehicle.total_lift,
        "weight_n": vehicle.weight,
        "lift_to_weight": vehicle.lift_to_weight,
        "wing_loading_n_per_m2": vehicle.wing_loading,
        "note": (
            "lift_to_weight is computed from the configured lift and mass; "
            "it lands near 1.50 for the stock vehicle even though the design "
            "figure is commonly rounded to about 1.4"
        ),
    }


def compare_variants(config_a: SimConfig, config_b: SimConfig) -> dict[str, dict]:
    """Analytic vehicle-level ratios between two scenario configs.

    For each metric the report carries the two values and the a/b ratio.
    """
    a, b = config_a.vehicle, config_b.vehicle
    report: dict[str, dict] = {}
    for name, value_a, value_b in (
        ("total_lift_n", a.total_lift, b.total_lift),
        ("lift_to_weight", a.lift_to_weight, b.lift_to_weight),
        ("wing_loading_n_per_m2", a.wing_loading, b.wing_loading),
        ("yaw_damping_n_m_s", a.yaw_damping, b.yaw_damping),
    ):
        report[name] = {
            "a": value_a,
            "b": value_b,
            "ratio": value_a / value_b if value_b else float("nan"),
        }
    return report
