"""Scenario execution, run records, metrics and variant comparison.

A scenario steps the plant at the control rate while the estimator ingests
pose measurements at the (slower) measurement rate; the loop holds the last
estimate between measurements (zero-order hold).  Four modes exist:

* ``altitude-attitude``: height PID plus attitude stabilization; lateral
  position drifts freely.
* ``position-hold``: full position PID through tilt allocation.
* ``yaw-damping-compare``: no feedback; the plant is driven by an ideal
  weight-cancelling wrench while the yaw rate decays through the passive
  damping of the wings.  The config's comparison vehicle then flies the
  same scenario as a plain RK4 march over its states, which keeps only
  the time and the yaw rate, and the fitted time constants are reported
  side by side.
* ``open-loop``: constant drive amplitudes from the config.

Every run produces a :class:`RunRecord` with one row per control tick plus a
final row (``duration * rate + 1`` rows), the true and estimated states,
setpoints, the realized wrench and the per-wing commands.  The rows live in
one flat float64 buffer, 392 B per row, that the loop extends tick by tick
with a row's bytes.  It packs the row in blocks with ``struct``: the state
and its Euler angles every tick, the estimate only at a measurement, the
setpoint only at a schedule entry and the drive only when a controller
commands (the open-loop and yaw-damping drives once), and holds each
block's bytes in between.  :func:`read_csv` packs each line with one
``struct.Struct`` of the whole row.  ``RunRecord.rows`` and :func:`read_csv`
expose such a buffer as an ``(n, 49)`` array view without copying it.  The
loop's divergence check, like ``step``'s, tests the sum of the state first
and each float only when that sum is not finite.  Summary metrics are computed
from the recorded rows alone so they can be recomputed exactly from the CSV.
``RunRecord.write_csv`` writes floats with ``repr`` so the CSV round-trips
bit-exactly and identical (config, seed) pairs produce identical bytes.
``repr`` is most of a write's cost, and much of it would repeat the row
above: the estimate is held between measurements, the setpoint and the
saturation flags are piecewise constant, and the open-loop and
yaw-damping drives never change.  So the writer formats each column block
(state, estimate, setpoint, drive, flags) only in the rows where its bits
differ from the previous row's, and reuses its text otherwise.

numpy is imported by the functions that make or read row arrays (a run,
:func:`read_csv`, ``RunRecord.write_csv`` and :func:`metrics_from_rows`),
not by this module: importing it, loading a config and comparing two
vehicles never load numpy.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .aero import ActuatorCommand, Wrench, mix
from .config import DIVERGENCE_RADIUS, SimConfig, VehicleParams
from .control import FlightController, Setpoint
from .dynamics import VehicleState, step
from .estimation import Estimator, MocapSensor
from .spatial import _euler_zyx

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CSV_SCHEMA",
    "CSV_COLUMNS",
    "RunRecord",
    "run_scenario",
    "compare_variants",
    "read_csv",
    "metrics_from_rows",
]

CSV_SCHEMA = "flapsim-run-csv v1"

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
# Where the state, estimate, setpoint, drive and flag blocks of a row start.
_BLOCK_STARTS = tuple(
    _COL[name] for name in ("t_s", "est_pos_x_m", "sp_x_m", "thrust_n", "sat_1")
)
_BLOCKS = tuple(zip(_BLOCK_STARTS, _BLOCK_STARTS[1:] + (len(CSV_COLUMNS),)))
# One row as native float64 bytes, the layout of array("d"): packing a row
# and appending its bytes is cheaper than extending the array value by value.
_ROW = struct.Struct(f"{len(CSV_COLUMNS)}d")
# The blocks a run packs on their own: state (with its Euler angles),
# estimate and setpoint as the writer splits them, then the wrench, command
# and saturation flags as one.  No pack takes 20 values: CPython 3.11 keeps
# up to 2000 freed 20-tuples (400 KB) on a free list it never takes from.
_STATE_BLOCK, _ESTIMATE_BLOCK, _SETPOINT_BLOCK = (
    struct.Struct(f"{hi - lo}d") for lo, hi in _BLOCKS[:3]
)
_DRIVE_BLOCK = struct.Struct(f"{len(CSV_COLUMNS) - _COL['thrust_n']}d")


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

    def write_csv(self, path: str | Path) -> None:
        import numpy as np

        # A regular file at ``path`` is replaced, not truncated: ext4 starts
        # writing a file truncated to zero to disk as it is closed, and the
        # next rewrite of the same path then waits on that write.
        path = Path(path)
        if path.is_file() and not path.is_symlink():
            path.unlink()
        # A block is formatted where its bits differ from the row above;
        # bits, not ==, so that 0.0 and -0.0 keep their own text.  Any other
        # dtype is made float64 first, which keeps its text.
        rows = np.asarray(self.rows, dtype=np.float64)
        bits = rows.view(np.uint64)
        changed = np.ones((len(rows), len(_BLOCKS)), dtype=bool)
        for i, (lo, hi) in enumerate(_BLOCKS):
            changed[1:, i] = (bits[1:, lo:hi] != bits[:-1, lo:hi]).any(axis=1)
        text = [""] * len(_BLOCKS)
        with open(path, "w", newline="") as f:
            f.write(f"# {CSV_SCHEMA}\n")
            f.write(",".join(CSV_COLUMNS) + "\n")
            for row, row_changed in zip(rows, changed):
                values = row.tolist()
                for i, hit in enumerate(row_changed.tolist()):
                    if hit:
                        lo, hi = _BLOCKS[i]
                        text[i] = ",".join(map(repr, values[lo:hi]))
                f.write(",".join(text) + "\n")


def read_csv(path: str | Path) -> np.ndarray:
    """Read a run CSV back into the row array; a malformed file is a ValueError."""
    import numpy as np

    with open(path) as f:
        schema = f.readline().strip()
        if schema != f"# {CSV_SCHEMA}":
            raise ValueError(f"unexpected CSV schema line: {schema!r}")
        header = f.readline().strip().split(",")
        if header != CSV_COLUMNS:
            raise ValueError("CSV columns do not match the current schema")
        buf, n = array("d"), len(header)
        for lineno, line in enumerate(f, start=3):
            fields = line.split(",")
            if len(fields) == n:
                try:
                    buf.frombytes(_ROW.pack(*map(float, fields)))
                except ValueError as exc:
                    raise ValueError(f"{path}, line {lineno}: {exc}") from None
            elif line.strip():
                raise ValueError(f"{path}, line {lineno}: {len(fields)} fields, not {n}")
    if not buf:
        raise ValueError(f"{path}: no rows after the header")
    return np.frombuffer(buf).reshape(-1, n)


def metrics_from_rows(rows: np.ndarray) -> dict[str, float]:
    """Summary metrics of a run, computed purely from its recorded rows."""
    import numpy as np

    t = rows[:, _COL["t_s"]]
    err = rows[:, _COL["sp_x_m"] : _COL["sp_z_m"] + 1] - rows[
        :, _COL["pos_x_m"] : _COL["pos_z_m"] + 1
    ]
    with np.errstate(over="ignore"):  # a diverged run's error may overflow
        err_norm2 = (err**2).sum(axis=1)
    metrics: dict[str, float] = {}
    metrics["rms_position_error_m"] = float(math.sqrt(err_norm2.mean()))
    window = t >= t[-1] - 2.0
    metrics["rms_position_error_final2s_m"] = float(
        math.sqrt(err_norm2[window].mean())
    )
    metrics["final_position_error_m"] = float(math.sqrt(err_norm2[-1]))
    metrics["max_abs_roll_rad"] = float(abs(rows[:, _COL["roll_rad"]]).max())
    metrics["max_abs_pitch_rad"] = float(abs(rows[:, _COL["pitch_rad"]]).max())
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
    inside = abs(z - z_ref) <= 0.2 * abs(step_size)
    idx = inside.nonzero()[0]
    if idx.size == 0:
        return float("nan")
    return float(t[idx[0]])


def _yaw_decay_tau(t: np.ndarray, omega_z: np.ndarray) -> float:
    """Exponential time constant fitted to the yaw-rate decay.

    Least squares on log |omega_z| over the samples that remain above 0.1 %
    of the initial rate; NaN when there is no appreciable initial rate.  The
    slope is the centred closed form sum(dt dy) / sum(dt^2), every sum taken
    with ``math.fsum``; NaN too when sum(dt^2) is not positive, which it is
    not when a tiny control period makes every dt^2 underflow.
    """
    w0 = abs(omega_z[0])
    if w0 < 0.1:
        return float("nan")
    keep = abs(omega_z) > 1e-3 * w0
    if keep.sum() < 10:
        return float("nan")
    ts = t[keep].tolist()
    ys = [math.log(abs(w)) for w in omega_z[keep].tolist()]
    t_mean = math.fsum(ts) / len(ts)
    y_mean = math.fsum(ys) / len(ys)
    dts = [ti - t_mean for ti in ts]
    spread = math.fsum(d * d for d in dts)
    if not spread > 0.0:
        return float("nan")
    slope = math.fsum(d * (yi - y_mean) for d, yi in zip(dts, ys)) / spread
    if slope >= 0.0:
        return float("nan")
    return -1.0 / slope


def _estimate_block(est: VehicleState, est_euler: tuple[float, float, float]) -> bytes:
    """The estimate columns of a row packed as float64 bytes; ``est_euler``
    is the (roll, pitch, yaw) of the estimate."""
    return _ESTIMATE_BLOCK.pack(*est[1:], *est_euler)


def _setpoint_block(sp: Setpoint) -> bytes:
    """The setpoint columns of a row packed as float64 bytes."""
    return _SETPOINT_BLOCK.pack(*sp.position, sp.yaw)


def _drive_block(wrench: Wrench, command: ActuatorCommand) -> bytes:
    """The wrench, command and saturation columns of a row packed as float64
    bytes, the flags as 0.0 and 1.0."""
    return _DRIVE_BLOCK.pack(
        wrench.thrust, *wrench.torque, *command.amplitudes, *command.saturated
    )


def _diverged(state: VehicleState) -> bool:
    # A finite sum means every term is finite, as in ``step``'s check.
    if not math.isfinite(sum(state)) and not all(map(math.isfinite, state)):
        return True
    _, x, y, z = state[:4]
    return math.sqrt(x * x + y * y + z * z) > DIVERGENCE_RADIUS


def _simulate(config: SimConfig, vehicle: VehicleParams) -> tuple[np.ndarray, int]:
    """Rows and status (0 completed, 2 diverged) of ``vehicle`` in the scenario."""
    import numpy as np

    dt, n_steps = config.dt, config.n_steps
    every = config.measurement_every
    sensor = MocapSensor(config.estimation, config.seed)
    estimator = Estimator(config.estimation)

    # The drive is decided once: a fixed command and wrench, or a controller
    # that commands every tick from the chosen feedback source.
    controller = None
    if config.mode == "open-loop":
        command = ActuatorCommand(config.open_loop_command)
        wrench = mix(vehicle.wing, command.amplitudes)
    elif config.mode == "yaw-damping-compare":  # ideal weight-cancelling wrench
        command = ActuatorCommand((0.0, 0.0, 0.0, 0.0))
        wrench = Wrench(vehicle.weight, (0.0, 0.0, 0.0))
    else:
        controller = FlightController(vehicle, config.control, config.mode)
        true_feedback = config.control.feedback == "true"
    # The drive block is packed once where the drive is fixed, and left out
    # of the held blocks where a controller packs its own every tick.
    drive = b"" if controller is not None else _drive_block(wrench, command)

    # The setpoint is the last schedule entry that starts by t + 1e-12.  The
    # schedule is walked once; t_next is NaN when no entry is left.
    schedule = iter(config.schedule)
    t_next, sp_next = next(schedule)
    sp = sp_next  # the first entry's also before it starts
    setpoint = _setpoint_block(sp)

    state = config.initial
    pack_state = _STATE_BLOCK.pack
    buf, status = array("d"), 0  # row after row, 49 floats each
    # A row is the state block, packed every tick, then the estimate,
    # setpoint and drive blocks, each packed again only when its values
    # change: the estimate at a measurement, the setpoint at a schedule
    # entry, the drive when a controller commands.  Each attitude is turned
    # into Euler angles once: the state's every row, the estimate's every
    # measurement.  The controller gets the heading.
    for k in range(n_steps + 1):
        if k % every == 0:  # a measurement; est is held until the next one
            est = estimator.tick(sensor.sample(state))
            est_euler = _euler_zyx(*est[7:11])
            estimate = _estimate_block(est, est_euler)
            held = None
        if t_next <= state.t + 1e-12:
            while t_next <= state.t + 1e-12:
                sp = sp_next
                t_next, sp_next = next(schedule, (math.nan, None))
            setpoint = _setpoint_block(sp)
            held = None
        if held is None:
            held = estimate + setpoint + drive
        euler = _euler_zyx(*state[7:11])
        row = pack_state(*state, *euler) + held
        if controller is not None:
            if true_feedback:
                command = controller.tick(state, euler[2], sp, dt)
            else:
                command = controller.tick(est, est_euler[2], sp, dt)
            wrench = mix(vehicle.wing, command.amplitudes)
            row += _drive_block(wrench, command)
        buf.frombytes(row)
        if k == n_steps:
            break
        try:
            state = step(state, wrench, vehicle, dt)
        except ValueError:
            if all(map(math.isfinite, (wrench.thrust, *wrench.torque))):
                raise
            status = 2  # a non-finite wrench: the row above is the last
            break
        if _diverged(state):
            # The last row holds the estimate, setpoint and drive above.
            euler = _euler_zyx(*state[7:11])
            buf.frombytes(pack_state(*state, *euler) + row[_STATE_BLOCK.size :])
            status = 2
            break
    return np.frombuffer(buf).reshape(-1, len(CSV_COLUMNS)), status


def _yaw_rates(
    config: SimConfig, vehicle: VehicleParams
) -> tuple[np.ndarray, np.ndarray, int]:
    """Time, yaw rate and status of ``vehicle`` under the yaw-damping wrench.

    The same values as the ``t_s`` and ``omega_z_radps`` columns and the
    status of ``_simulate(config, vehicle)`` in ``yaw-damping-compare``, from
    a march over the states alone: no sensor, estimator, setpoint, Euler
    angles or rows.
    """
    import numpy as np

    dt = config.dt
    wrench = Wrench(vehicle.weight, (0.0, 0.0, 0.0))
    state = config.initial
    t, omega_z, status = array("d", (state.t,)), array("d", (state.wz,)), 0
    for _ in range(config.n_steps):
        try:
            state = step(state, wrench, vehicle, dt)
        except ValueError:
            if math.isfinite(wrench.thrust):
                raise
            status = 2  # a non-finite wrench: the sample above is the last
            break
        t.append(state.t)
        omega_z.append(state.wz)
        if _diverged(state):
            status = 2
            break
    return np.frombuffer(t), np.frombuffer(omega_z), status


def run_scenario(
    config: SimConfig, seed: int | None = None, duration: float | None = None
) -> RunRecord:
    """Execute a scenario; ``record.write_csv`` writes its CSV.

    ``seed`` and ``duration`` override the config values through
    ``config.with_run``, which checks them.  A diverged run (non-finite
    state or wrench, or position norm beyond 10 m) stops early and is
    returned with status 2 and the rows recorded so far.  In
    ``yaw-damping-compare`` the comparison vehicle is marched from the same
    initial state under the same wrench, recording no rows, and only its
    fitted time constant and the ratio go into ``extra_metrics``; its
    divergence also sets status 2.
    """
    config = config.with_run(seed, duration)
    rows, status = _simulate(config, config.vehicle)
    record = RunRecord(
        config.name, config.mode, config.seed, rows, metrics_from_rows(rows),
        status=status,
    )

    if config.mode == "yaw-damping-compare":
        t, omega_z, compared_status = _yaw_rates(config, config.comparison_vehicle)
        record.status = max(record.status, compared_status)
        tau_cmp = _yaw_decay_tau(t, omega_z)
        tau_primary = record.metrics["yaw_decay_tau_s"]
        record.extra_metrics["comparison_yaw_decay_tau_s"] = tau_cmp
        record.extra_metrics["yaw_decay_tau_ratio"] = (
            tau_primary / tau_cmp if tau_cmp and not math.isnan(tau_cmp) else float("nan")
        )
    return record


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
