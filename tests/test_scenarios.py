"""Scenario harness: replay fidelity, metrics, divergence and determinism."""

import ast
import hashlib
import importlib
import math
import os
import pkgutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import flapsim
from flapsim import control, scenarios, spatial
from flapsim.aero import ActuatorCommand, Wrench, allocate, cycle_avg_lift, mix
from flapsim.config import (
    ConfigError,
    bundled_config_path,
    config_from_dict,
    load_config,
    read_raw,
)
from flapsim.control import FlightController, Setpoint
from flapsim.dynamics import VehicleState, step
from flapsim.estimation import Estimator, MocapSensor
from flapsim.scenarios import (
    _BLOCKS,
    CSV_COLUMNS,
    RunRecord,
    compare_variants,
    metrics_from_rows,
    read_csv,
    run_scenario,
)
from oracles import csv_text, row_bytes


def short_ballistic():
    return load_config(bundled_config_path("ballistic.cfg"))


def test_row_count_and_time_axis():
    rec = run_scenario(short_ballistic())
    assert rec.status == 0
    assert rec.rows.shape == (201, len(CSV_COLUMNS))
    t = rec.rows[:, CSV_COLUMNS.index("t_s")]
    assert t[0] == 0.0
    assert t[-1] == pytest.approx(0.1)
    assert np.max(np.abs(np.diff(t) - 5e-4)) < 1e-12


def test_rows_start_with_the_state_tuple():
    """A row opens with the 14 floats of the true state, in their order."""
    config = config_from_dict(
        {
            "mode": "open-loop",
            "duration_s": 0.01,
            "initial": {
                "position_m": [0.1, 0.2, 0.3],
                "velocity_m_per_s": [0.4, 0.5, 0.6],
                "attitude_rpy_deg": [10.0, 20.0, 30.0],
                "omega_rad_per_s": [0.7, 0.8, 0.9],
            },
        }
    )
    rec = run_scenario(config)
    assert VehicleState(*rec.rows[0, :14].tolist()) == config.initial


@pytest.mark.parametrize("name", ["hover.cfg", "position_hold.cfg"])
def test_the_tick_passes_on_python_floats(name):
    """Sensor, estimator, controller, allocation, mixing and step return
    Python floats (bools for the saturation flags), never numpy scalars:
    with sensor noise (hover) and without it (position_hold)."""
    config = load_config(bundled_config_path(name))
    vehicle = config.vehicle
    sensor = MocapSensor(config.estimation, config.seed)
    estimator = Estimator(config.estimation)
    controller = FlightController(vehicle, config.control, config.mode)
    state = config.initial
    for _ in range(2):  # the second sample runs the filters past priming
        sample = sensor.sample(state)
        est = estimator.tick(sample)
        yaw = spatial._euler_zyx(*est[7:11])[2]
        command = controller.tick(est, yaw, config.setpoint_at(state.t), config.dt)
        wrench = mix(vehicle.wing, command.amplitudes)
        again = allocate(vehicle.wing, wrench)
        state = step(state, wrench, vehicle, config.dt)
        q = sample.attitude
        floats = (
            *sample.position, q.w, q.x, q.y, q.z, sample.t, *est,
            *command.amplitudes, wrench.thrust, *wrench.torque,
            *again.amplitudes, *state,
        )
        assert [type(v) for v in floats] == [float] * len(floats)
        flags = (*command.saturated, *again.saturated)
        assert [type(v) for v in flags] == [bool] * 8


@pytest.mark.parametrize("module", ["aero", "control", "config", "dynamics", "spatial"])
def test_float_core_modules_import_no_numpy(module):
    """The tick's float core imports numpy nowhere, not even inside a function."""
    tree = ast.parse((Path(flapsim.__file__).parent / f"{module}.py").read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
    assert names, "no imports parsed"
    assert [n for n in names if n.split(".")[0] == "numpy"] == []


@pytest.mark.parametrize("module", ["control", "dynamics", "estimation", "spatial"])
def test_tick_path_modules_square_with_a_product(module):
    """No ``**`` on the tick's path: a float ``v**2`` raises OverflowError
    where ``v*v`` gives inf, and need not round like ``v*v``."""
    tree = ast.parse((Path(flapsim.__file__).parent / f"{module}.py").read_text())
    powers = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow)
    ]
    assert powers == []


@pytest.mark.parametrize(
    "module", sorted(m.name for m in pkgutil.iter_modules(flapsim.__path__))
)
def test_every_exported_name_resolves(module):
    """A stale ``__all__`` entry would fail only on a star import."""
    mod = importlib.import_module(f"flapsim.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_ballistic_trajectory_in_rows():
    rec = run_scenario(short_ballistic())
    z = rec.rows[:, CSV_COLUMNS.index("pos_z_m")]
    assert abs(z[-1] - (-0.04905)) < 1e-9
    assert np.all(rec.rows[:, CSV_COLUMNS.index("thrust_n")] == 0.0)
    assert np.all(rec.rows[:, CSV_COLUMNS.index("cmd_1_v")] == 0.0)


def test_csv_round_trip(tmp_path):
    rec = run_scenario(short_ballistic())
    path = tmp_path / "run.csv"
    rec.write_csv(path)
    back = read_csv(path)
    assert back.shape == rec.rows.shape
    assert np.array_equal(back, rec.rows)
    for rows in (rec.rows, back):
        assert rows.dtype == np.float64
        assert rows.flags.c_contiguous and rows.flags.writeable


# Signed zeros, NaN, infinities, subnormals and the 0.0 / 1.0 saturation flags.
_SPECIAL_FLOATS = (0.0, -0.0, 1.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-308)


# One file is rewritten per example, so the function-scoped tmp_path is safe.
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 50), st.just(len(CSV_COLUMNS))),
        elements=st.floats() | st.sampled_from(_SPECIAL_FLOATS),
    )
)
@example(np.resize(np.array(_SPECIAL_FLOATS), (3, len(CSV_COLUMNS))))
def test_csv_round_trip_is_exact(tmp_path, rows):
    """read_csv returns exactly the rows write_csv wrote: every NaN where it
    was, every other value with its sign bit.  The text has one ``nan``, so a
    NaN's own sign and payload are not kept."""
    path = tmp_path / "run.csv"
    RunRecord("round-trip", "open-loop", 0, rows, {}).write_csv(path)
    back = read_csv(path)
    assert back.shape == rows.shape
    nan = np.isnan(rows)
    assert np.array_equal(np.isnan(back), nan)
    assert np.array_equal(np.signbit(back[~nan]), np.signbit(rows[~nan]))
    assert np.array_equal(back[~nan], rows[~nan])


_row_float = st.floats() | st.sampled_from(_SPECIAL_FLOATS)


def _row_floats(n):
    return st.tuples(*[_row_float] * n)


@given(
    _row_floats(14).map(lambda v: VehicleState(*v)),
    _row_floats(3),
    _row_floats(14).map(lambda v: VehicleState(*v)),
    _row_floats(3),
    st.builds(Setpoint, _row_floats(3), _row_float),
    st.builds(Wrench, _row_float, _row_floats(3)),
    st.builds(ActuatorCommand, _row_floats(4), st.tuples(*[st.booleans()] * 4)),
)
def test_a_packed_row_holds_the_bits_of_an_extended_array(
    state, euler, est, est_euler, sp, wrench, command
):
    """The loop's struct-packed row is the row array("d").extend appended:
    every float's bits, signed zeros and NaN payloads included, and the
    saturation flags as 0.0 and 1.0."""
    values = (state, euler, est, est_euler, sp, wrench, command)
    got = np.frombuffer(scenarios._row(*values), dtype=np.uint64)
    want = np.frombuffer(row_bytes(*values), dtype=np.uint64)
    assert got.shape == (len(CSV_COLUMNS),)
    assert np.array_equal(got, want)


@st.composite
def rows_with_repeated_blocks(draw):
    """Rows whose column blocks are copies of a few distinct rows, so a block
    often repeats the row above.  The pool holds a twin of its first row
    that differs only by the sign of one zero."""
    pool = draw(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 3), st.just(len(CSV_COLUMNS))),
            elements=st.floats() | st.sampled_from(_SPECIAL_FLOATS),
        )
    )
    twin = pool[0].copy()
    col = draw(st.integers(0, len(CSV_COLUMNS) - 1))
    pool[0, col], twin[col] = 0.0, -0.0
    pool = np.vstack([pool, twin])
    picks = draw(
        arrays(
            np.intp,
            st.tuples(st.integers(1, 30), st.just(len(_BLOCKS))),
            elements=st.integers(0, len(pool) - 1),
        )
    )
    rows = np.empty((len(picks), len(CSV_COLUMNS)))
    for (lo, hi), pick in zip(_BLOCKS, picks.T):
        rows[:, lo:hi] = pool[pick, lo:hi]
    return rows


def _signed_zero_swap():
    """Three rows of the special floats that differ only in est_pos_x_m:
    0.0, then -0.0, then 0.0.  The estimate block holds no NaN, so only its
    bits, not ==, tell these rows apart."""
    row = np.resize(np.array(_SPECIAL_FLOATS), len(CSV_COLUMNS))
    est = slice(*_BLOCKS[1])
    row[est] = np.where(np.isnan(row[est]), 1.0, row[est])
    rows = np.tile(row, (3, 1))
    rows[:, CSV_COLUMNS.index("est_pos_x_m")] = [0.0, -0.0, 0.0]
    return rows


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(rows_with_repeated_blocks())
@example(_signed_zero_swap())
def test_write_csv_bytes_match_the_row_by_row_oracle(tmp_path, rows):
    """Reusing a repeated block's text writes the bytes of formatting every
    row in full, a signed zero's sign included."""
    path = tmp_path / "run.csv"
    RunRecord("blocks", "open-loop", 0, rows, {}).write_csv(path)
    assert path.read_bytes() == csv_text(rows).encode()


def _run_rows():
    return run_scenario(load_config(bundled_config_path("hover.cfg")), duration=0.02).rows


@pytest.mark.parametrize(
    "make_rows",
    [
        lambda: np.empty((0, len(CSV_COLUMNS))),
        lambda: _run_rows()[:1],
        lambda: _run_rows()[::2],
        lambda: np.asfortranarray(_run_rows()),
        lambda: _run_rows().astype(np.float32),
    ],
    ids=["no-rows", "one-row", "strided", "fortran", "float32"],
)
def test_write_csv_takes_any_row_layout(tmp_path, make_rows):
    rows = make_rows()
    path = tmp_path / "run.csv"
    RunRecord("layout", "open-loop", 0, rows, {}).write_csv(path)
    assert path.read_bytes() == csv_text(rows).encode()


def test_a_run_and_its_csv_round_trip_hold_no_row_lists(tmp_path):
    """A run, its CSV write and the read-back hold their 2001 rows of 392 B
    as float64 buffers: peak traced memory measured 2.1x to 2.5x the rows'
    bytes.  With each stage's rows held as lists of Python floats it
    measured 6.7x."""
    config = load_config(bundled_config_path("position_hold.cfg"))
    path = tmp_path / "run.csv"
    run_scenario(config, duration=0.01).write_csv(path)  # one-time allocations
    read_csv(path)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rec = run_scenario(config, duration=1.0)
        rec.write_csv(path)
        read_csv(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rec.rows.shape == (2001, len(CSV_COLUMNS))
    assert peak < 4 * rec.rows.nbytes


def test_csv_byte_determinism(tmp_path):
    config = load_config(bundled_config_path("hover.cfg"))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_scenario(config, duration=0.5).write_csv(p1)
    run_scenario(config, duration=0.5).write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_seed_changes_noisy_run(tmp_path):
    config = load_config(bundled_config_path("hover.cfg"))
    a = run_scenario(config, duration=0.25)
    b = run_scenario(config, duration=0.25, seed=config.seed + 1)
    assert not np.array_equal(a.rows, b.rows)


@pytest.mark.parametrize(
    "override, message",
    [
        ({"duration": -1.0}, "duration_s: must be positive"),
        ({"duration": 0.0}, "duration_s: must be positive"),
        ({"duration": math.nan}, "duration_s: must be finite"),
        ({"seed": 1.5}, "seed: must be a non-negative integer"),
        # 1e308 s at 2 kHz overflowed the tick count to inf.
        ({"duration": 1e308}, "duration_s: must span at most 10000000 control ticks"),
    ],
)
def test_run_scenario_checks_overrides_against_the_schema(override, message):
    """The library overrides fail as the same values in a scenario file do."""
    with pytest.raises(ConfigError) as info:
        run_scenario(short_ballistic(), **override)
    assert info.value.errors == [message]


def test_read_csv_rejects_other_files(tmp_path):
    p = tmp_path / "other.csv"
    p.write_text("# some-other-schema v9\nt\n0.0\n")
    with pytest.raises(ValueError):
        read_csv(p)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: [], "no rows after the header"),
        (lambda lines: [line.rsplit(",", 1)[0] + "\n" for line in lines], "line 3: 48 fields"),
        (lambda lines: lines[:2] + [lines[2].rstrip() + ",0.0\n"] + lines[3:], "line 5: 50 fields"),
        (
            lambda lines: lines[:1] + ["abc," + lines[1].split(",", 1)[1]] + lines[2:],
            "line 4: could not convert string to float: 'abc'",
        ),
    ],
    ids=["header-only", "every-row-short", "one-row-long", "non-numeric-field"],
)
def test_read_csv_rejects_malformed_rows(tmp_path, edit, message):
    path = tmp_path / "run.csv"
    run_scenario(short_ballistic(), duration=0.01).write_csv(path)
    schema, header, *lines = path.read_text().splitlines(keepends=True)
    path.write_text(schema + header + "".join(edit(lines)))
    with pytest.raises(ValueError, match=message):
        read_csv(path)


def test_write_csv_replaces_a_regular_file_and_writes_through_a_symlink(tmp_path):
    """A rewrite goes to a new inode, so it never truncates the old file's
    data; a symlink at the path is kept and its target rewritten."""
    record = run_scenario(short_ballistic(), duration=0.01)
    path, link, target = tmp_path / "run.csv", tmp_path / "link.csv", tmp_path / "target.csv"
    path.write_text("old\n")
    with open(path) as old:  # holds the old inode, so its number is not reused
        record.write_csv(path)
        assert os.fstat(old.fileno()).st_ino != path.stat().st_ino
        assert old.read() == "old\n"
    target.write_text("old\n")
    link.symlink_to(target)
    record.write_csv(link)
    assert link.is_symlink()
    assert target.read_bytes() == path.read_bytes()


def test_metrics_recomputable_from_rows():
    for name in ("ballistic.cfg", "position_hold.cfg"):
        rec = run_scenario(load_config(bundled_config_path(name)), duration=1.0)
        recomputed = metrics_from_rows(rec.rows)
        assert set(recomputed) == set(rec.metrics)
        for key, value in rec.metrics.items():
            if math.isnan(value):
                assert math.isnan(recomputed[key])
            else:
                assert recomputed[key] == pytest.approx(value, rel=1e-12)


def test_metrics_of_a_run_with_huge_positions_do_not_warn():
    """A 1e200 N/V thrust gain throws the vehicle 7e199 m up in one step,
    where the squared position error overflows; the run diverges and its
    position metrics are inf, without an overflow warning."""
    config = config_from_dict({
        "mode": "open-loop",
        "vehicle": {"wing": {"k_thrust_n_per_v": 1e200}},
        "open_loop": {"command_v": [130.0] * 4},
    })
    rec = run_scenario(config, duration=0.01)
    assert rec.status == 2
    assert rec.metrics["rms_position_error_m"] == math.inf


def test_a_nan_attitude_records_nan_angles():
    """A NaN divergence's last row has NaN roll, pitch and yaw, so the
    maximum pitch is NaN rather than 90 degrees."""
    config = config_from_dict(
        {
            "name": "nanfall",
            "mode": "open-loop",
            "duration_s": 0.01,
            "vehicle": {"inertia_kg_m2": [1e-300] * 3},
            "disturbance": {"vibration_amplitude_n_m": 1e-8, "vibration_ramp_s": 0.0},
        }
    )
    rec = run_scenario(config)
    assert rec.status == 2
    assert rec.rows.shape[0] == 2
    for name in ("roll_rad", "pitch_rad", "yaw_rad"):
        assert math.isnan(rec.rows[:, CSV_COLUMNS.index(name)][-1])
    assert math.isnan(rec.metrics["max_abs_pitch_rad"])


@pytest.mark.parametrize(
    "mode", ["open-loop", "yaw-damping-compare", "altitude-attitude", "position-hold"]
)
def test_yaw_decay_tau_is_nan_when_every_squared_time_offset_underflows(mode):
    """20 ticks 1e-200 s apart: every (t - t_mean)^2 underflows to 0, so the
    fitted time constant is NaN instead of a ZeroDivisionError."""
    raw = {
        "mode": mode,
        "duration_s": 2e-199,
        "rates": {"control_hz": 1e200, "measurement_hz": 1e200},
        "initial": {"omega_rad_per_s": [0.0, 0.0, 20.0]},
    }
    if mode == "yaw-damping-compare":
        raw["comparison_vehicle"] = {"n_wings": 2}
    rec = run_scenario(config_from_dict(raw))
    assert rec.status in (0, 2)
    assert len(rec.rows) == 21
    assert math.isnan(rec.metrics["yaw_decay_tau_s"])


def test_divergence_sets_status():
    """Unpowered flight falls past the 10 m guard and stops early."""
    config = config_from_dict(
        {"name": "fall", "mode": "open-loop", "duration_s": 3.0}
    )
    rec = run_scenario(config)
    assert rec.status == 2
    assert rec.rows.shape[0] < 3.0 * 2000 + 1
    assert abs(rec.rows[:, CSV_COLUMNS.index("pos_z_m")][-1]) > 10.0


@pytest.mark.parametrize(
    "key",
    [
        "yaw_damping_n_m_s",
        "wing.area_mm2",
        "wing.flap_frequency_hz",
        "wing.c_damp_rate",
        "wing.steering_arm_mm",
    ],
)
def test_a_huge_yaw_damping_ends_the_run_with_status_2(key):
    """Each key at 1e300 makes the yaw damping huge, and position hold
    overflowed ``Quaternion.norm``'s ``**2`` inside ``step`` (an
    OverflowError).  As ``v*v`` the square is inf, and the run diverges."""
    raw = read_raw(bundled_config_path("position_hold.cfg"))
    node = raw.setdefault("vehicle", {})
    *sections, leaf = key.split(".")
    for section in sections:
        node = node.setdefault(section, {})
    node[leaf] = 1e300
    rec = run_scenario(config_from_dict(raw), duration=0.05)
    assert rec.status == 2
    assert 1 <= len(rec.rows) < 101


@pytest.mark.parametrize(
    "name, duration", [("position_hold.cfg", 0.5), ("hover.cfg", 0.5), ("fall", None)]
)
def test_one_sample_and_one_update_per_measurement_tick(monkeypatch, name, duration):
    """The run loop alone decides when a measurement happens: each measurement
    tick samples the sensor and updates the estimator once, no other tick
    calls either, and the estimate columns hold in between."""
    if name == "fall":  # open loop, diverges after about 1.4 s
        config = config_from_dict({"name": "fall", "mode": "open-loop", "duration_s": 3.0})
    else:
        config = load_config(bundled_config_path(name))
    sampled, updated = [], []
    sample, tick = MocapSensor.sample, Estimator.tick

    def counted_sample(sensor, state):
        sampled.append(state.t)
        return sample(sensor, state)

    def counted_tick(estimator, measurement):
        updated.append(measurement.t)
        return tick(estimator, measurement)

    monkeypatch.setattr(MocapSensor, "sample", counted_sample)
    monkeypatch.setattr(Estimator, "tick", counted_tick)
    rec = run_scenario(config, duration=duration)
    assert rec.status == (2 if name == "fall" else 0)
    ticks = len(rec.rows) - (rec.status == 2)  # a diverged run adds one row
    every = config.measurement_every
    assert len(sampled) == math.ceil(ticks / every)
    t = rec.rows[:ticks:every, CSV_COLUMNS.index("t_s")]
    assert sampled == updated == t.tolist()
    first, last = CSV_COLUMNS.index("est_pos_x_m"), CSV_COLUMNS.index("est_yaw_rad")
    est = rec.rows[:ticks, first : last + 1]
    held = [k for k in range(ticks) if k % every]
    assert np.array_equal(est[held], est[[k - 1 for k in held]])


def test_one_euler_extraction_per_row_and_measurement(monkeypatch):
    """The run loop turns each attitude into Euler angles once: the true
    state on every row, the estimate on every measurement; the controller
    extracts none."""
    calls, euler_zyx = [], spatial._euler_zyx

    def counted_euler_zyx(*q):
        calls.append(q)
        return euler_zyx(*q)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("flapsim") and (
            getattr(module, "_euler_zyx", None) is euler_zyx
        ):
            monkeypatch.setattr(module, "_euler_zyx", counted_euler_zyx)
    rec = run_scenario(load_config(bundled_config_path("position_hold.cfg")), duration=0.01)
    assert rec.status == 0
    assert len(rec.rows) == 21
    assert len(calls) == 21 + 6  # rows + measurements, one every 4 ticks


def test_yaw_damping_compare_extras():
    rec = run_scenario(load_config(bundled_config_path("yaw_damp.cfg")))
    assert rec.status == 0
    tau = rec.metrics["yaw_decay_tau_s"]
    assert tau == pytest.approx(0.22955, rel=2e-2)
    assert rec.extra_metrics["comparison_yaw_decay_tau_s"] == pytest.approx(0.32463, rel=2e-2)
    assert rec.extra_metrics["yaw_decay_tau_ratio"] == pytest.approx(1.0 / math.sqrt(2.0), rel=2e-2)


def test_a_diverged_comparison_pass_sets_status():
    """A comparison vehicle with vanishing inertia diverges in its first step
    under the vibration torque, and the record has status 2 though the
    primary pass completed."""
    config = config_from_dict(
        {
            "mode": "yaw-damping-compare",
            "duration_s": 0.05,
            "disturbance": {"vibration_amplitude_n_m": 1e-8, "vibration_ramp_s": 0.0},
            "comparison_vehicle": {"inertia_kg_m2": [1e-300, 1e-300, 1e-300]},
        }
    )
    rec = run_scenario(config)
    assert rec.status == 2
    assert rec.rows.shape[0] == 101  # the primary pass completed
    assert math.isnan(rec.extra_metrics["comparison_yaw_decay_tau_s"])


def test_comparison_runs_the_scenario_with_the_vehicle_swapped():
    """The comparison vehicle starts from the scenario's initial state and
    sees its disturbance: its tau equals a plain run of the same scenario
    whose vehicle section is the comparison section."""
    section = {
        "n_wings": 2,
        "inertia_kg_m2": [1.5e-9, 2.5e-9, 0.5e-9],
        "wing": {"flap_frequency_hz": 141.4213562373095},
    }
    scenario = {
        "mode": "yaw-damping-compare",
        "duration_s": 0.5,
        "initial": {"omega_rad_per_s": [2.0, -1.0, 20.0], "attitude_rpy_deg": [5.0, 0.0, 0.0]},
        "disturbance": {"vibration_amplitude_n_m": 1e-8, "vibration_ramp_s": 0.0},
        "comparison_vehicle": {},
    }
    compared = run_scenario(config_from_dict({**scenario, "comparison_vehicle": section}))
    plain = run_scenario(config_from_dict({**scenario, "vehicle": section}))
    tau = plain.metrics["yaw_decay_tau_s"]
    assert math.isfinite(tau)
    assert compared.extra_metrics["comparison_yaw_decay_tau_s"] == tau
    assert compared.extra_metrics["yaw_decay_tau_ratio"] == compared.metrics["yaw_decay_tau_s"] / tau


def test_altitude_step_metrics():
    rec = run_scenario(load_config(bundled_config_path("hover.cfg")))
    assert rec.status == 0
    assert rec.metrics["altitude_rise_time_s"] <= 1.0
    assert rec.metrics["max_abs_roll_rad"] <= math.radians(12.0)
    assert rec.metrics["max_abs_pitch_rad"] <= math.radians(12.0)


def test_scheduled_setpoint_switch():
    config = config_from_dict(
        {
            "name": "hop",
            "mode": "position-hold",
            "duration_s": 3.0,
            "setpoint": {
                "schedule": [
                    {"t_s": 0.0, "position_m": [0.0, 0.0, 0.2]},
                    {"t_s": 1.5, "position_m": [0.1, 0.0, 0.2]},
                ]
            },
        }
    )
    rec = run_scenario(config)
    assert rec.status == 0
    t = rec.rows[:, CSV_COLUMNS.index("t_s")]
    x = rec.rows[:, CSV_COLUMNS.index("pos_x_m")]
    sp_x = rec.rows[:, CSV_COLUMNS.index("sp_x_m")]
    # allow one tick of slop where accumulated float error meets the boundary
    assert np.all(sp_x[t < 1.5 - 1e-3] == 0.0)
    assert np.all(sp_x[t > 1.5 + 1e-3] == pytest.approx(0.1))
    assert abs(x[t <= 1.4].max()) < 5e-3
    assert x[-1] == pytest.approx(0.1, abs=5e-3)


def true_feedback_raw():
    return {
        "name": "truefb",
        "mode": "position-hold",
        "duration_s": 1.0,
        "control": {"feedback": "true"},
        "setpoint": {"schedule": [{"t_s": 0.0, "position_m": [0.0, 0.0, 0.2]}]},
    }


def test_true_state_feedback_option():
    raw = true_feedback_raw()
    rec = run_scenario(config_from_dict(raw))
    assert rec.status == 0
    raw["control"]["feedback"] = "estimated"
    rec_est = run_scenario(config_from_dict(raw))
    assert rec_est.status == 0
    # noise-free estimated feedback tracks the true-feedback run closely
    z = CSV_COLUMNS.index("pos_z_m")
    dz = rec.rows[:, z] - rec_est.rows[:, z]
    assert np.max(np.abs(dz)) < 5e-3


def test_true_state_feedback_csv_digest(tmp_path):
    """No bundled scenario flies on the true state; this pins the bytes of
    that path's CSV."""
    rec = run_scenario(config_from_dict(true_feedback_raw()), duration=0.25)
    assert rec.status == 0
    path = tmp_path / "truefb.csv"
    rec.write_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "8ce01757b1ac2397de4c24fdc6401a6472e82897a82d425feb30c6a0c4a64d76"
    )


def test_open_loop_constant_command():
    config = config_from_dict(
        {
            "name": "drive",
            "mode": "open-loop",
            "duration_s": 0.2,
            "open_loop": {"command_v": [140.0, 140.0, 140.0, 140.0]},
        }
    )
    rec = run_scenario(config)
    assert rec.status == 0
    assert np.all(rec.rows[:, CSV_COLUMNS.index("cmd_1_v")] == 140.0)
    # 4 kf v > mg at 140 V: the craft accelerates upward
    assert rec.rows[:, CSV_COLUMNS.index("pos_z_m")][-1] > 0.0


def test_lift_report_values():
    """The stock vehicle's design-point lift figures."""
    vehicle = config_from_dict({}).vehicle
    assert cycle_avg_lift(vehicle.wing) == pytest.approx(3.5e-4, rel=1e-9)
    assert vehicle.total_lift == pytest.approx(1.4e-3, rel=1e-9)
    assert vehicle.lift_to_weight == pytest.approx(1.5022, abs=1e-3)


def test_compare_variants_ratios():
    four = load_config(bundled_config_path("hover.cfg"))
    two = load_config(bundled_config_path("two_wing.cfg"))
    report = compare_variants(four, two)
    assert report["total_lift_n"]["ratio"] == pytest.approx(1.4 / 1.3, rel=1e-6)
    assert report["wing_loading_n_per_m2"]["ratio"] == pytest.approx(0.659, abs=2e-3)
    same = compare_variants(four, four)
    for entry in same.values():
        assert entry["ratio"] == pytest.approx(1.0, rel=1e-12)


def test_run_writes_csv(tmp_path):
    out = tmp_path / "out.csv"
    run_scenario(short_ballistic()).write_csv(out)
    assert out.exists()
    assert read_csv(out).shape[0] == 201


# What perfbench/run.py --trace 1 patches and reads: scenarios.step and
# scenarios.mix, FlightController.tick and last_command, control.allocate
# and the any_saturated of the command it returns, control.desired_attitude
# and control.rotmat_to_quat, MocapSensor.sample and Estimator.tick.
_TRACE_CHILD = """
import run
from flapsim import bundled_config_path, load_config, run_scenario

tracer = run.Tracer()
tracer.install()
run_scenario(load_config(bundled_config_path("position_hold.cfg")), duration=0.01)
tracer.uninstall()
spans = ("dynamics.step", "aero.mix", "control.tick", "aero.allocate",
         "control.desired_attitude", "estimation.sample", "estimation.update")
print(*(tracer.calls(name) for name in spans))
"""


def traced_calls(child: str) -> list[int]:
    """The counts ``child`` prints after a traced run; run in a child process
    so this process stays unpatched."""
    root = Path(__file__).resolve().parents[1]
    path = [str(root / "perfbench"), str(root / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", child],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [int(n) for n in proc.stdout.split()]


def test_benchmark_trace_hooks_resolve():
    """The benchmark's tracer installs on, runs through and uninstalls from
    the names it patches."""
    calls = traced_calls(_TRACE_CHILD)
    assert len(calls) == 7 and all(n > 0 for n in calls), calls


def test_the_run_loop_calls_the_names_the_benchmark_traces(monkeypatch):
    """Every name the benchmark's tracer patches is looked up when it is
    called: pre-binding or inlining one would silently zero its per-layer
    metric.  A 0.01 s position hold is 21 ticks at 2 kHz (20 steps) and 6
    measurements at 500 Hz."""
    calls = dict.fromkeys(
        ("step", "mix", "allocate", "desired_attitude", "sample", "tick"), 0
    )

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in (
        (scenarios, "step"), (scenarios, "mix"),
        (control, "allocate"), (control, "desired_attitude"),
        (MocapSensor, "sample"), (Estimator, "tick"),
    ):
        counted(owner, name)
    rec = scenarios.run_scenario(
        load_config(bundled_config_path("position_hold.cfg")), duration=0.01
    )
    assert len(rec.rows) == 21
    assert calls == {
        "step": 20, "mix": 21, "allocate": 21, "desired_attitude": 21,
        "sample": 6, "tick": 6,
    }


# A stubbed desired_attitude that never finds a thrust axis makes every
# position-hold tick return the controller's last_command itself, which the
# tracer counts as a hold: 21 ticks in 0.01 s at 2 kHz.
_TRACE_HOLD_CHILD = """
import run
from flapsim import bundled_config_path, control, load_config, run_scenario

control.desired_attitude = lambda f_desired, yaw_desired: None
tracer = run.Tracer()
tracer.install()
run_scenario(load_config(bundled_config_path("position_hold.cfg")), duration=0.01)
tracer.uninstall()
print(tracer.counts["control.tick.holds"], tracer.calls("control.tick"))
"""


def test_benchmark_counts_held_ticks():
    assert traced_calls(_TRACE_HOLD_CHILD) == [21, 21]


# The comparison vehicle is a second pass of the loop inside one
# run_scenario call: 2 x 100 ticks at 2 kHz, and no nested run_scenario.
_TRACE_COMPARE_CHILD = """
import run
from flapsim import bundled_config_path, load_config, scenarios

tracer = run.Tracer()
tracer.install()
scenarios.run_scenario(load_config(bundled_config_path("yaw_damp.cfg")), duration=0.05)
tracer.uninstall()
print(tracer.calls("scenarios.run_scenario"), tracer.calls("dynamics.step"))
"""


def test_comparison_is_one_run_scenario_call():
    assert traced_calls(_TRACE_COMPARE_CHILD) == [1, 200]
