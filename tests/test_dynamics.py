"""Rigid-body integration against closed-form references.

Every numeric bound here is checked against a hand-derived solution:
ballistic flight, constant-torque spin-up, exponential yaw decay and the
formal convergence order of the integrator.  Euler's equations are checked
bit for bit against the dense inertia-tensor form they replace, and the
written-out ``step`` bit for bit against the stage-by-stage RK4 it replaced.
"""

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from flapsim.aero import Wrench
from flapsim.config import bundled_config_path, config_from_dict, load_config
from flapsim.dynamics import InertialConfig, VehicleState, step, vibration_torque
from flapsim.scenarios import CSV_COLUMNS, run_scenario
from flapsim.spatial import Quaternion

DT = 5e-4


def stock_config(**overrides) -> InertialConfig:
    vehicle = config_from_dict({}).vehicle
    base = dict(
        mass=vehicle.mass,
        inertia=vehicle.inertia,
        gravity=vehicle.gravity,
        yaw_damping=0.0,
    )
    base.update(overrides)
    return InertialConfig(**base)


def zero_wrench() -> Wrench:
    return Wrench(0.0, np.zeros(3))


def simulate(state, wrench, config, n, dt=DT):
    for _ in range(n):
        state = step(state, wrench, config, dt)
    return state


def one_step_acceleration(state, wrench, config, dt=DT):
    """Acceleration of a non-rotating body over one step under a constant wrench.

    Without rotation the thrust direction and so the acceleration stay
    constant across the step, and RK4 integrates a constant acceleration
    exactly up to rounding: v1 = v0 + a dt, r1 = r0 + v0 dt + a dt^2 / 2.
    """
    after = step(state, wrench, config, dt)
    velocity = np.array(state[4:7])
    acc = (after[4:7] - velocity) / dt
    drift = state[1:4] + velocity * dt + 0.5 * acc * dt**2
    assert after[1:4] == pytest.approx(drift, rel=1e-12, abs=1e-20)
    assert after[11:] == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)
    assert after[7:11] == pytest.approx(state[7:11], abs=1e-15)
    return acc


def test_free_fall_derivative():
    acc = one_step_acceleration(VehicleState(), zero_wrench(), stock_config())
    assert acc == pytest.approx([0.0, 0.0, -9.81], rel=1e-12)


def test_hover_balance_derivative():
    config = stock_config()
    hover = Wrench(config.mass * config.gravity, np.zeros(3))
    acc = one_step_acceleration(VehicleState(), hover, config)
    assert acc == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)


def test_tilted_thrust_direction():
    config = stock_config()
    tilt = Quaternion.from_rotation_vector([math.pi / 3, 0.0, 0.0])
    state = VehicleState(qw=tilt.w, qx=tilt.x, qy=tilt.y, qz=tilt.z)
    acc = one_step_acceleration(
        state, Wrench(config.mass * config.gravity, np.zeros(3)), config
    )
    # thrust axis tilted 60 deg about +x: b3 = [0, -sin60, cos60]
    g = config.gravity
    assert acc == pytest.approx([0.0, -g * math.sin(math.pi / 3), g * (math.cos(math.pi / 3) - 1.0)], abs=1e-12)


def test_inertia_is_three_principal_moments():
    config = stock_config(inertia=np.array([1.5e-9, 2.4e-9, 3.1e-9]))
    assert config.inertia == (1.5e-9, 2.4e-9, 3.1e-9)
    assert all(type(j) is float for j in config.inertia)
    for bad in (
        np.diag([1.5e-9, 1.5e-9, 0.5e-9]),
        [1.5e-9, 1.5e-9],
        [1.5e-9, 1.5e-9, 0.5e-9, 1e-9],
        [1.5e-9, 0.0, 0.5e-9],
        [1.5e-9, -1.5e-9, 0.5e-9],
        [1.5e-9, math.nan, 0.5e-9],
        [math.inf, 1.5e-9, 0.5e-9],
        1.5e-9,
    ):
        with pytest.raises(ValueError, match="three finite, positive principal moments"):
            stock_config(inertia=bad)


@pytest.mark.parametrize("mass", [0.0, -1e-6, math.nan, math.inf])
def test_mass_must_be_finite_and_positive(mass):
    """A zero mass would divide by zero in ``step`` and a NaN one would give
    an all-NaN state; both are rejected with the inertia's ValueError."""
    with pytest.raises(ValueError, match="mass must be finite and positive"):
        stock_config(mass=mass)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "field",
    ["gravity", "yaw_damping", "vibration_amplitude", "vibration_frequency",
     "vibration_ramp"],
)
def test_passive_terms_must_be_finite(field, value):
    """A NaN gravity, damping or vibration amplitude would make ``step``
    return a NaN state without an error, and an infinite frequency makes
    ``math.sin`` raise a bare domain error; each is rejected by name."""
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        stock_config(**{field: value})


@pytest.mark.parametrize(
    "make", [stock_config, lambda: config_from_dict({}).vehicle],
    ids=["InertialConfig", "VehicleParams"],
)
def test_a_built_config_is_frozen_and_replace_checks_again(make):
    """The checks above hold for a config's life: assigning a field raises,
    and ``dataclasses.replace`` checks the new value."""
    config = make()
    for name, value in (("gravity", math.nan), ("mass", 0.0), ("inertia", (1.0,) * 3)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, value)
    with pytest.raises(ValueError, match="gravity must be finite"):
        dataclasses.replace(config, gravity=math.nan)
    with pytest.raises(ValueError, match="mass must be finite and positive"):
        dataclasses.replace(config, mass=0.0)
    moon = dataclasses.replace(config, gravity=1.62, inertia=[1e-9, 2e-9, 3e-9])
    assert (moon.gravity, moon.inertia) == (1.62, (1e-9, 2e-9, 3e-9))
    assert type(moon) is type(config)


_moment = st.floats(1e-12, 1e-3)
_rate = st.floats(-1e3, 1e3)
_torque = st.floats(-1e-3, 1e-3)


@given(
    st.tuples(_moment, _moment, _moment),
    st.tuples(_rate, _rate, _rate),
    st.tuples(_torque, _torque, _torque),
)
def test_euler_equations_match_dense_inertia(moments, rates, torque):
    """Per-axis Euler's equations equal inv(J) @ (tau - w x J w) bit for bit."""
    y = np.zeros(13)
    y[6] = 1.0
    y[10:13] = rates
    omega_dot = oracles.reference_deriv(y, 0.0, Wrench(0.0, np.array(torque)), stock_config(inertia=moments))[10:13]
    J, w = np.diag(moments), np.array(rates)
    expect = np.linalg.inv(J) @ (np.array(torque) - np.cross(w, J @ w))
    assert np.array_equal(omega_dot, expect)


def test_ballistic_closed_form():
    """z(t) = -g t^2 / 2 to 1e-9 at t = 0.1 s; horizontal velocity constant."""
    config = stock_config()
    state = simulate(VehicleState(vx=0.2, vy=-0.1), zero_wrench(), config, 200)
    assert state.t == pytest.approx(0.1)
    assert abs(state.z - (-0.04905)) < 1e-9
    assert state.vx == pytest.approx(0.2, abs=1e-15)
    assert state.vy == pytest.approx(-0.1, abs=1e-15)
    assert state.x == pytest.approx(0.02, abs=1e-12)


def test_spin_up_closed_form():
    """Constant yaw torque: omega3(t) = tau3 t / J33 to 1e-6 relative."""
    config = stock_config()
    tau3 = 2.0e-9
    wrench = Wrench(0.0, np.array([0.0, 0.0, tau3]))
    state = simulate(VehicleState(), wrench, config, 1000)
    expect = tau3 * state.t / config.inertia[2]
    assert abs(state.wz - expect) / expect < 1e-6
    assert state.wx == pytest.approx(0.0, abs=1e-15)
    assert state.wy == pytest.approx(0.0, abs=1e-15)


def test_yaw_decay_closed_form():
    """First-order decay omega3(t) = omega0 exp(-b t / J33)."""
    vehicle = config_from_dict({}).vehicle
    b = vehicle.yaw_damping
    config = stock_config(yaw_damping=b)
    omega0 = 20.0
    state = simulate(VehicleState(wz=omega0), zero_wrench(), config, 2000)
    expect = omega0 * math.exp(-b * state.t / config.inertia[2])
    assert abs(state.wz - expect) / expect < 1e-4


def test_rk4_order():
    """Step-halving on a free tumble shows at least fourth-order convergence."""
    config = stock_config(
        inertia=[1.5e-9, 2.4e-9, 3.1e-9],
    )
    state0 = VehicleState(wx=3.0, wy=-2.0, wz=1.0)
    horizon = 0.2

    def final_packed(dt):
        s = simulate(state0, zero_wrench(), config, round(horizon / dt), dt)
        return np.array([*s[11:], *s[7:11]])

    reference = final_packed(2.5e-4)
    err_coarse = np.linalg.norm(final_packed(2e-3) - reference)
    err_fine = np.linalg.norm(final_packed(1e-3) - reference)
    order = math.log2(err_coarse / err_fine)
    assert order >= 3.9


def test_quaternion_rate_consistency():
    """Finite-difference qdot across a step matches q*[0, omega]/2 to O(dt^2)."""
    config = stock_config(inertia=[1.5e-9, 2.4e-9, 3.1e-9])
    state = VehicleState(wx=1.0, wy=2.0, wz=-1.5)
    dt = 1e-5
    after = step(state, zero_wrench(), config, dt)
    numeric = np.subtract(after[7:11], state[7:11]) / dt
    mid = step(state, zero_wrench(), config, dt / 2.0)
    analytic = 0.5 * np.array(Quaternion(*mid[7:11]) * Quaternion(0.0, *mid[11:]))
    assert np.max(np.abs(numeric - analytic)) < 1e-6


def test_quaternion_norm_preserved():
    config = stock_config()
    state = simulate(VehicleState(wx=5.0, wy=-3.0, wz=7.0), zero_wrench(), config, 4000)
    assert Quaternion(*state[7:11]).norm() == pytest.approx(1.0, abs=1e-12)


def test_passive_yaw_damping_sign():
    """One step of free yaw: the damping shrinks the rate toward zero and
    keeps its sign."""
    config = stock_config(yaw_damping=2e-9)
    for wz in (10.0, -10.0):
        after = step(VehicleState(wz=wz), zero_wrench(), config, DT).wz
        assert 0.0 < after / wz < 1.0


def test_vibration_waveform_and_ramp():
    config = stock_config(
        vibration_amplitude=1e-4, vibration_frequency=100.0, vibration_ramp=0.5
    )
    quarter = vibration_torque(config, 2.5e-3)  # quarter period, mid ramp
    scale = 2.5e-3 / 0.5
    assert quarter == pytest.approx([1e-4 * scale, 0.0, 0.0], abs=1e-12)
    full = vibration_torque(config, 1.25)  # past the ramp, quarter phase
    assert np.hypot(full[0], full[1]) == pytest.approx(1e-4, rel=1e-12)
    assert full[2] == 0.0
    assert vibration_torque(stock_config(), 0.1) == pytest.approx([0.0, 0.0, 0.0])


def test_vibration_no_ramp():
    config = stock_config(
        vibration_amplitude=1e-4, vibration_frequency=100.0, vibration_ramp=0.0
    )
    t = 0.25e-2
    assert np.hypot(*vibration_torque(config, t)[:2]) == pytest.approx(1e-4, rel=1e-12)


def test_step_input_validation():
    config = stock_config()
    with pytest.raises(ValueError):
        step(VehicleState(), zero_wrench(), config, 0.0)
    with pytest.raises(ValueError):
        step(VehicleState(), zero_wrench(), config, -1e-3)
    with pytest.raises(ValueError):
        step(VehicleState(vx=math.nan), zero_wrench(), config, DT)
    with pytest.raises(ValueError):
        step(VehicleState(), Wrench(np.inf, np.zeros(3)), config, DT)


_STATE = struct.Struct("14d")


def _outcome(f, *args):
    """The packed bytes ``f`` returns, or the type and message it raises.

    A NaN is packed as ``math.nan``: CPython's generic and specialised float
    instructions may pass on different operands' NaNs, so one function's NaN
    changes sign after a few calls (the reference's own does).
    """
    try:
        return _STATE.pack(*(v if v == v else math.nan for v in f(*args)))
    except (ValueError, OverflowError) as e:
        return type(e), str(e)


def _step_args(value, number, positive):
    """A state of ``value``s, a wrench of ``number``s, gravity and yaw
    damping of finite ``number``s, mass, inertia and dt of ``positive``s, and
    the vibration off, ramping or at full swing.  ``InertialConfig`` refuses
    a non-finite constant, so only the wrench and dt carry NaN and inf."""
    moment = positive.filter(math.isfinite)
    constant = number.filter(math.isfinite)
    return st.tuples(
        st.tuples(*[value] * 14).map(lambda s: VehicleState(*s)),
        st.builds(Wrench, number, st.tuples(number, number, number)),
        st.builds(
            InertialConfig,
            mass=moment,
            inertia=st.tuples(moment, moment, moment),
            gravity=constant,
            yaw_damping=constant,
            vibration_amplitude=st.one_of(st.just(0.0), constant),
            vibration_frequency=st.floats(0.0, 1e3),
            vibration_ramp=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
        ),
        positive,
    )


@given(
    st.one_of(
        # Values whose arithmetic stays finite, and then anything: finite
        # states, any wrench, constants and dt > 0.
        _step_args(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(1e-6, 1e-2)),
        _step_args(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(),
            st.floats(min_value=0.0, exclude_min=True),
        ),
    )
)
def test_step_matches_the_stage_by_stage_rk4(args):
    """The written-out step returns the bytes of ``oracles.reference_step``,
    or raises what it raises, for finite states with signed zeros and
    subnormals, any wrench, and vibration off, ramping or at full swing."""
    assert _outcome(step, *args) == _outcome(oracles.reference_step, *args)


# Finite floats, their overflowing sums, infinities and NaN.
_check_term = st.floats() | st.sampled_from([1e308, -1e308, math.inf, -math.inf, math.nan])


@given(
    st.tuples(*[_check_term] * 14).map(lambda v: VehicleState(*v)),
    st.builds(Wrench, _check_term, st.tuples(_check_term, _check_term, _check_term)),
)
@example(VehicleState(x=1e308, y=1e308), Wrench(0.0, (0.0, 0.0, 0.0)))
@example(VehicleState(), Wrench(1e308, (1e308, 0.0, 0.0)))
@example(VehicleState(x=math.inf, y=-math.inf), Wrench(0.0, (0.0, 0.0, 0.0)))
@example(VehicleState(), Wrench(math.inf, (-math.inf, 0.0, 0.0)))
def test_step_checks_finiteness_as_the_term_by_term_check(state, wrench):
    """``step``'s finite-sum fast paths raise, with the same message, or
    return exactly where ``oracles.reference_step``'s check of each term
    does: finite terms whose sum overflows pass."""
    args = (state, wrench, stock_config(), DT)
    assert _outcome(step, *args) == _outcome(oracles.reference_step, *args)


def test_finite_terms_whose_sum_overflows_pass_the_checks():
    huge = VehicleState(x=1e308, y=1e308)
    assert sum(huge) == math.inf
    assert step(huge, zero_wrench(), stock_config(), DT)[1:3] == (1e308, 1e308)
    wrench = Wrench(1e308, (1e308, 0.0, 0.0))
    assert sum(wrench.torque, wrench.thrust) == math.inf
    step(VehicleState(), wrench, stock_config(), DT)


@pytest.mark.parametrize("name", ["hover.cfg", "position_hold.cfg"])
def test_step_matches_the_stage_by_stage_rk4_along_a_run(name):
    """Every one of the 10 000 steps of the bundled run, from its recorded
    state and wrench, gives the next recorded state bit for bit."""
    config = load_config(bundled_config_path(name))
    rows = run_scenario(config).rows.tolist()
    assert len(rows) == 10001
    thrust = CSV_COLUMNS.index("thrust_n")
    for row, after in zip(rows, rows[1:]):
        wrench = Wrench(row[thrust], tuple(row[thrust + 1 : thrust + 4]))
        got = oracles.reference_step(VehicleState(*row[:14]), wrench, config.vehicle, config.dt)
        assert _STATE.pack(*got) == _STATE.pack(*after[:14])
