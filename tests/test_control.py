"""Attitude law, the outer-loop PID and the cascaded controller."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flapsim.aero import Wrench, allocate, mix
from flapsim.config import (
    ControlParams,
    bundled_config_path,
    config_from_dict,
    load_config,
)
import oracles
from flapsim import control
from flapsim.control import (
    PID,
    AttitudeGains,
    FlightController,
    PIDGains,
    Setpoint,
    attitude_torque,
    desired_attitude,
    thrust_magnitude,
)
from flapsim.dynamics import VehicleState, step
from flapsim.spatial import Quaternion, _euler_zyx, quat_error, sign

MASS = 95e-6
G = 9.81
WEIGHT = MASS * G


def gains() -> AttitudeGains:
    return AttitudeGains(
        attitude=np.array([4.8e-6, 4.8e-6, 2.4e-6]),
        rate=np.array([1.5e-8, 1.5e-8, 8.0e-9]),
    )


def random_quaternion(rng):
    v = rng.standard_normal(4)
    return Quaternion(*(v / np.linalg.norm(v)).tolist())


def rotate(q, v):
    """Vector part of the sandwich product q (0, v) q*."""
    return np.array((q * Quaternion(0.0, *map(float, v)) * q.conjugate())[1:])


def test_attitude_equilibrium():
    q = Quaternion.from_euler_zyx(0.3, -0.2, 1.0)
    tau = attitude_torque(q, q, np.zeros(3), gains())
    assert tau == pytest.approx([0.0, 0.0, 0.0], abs=1e-18)


def test_attitude_proportional_axis():
    """A pure roll error commands a restoring roll torque and nothing else."""
    g = gains()
    theta = 0.2
    q = Quaternion.from_rotation_vector([theta, 0.0, 0.0])
    tau = attitude_torque(q, Quaternion(), np.zeros(3), g)
    assert tau[0] == pytest.approx(-g.attitude[0] * math.sin(theta / 2.0), rel=1e-12)
    assert tau[1] == 0.0 and tau[2] == 0.0


def test_attitude_rate_damping():
    g = gains()
    q = Quaternion()
    omega = np.array([0.5, -0.2, 0.1])
    tau = attitude_torque(q, q, omega, g)
    assert tau == pytest.approx(-g.rate * omega, rel=1e-12)


def test_attitude_double_cover_invariance():
    rng = np.random.default_rng(31)
    g = gains()
    for _ in range(300):
        q = random_quaternion(rng)
        q_d = random_quaternion(rng)
        omega = rng.standard_normal(3)
        t1 = np.asarray(attitude_torque(q, q_d, omega, g))
        t2 = np.asarray(attitude_torque(-q, q_d, omega, g))
        t3 = np.asarray(attitude_torque(q, -q_d, omega, g))
        assert np.max(np.abs(t1 - t2)) < 1e-12
        assert np.max(np.abs(t1 - t3)) < 1e-12


def test_attitude_left_invariance():
    """Premultiplying both attitudes by a common rotation leaves tau unchanged."""
    rng = np.random.default_rng(32)
    g = gains()
    for _ in range(300):
        q = random_quaternion(rng)
        q_d = random_quaternion(rng)
        p = random_quaternion(rng)
        omega = rng.standard_normal(3)
        t1 = np.asarray(attitude_torque(q, q_d, omega, g))
        t2 = np.asarray(attitude_torque(p * q, p * q_d, omega, g))
        assert np.max(np.abs(t1 - t2)) < 1e-9


_unit = st.floats(-1.0, 1.0)
_quaternion = st.tuples(_unit, _unit, _unit, _unit).filter(
    lambda v: np.linalg.norm(v) > 1e-3
).map(lambda v: Quaternion(*(np.array(v) / np.linalg.norm(v)).tolist()))
_vec3 = st.tuples(*[st.floats(-1e2, 1e2)] * 3).map(np.array)
_gain3 = st.tuples(*[st.floats(1e-9, 1e-2)] * 3).map(np.array)


@given(_quaternion, _quaternion, _vec3, _gain3, _gain3)
def test_attitude_torque_matches_law_with_zero_desired_rate(q, q_d, omega, k1, k2):
    """The law equals the former one whose desired rate was a rotated zero."""
    qe = quat_error(q_d, q)
    omega_d = rotate(qe.inverse(), np.zeros(3))
    expect = -k1 * (sign(qe.w) * np.array(qe[1:])) - k2 * (omega - omega_d)
    assert np.array_equal(attitude_torque(q, q_d, omega, AttitudeGains(k1, k2)), expect)


_signed_zero3 = st.tuples(*[st.sampled_from([0.0, -0.0])] * 3)


@given(
    _quaternion,
    st.one_of(_quaternion, st.just(Quaternion())),
    st.one_of(_signed_zero3, st.tuples(*[st.floats()] * 3)),
    st.one_of(_signed_zero3, st.tuples(*[st.floats(0.0, 1e-2)] * 3)),
    st.tuples(*[st.floats(0.0, 1e-2)] * 3),
)
@example(Quaternion(), Quaternion(), (0.0, -0.0, 0.0), (1.0, 1.0, 1.0), (1.0, 1.0, 1.0))
@example(Quaternion(), Quaternion(), (-0.0, 0.0, -0.0), (0.0, -0.0, 0.0), (0.0, 0.0, 0.0))
@example(Quaternion(-1.0), Quaternion(), (0.0, -0.0, math.nan), (1.0, 2.0, 3.0), (0.0, 1.0, 1.0))
def test_attitude_torque_matches_the_generator_loop(q, q_d, omega, k1, k2):
    """The unrolled law holds the loop oracle's bits: torques of +-0.0,
    infinities and NaN included."""
    g = AttitudeGains(k1, k2)
    got = attitude_torque(q, q_d, omega, g)
    assert oracles.bits(got) == oracles.bits(oracles.attitude_torque(q, q_d, omega, g))


@given(
    st.lists(st.tuples(_vec3, _vec3), min_size=1, max_size=5),
    _vec3,
    _gain3,
    _gain3,
    _gain3,
)
def test_position_force_matches_law_with_zero_feedforward(states, r_sp, kp, kd, ki):
    """Bit for bit, signed zeros included, the former law with zero velocity
    and acceleration feedforward, over a sequence of ticks."""
    dt = 5e-4
    pid = PID(PIDGains(*(tuple(k.tolist()) for k in (kp, kd, ki)), 0.05))
    integ = oracles._Integrator(3, 0.05)
    for position, velocity in states:
        f = pid.force(*(tuple(v.tolist()) for v in (position, velocity, r_sp)), dt)
        e = position - r_sp
        edot = velocity - np.zeros(3)
        expect = -kp * e - kd * edot - ki * integ.advance(e, dt)
        assert all(type(v) is float for v in f)
        assert np.array_equal(f, expect)
        assert np.array_equal(np.signbit(f), np.signbit(expect))


_error = st.floats(-1e100, 1e100)
_errors = st.sampled_from((1, 3)).flatmap(
    lambda n: st.lists(st.tuples(*[_error] * n), min_size=1, max_size=20)
)


def zero_gains(n: int, limit: float) -> PIDGains:
    return PIDGains(kp=(0.0,) * n, kd=(0.0,) * n, ki=(0.0,) * n, integral_limit=limit)


@given(st.floats(1e-6, 1e6), st.floats(1e-6, 1.0), _errors)
def test_integrator_matches_numpy_oracle(limit, dt, errors):
    """``PID.integral`` equals, bit for bit and sign bits included, the numpy
    integrator, clamped or not, at the sizes the altitude and position loops
    use.  With a zero setpoint the error is the position itself."""
    n = len(errors[0])
    pid, oracle = PID(zero_gains(n, limit)), oracles._Integrator(n, limit)
    for e in errors:
        pid.force(e, (0.0,) * n, (0.0,) * n, dt)
        got, want = pid.integral, oracle.advance(np.array(e), dt)
        assert all(type(v) is float for v in got)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


_gain = st.floats(0.0, 1e3)


@given(
    st.tuples(_gain, _gain, _gain),
    st.tuples(_gain, _gain, _gain),
    st.tuples(_gain, _gain, _gain),
    st.floats(1e-6, 1e6),
    st.floats(1e-6, 1.0),
    st.lists(st.tuples(*[st.tuples(*[_error] * 3)] * 3), min_size=1, max_size=20),
)
def test_one_axis_pid_is_the_z_axis_of_three(kp, kd, ki, limit, dt, ticks):
    """The altitude loop's 1-axis PID equals, bit for bit, the z component of
    the position loop's 3-axis PID with the same z gains."""
    three = PID(PIDGains(kp, kd, ki, limit))
    one = PID(PIDGains(kp[2:], kd[2:], ki[2:], limit))
    for r, rdot, r_sp in ticks:
        (fz,) = one.force(r[2:], rdot[2:], r_sp[2:], dt)
        want = three.force(r, rdot, r_sp, dt)[2]
        assert fz == want
        assert math.copysign(1.0, fz) == math.copysign(1.0, want)
        assert one.integral == three.integral[2:]


def test_thrust_projection():
    f = np.array([0.0, 0.0, WEIGHT])
    assert thrust_magnitude(f, Quaternion()) == pytest.approx(WEIGHT)
    tilted = Quaternion.from_rotation_vector([math.pi / 3, 0.0, 0.0])
    assert thrust_magnitude(f, tilted) == pytest.approx(WEIGHT / 2.0)
    sideways = Quaternion.from_rotation_vector([math.pi / 2, 0.0, 0.0])
    assert thrust_magnitude(f, sideways) == pytest.approx(0.0, abs=1e-18)
    upside_down = Quaternion.from_rotation_vector([math.pi, 0.0, 0.0])
    assert thrust_magnitude(f, upside_down) == 0.0  # floored, wings cannot pull


def test_desired_attitude_identity():
    q = desired_attitude(np.array([0.0, 0.0, 1.0]), 0.0)
    assert abs(abs(q.dot(Quaternion())) - 1.0) < 1e-12


def test_desired_attitude_pure_yaw():
    for yaw in (-2.0, -0.5, 0.7, 3.0):
        q = desired_attitude(np.array([0.0, 0.0, 2.0 * WEIGHT]), yaw)
        want = Quaternion.from_yaw(yaw)
        assert abs(abs(q.dot(want)) - 1.0) < 1e-12


def test_desired_attitude_thrust_axis():
    rng = np.random.default_rng(34)
    for _ in range(300):
        f = rng.standard_normal(3)
        f[2] = abs(f[2]) + 0.5  # keep away from the horizontal degeneracy
        yaw = rng.uniform(-math.pi, math.pi)
        q = desired_attitude(f, yaw)
        b3 = rotate(q, [0.0, 0.0, 1.0])
        assert b3 == pytest.approx(f / np.linalg.norm(f), abs=1e-9)
        # body x stays orthogonal to the heading vector by construction
        heading = np.array([-math.sin(yaw), math.cos(yaw), 0.0])
        b1 = rotate(q, [1.0, 0.0, 0.0])
        assert abs(b1 @ heading) < 1e-9


_force = st.tuples(*[st.floats(-1e-2, 1e-2)] * 3).map(np.array)


@given(_force, st.floats(-4.0, 4.0))
def test_desired_attitude_matches_numpy_construction(f, yaw):
    """The float construction equals the np.cross / np.linalg.norm /
    rotmat_to_quat one within 4 ulp per component, scaled by the conditioning
    1 / |h x i3| of the heading cross product, and is None where it is None."""
    want = oracles.desired_attitude(f, yaw)
    if want is None:
        assert desired_attitude(f, yaw) is None
        return
    got = np.array(desired_attitude(f, yaw))
    want = np.array(want)
    heading = np.array([-math.sin(yaw), math.cos(yaw), 0.0])
    conditioning = np.linalg.norm(np.cross(heading, f / np.linalg.norm(f)))
    error = min(np.abs(got - want).max(), np.abs(got + want).max())
    assert error <= 4.0 * np.finfo(float).eps / conditioning


def test_desired_attitude_degeneracies():
    assert desired_attitude(np.zeros(3), 0.0) is None
    assert desired_attitude(np.array([0.0, 0.0, 1e-9]), 0.0) is None
    # force parallel to the heading vector: yaw 0 heads along +y
    assert desired_attitude(np.array([0.0, 1.0, 0.0]), 0.0) is None


def test_position_hover_feedforward():
    """At the setpoint the position loop commands the weight alone."""
    ctrl = flight_controller(mode="position-hold")
    sp = Setpoint(position=(0.1, -0.2, 0.5))
    cmd = ctrl.tick(VehicleState(x=0.1, y=-0.2, z=0.5), 0.0, sp, 5e-4)
    assert_commands(cmd, hover_wrench())


def test_position_proportional_and_derivative_terms():
    kp = (1.5e-3, 1.5e-3, 2.4e-3)
    kd = (6.8e-4, 6.8e-4, 9.5e-4)
    pid = PID(PIDGains(kp=kp, kd=kd, ki=(0.0, 0.0, 0.0), integral_limit=1.0))
    f = pid.force((0.02, 0.0, 0.0), (0.0, 0.1, 0.0), (0.0, 0.0, 0.0), 5e-4)
    assert f == pytest.approx([-kp[0] * 0.02, -kd[1] * 0.1, 0.0], rel=1e-12)


def test_integrator_clamp():
    pid = PID(PIDGains((0.0,) * 3, (0.0,) * 3, (1.0,) * 3, integral_limit=0.01))
    for _ in range(100):
        f = pid.force((1.0, -1.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 1.0)
    assert pid.integral == (0.01, -0.01, 0.0)
    # ki = 1 makes the integral term visible directly in the force
    assert f[0] == pytest.approx(-0.01)
    assert f[1] == pytest.approx(0.01)


def simulate_altitude(controller_mass, plant_mass, ki, t_end, z_ref=0.3):
    """Scalar vertical plant under the altitude loop, forward Euler."""
    pid = PID(PIDGains(kp=(2.4e-3,), kd=(9.5e-4,), ki=(ki,), integral_limit=0.5))
    z, zdot, dt = 0.0, 0.0, 1e-3
    for _ in range(int(t_end / dt)):
        (fz,) = pid.force((z,), (zdot,), (z_ref,), dt)
        f = max(0.0, fz + controller_mass * G)
        zddot = f / plant_mass - G
        zdot += zddot * dt
        z += zdot * dt
    return z - z_ref


def test_altitude_steady_state_error_without_integrator():
    """ki = 0 leaves the droop (m_c - m_p) g / kp when the plant is heavier."""
    plant = MASS * 1.1
    err = simulate_altitude(MASS, plant, ki=0.0, t_end=10.0)
    want = (MASS - plant) * G / 2.4e-3
    assert err == pytest.approx(want, rel=1e-3)


def test_altitude_integrator_removes_droop():
    plant = MASS * 1.1
    err = simulate_altitude(MASS, plant, ki=5e-4, t_end=60.0)
    assert abs(err) < 1e-4


def flight_controller(mode="altitude-attitude", yaw_feedback=False):
    control = ControlParams(
        attitude=gains(),
        position=PIDGains(
            kp=(1.5e-3, 1.5e-3, 2.4e-3),
            kd=(6.8e-4, 6.8e-4, 9.5e-4),
            ki=(0.0, 0.0, 0.0),
            integral_limit=0.05,
        ),
        altitude=PIDGains(kp=(2.4e-3,), kd=(9.5e-4,), ki=(0.0,), integral_limit=0.5),
        yaw_feedback=yaw_feedback,
        feedback="estimated",
    )
    return FlightController(config_from_dict({}).vehicle, control, mode)


def hover_wrench(yaw=0.0):
    """The weight as thrust, with no roll or pitch torque."""
    vehicle = config_from_dict({}).vehicle
    return Wrench(vehicle.mass * vehicle.gravity, np.array([0.0, 0.0, yaw]))


def assert_commands(cmd, wrench):
    """``cmd`` is, bit for bit, the allocation of ``wrench``."""
    want = allocate(config_from_dict({}).vehicle.wing, wrench)
    assert np.array_equal(cmd.amplitudes, want.amplitudes)
    assert np.array_equal(cmd.saturated, want.saturated)


def test_tick_hover_commands():
    """At the setpoint with level attitude all four wings share the weight."""
    ctrl = flight_controller()
    sp = Setpoint(position=np.array([0.0, 0.0, 0.3]))
    cmd = ctrl.tick(VehicleState(z=0.3), 0.0, sp, 5e-4)
    kf = config_from_dict({}).vehicle.wing.k_thrust
    assert cmd.amplitudes == pytest.approx(np.full(4, WEIGHT / (4 * kf)), rel=1e-12)
    assert cmd.amplitudes[0] == pytest.approx(133.1357142857143, rel=1e-12)
    assert not cmd.any_saturated
    assert_commands(cmd, hover_wrench())


def test_tick_ignores_yaw_in_altitude_mode():
    """A yawed but level vehicle sees no corrective torque at all."""
    ctrl = flight_controller()
    q = Quaternion.from_yaw(1.2)
    est = VehicleState(z=0.3, qw=q.w, qx=q.x, qy=q.y, qz=q.z)
    cmd = ctrl.tick(est, 1.2, Setpoint(position=np.array([0.0, 0.0, 0.3])), 5e-4)
    assert_commands(cmd, hover_wrench())


def test_tick_yaw_feedback_gate():
    est = VehicleState(wz=5.0)  # pure yaw rate
    sp = Setpoint(position=np.zeros(3))

    passive = flight_controller()
    assert_commands(passive.tick(est, 0.0, sp, 5e-4), hover_wrench())

    active = flight_controller(yaw_feedback=True)
    assert_commands(active.tick(est, 0.0, sp, 5e-4), hover_wrench(yaw=-8.0e-9 * 5.0))


def test_tick_heading_is_the_yaw_argument(monkeypatch):
    """Position-hold with yaw feedback takes its heading reference from the
    ``yaw`` argument alone.  The same level estimate at yaw 0 gives the hover
    at heading 0, and at heading 0.3 the yaw torque K1z sin(0.15) of a
    0.3 rad heading error."""
    ctrl = flight_controller(mode="position-hold", yaw_feedback=True)
    est = VehicleState(z=0.3)
    sp = Setpoint(position=(0.0, 0.0, 0.3))
    assert_commands(ctrl.tick(est, 0.0, sp, 5e-4), hover_wrench())

    wrenches = []

    def recorded_allocate(wing, wrench):
        wrenches.append(wrench)
        return allocate(wing, wrench)

    monkeypatch.setattr(control, "allocate", recorded_allocate)
    ctrl.tick(est, 0.3, sp, 5e-4)
    (wrench,) = wrenches
    k1z = gains().attitude[2]
    assert wrench.torque[2] == pytest.approx(k1z * math.sin(0.15), rel=1e-12)


def test_tick_holds_last_command_on_degeneracy():
    ctrl = flight_controller(mode="position-hold")
    sp = Setpoint(position=np.array([0.0, 0.0, 0.3]))
    good = ctrl.tick(VehicleState(z=0.3), 0.0, sp, 5e-4)
    assert good.amplitudes[0] > 0.0

    # position error chosen so the proportional term cancels the weight
    held = ctrl.tick(VehicleState(z=0.3 + WEIGHT / 2.4e-3), 0.0, sp, 5e-4)
    assert held is good


def test_controller_rejects_unknown_mode():
    with pytest.raises(ValueError):
        flight_controller(mode="acrobatic")


def test_closed_loop_attitude_recovery():
    """Large initial tilts settle to under a degree within two seconds.

    The attitude loop is exercised against the real rigid body: hover thrust,
    torque from the attitude law, allocation and mixing in the loop.
    """
    vehicle = config_from_dict({}).vehicle
    wing = vehicle.wing
    dt = 5e-4
    for tilt_deg in (30.0, 60.0, 85.0):
        ctrl = flight_controller()
        half = math.radians(tilt_deg) / math.sqrt(2.0)
        tilt = Quaternion.from_rotation_vector([half, half, 0.0])
        state = VehicleState(z=0.3, qw=tilt.w, qx=tilt.x, qy=tilt.y, qz=tilt.z)
        for _ in range(4000):
            yaw = _euler_zyx(*state[7:11])[2]
            cmd = ctrl.tick(state, yaw, Setpoint(position=np.array(state[1:4])), dt)
            state = step(state, mix(wing, cmd.amplitudes), vehicle, dt)
        roll, pitch, _ = _euler_zyx(*state[7:11])
        assert abs(roll) < math.radians(1.0)
        assert abs(pitch) < math.radians(1.0)
