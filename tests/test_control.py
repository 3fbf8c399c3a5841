"""Attitude law, outer position/altitude loops and the cascaded controller."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flapsim.aero import mix
from flapsim.config import default_vehicle, load_config, bundled_config_path
import oracles
from flapsim.control import (
    AltitudeController,
    AltitudeGains,
    AttitudeGains,
    ControlError,
    DegenerateThrust,
    DegenerateYaw,
    FlightController,
    PositionController,
    PositionGains,
    Setpoint,
    _Integrator,
    attitude_torque,
    desired_attitude,
    thrust_magnitude,
)
from flapsim.dynamics import VehicleState, step
from flapsim.spatial import Quaternion, quat_error, sign

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
    return Quaternion.from_array(v / np.linalg.norm(v))


def test_attitude_equilibrium():
    q = Quaternion.from_euler_zyx(0.3, -0.2, 1.0)
    tau = attitude_torque(q, q, np.zeros(3), gains())
    assert tau == pytest.approx([0.0, 0.0, 0.0], abs=1e-18)


def test_attitude_proportional_axis():
    """A pure roll error commands a restoring roll torque and nothing else."""
    g = gains()
    theta = 0.2
    q = Quaternion.from_axis_angle([1.0, 0.0, 0.0], theta)
    tau = attitude_torque(q, Quaternion.identity(), np.zeros(3), g)
    assert tau[0] == pytest.approx(-g.attitude[0] * math.sin(theta / 2.0), rel=1e-12)
    assert tau[1] == 0.0 and tau[2] == 0.0


def test_attitude_rate_damping():
    g = gains()
    q = Quaternion.identity()
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
        t1 = attitude_torque(q, q_d, omega, g)
        t2 = attitude_torque(-q, q_d, omega, g)
        t3 = attitude_torque(q, -q_d, omega, g)
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
        t1 = attitude_torque(q, q_d, omega, g)
        t2 = attitude_torque(p * q, p * q_d, omega, g)
        assert np.max(np.abs(t1 - t2)) < 1e-9


_unit = st.floats(-1.0, 1.0)
_quaternion = st.tuples(_unit, _unit, _unit, _unit).filter(
    lambda v: np.linalg.norm(v) > 1e-3
).map(lambda v: Quaternion.from_array(np.array(v) / np.linalg.norm(v)))
_vec3 = st.tuples(*[st.floats(-1e2, 1e2)] * 3).map(np.array)
_gain3 = st.tuples(*[st.floats(1e-9, 1e-2)] * 3).map(np.array)


@given(_quaternion, _quaternion, _vec3, _gain3, _gain3)
def test_attitude_torque_matches_law_with_zero_desired_rate(q, q_d, omega, k1, k2):
    """The law equals the former one whose desired rate was a rotated zero."""
    qe = quat_error(q_d, q)
    omega_d = qe.inverse().rotate(np.zeros(3))
    expect = -k1 * (sign(qe.w) * qe.vector) - k2 * (omega - omega_d)
    assert np.array_equal(attitude_torque(q, q_d, omega, AttitudeGains(k1, k2)), expect)


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
    gains = PositionGains(kp=kp, kd=kd, ki=ki, integral_limit=0.05)
    ctrl = PositionController(gains, MASS, G)
    integ = _Integrator(3, gains.integral_limit)
    for position, velocity in states:
        state = VehicleState.at_rest()
        state.position, state.velocity = position, velocity
        f = ctrl.force(state, Setpoint(position=r_sp), dt)
        e = position - r_sp
        edot = velocity - np.zeros(3)
        expect = -kp * e - kd * edot - ki * integ.advance(e, dt)
        expect = expect + MASS * G * np.array([0.0, 0.0, 1.0])
        expect = expect + MASS * np.zeros(3)
        assert np.array_equal(f, expect)
        assert np.array_equal(np.signbit(f), np.signbit(expect))


def test_thrust_projection():
    f = np.array([0.0, 0.0, WEIGHT])
    assert thrust_magnitude(f, Quaternion.identity()) == pytest.approx(WEIGHT)
    tilted = Quaternion.from_axis_angle([1.0, 0.0, 0.0], math.pi / 3)
    assert thrust_magnitude(f, tilted) == pytest.approx(WEIGHT / 2.0)
    sideways = Quaternion.from_axis_angle([1.0, 0.0, 0.0], math.pi / 2)
    assert thrust_magnitude(f, sideways) == pytest.approx(0.0, abs=1e-18)
    upside_down = Quaternion.from_axis_angle([1.0, 0.0, 0.0], math.pi)
    assert thrust_magnitude(f, upside_down) == 0.0  # floored, wings cannot pull


def test_desired_attitude_identity():
    q = desired_attitude(np.array([0.0, 0.0, 1.0]), 0.0)
    assert abs(abs(q.dot(Quaternion.identity())) - 1.0) < 1e-12


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
        b3 = q.rotate(np.array([0.0, 0.0, 1.0]))
        assert b3 == pytest.approx(f / np.linalg.norm(f), abs=1e-9)
        # body x stays orthogonal to the heading vector by construction
        heading = np.array([-math.sin(yaw), math.cos(yaw), 0.0])
        b1 = q.rotate(np.array([1.0, 0.0, 0.0]))
        assert abs(b1 @ heading) < 1e-9


_force = st.tuples(*[st.floats(-1e-2, 1e-2)] * 3).map(np.array)


@given(_force, st.floats(-4.0, 4.0))
def test_desired_attitude_matches_numpy_construction(f, yaw):
    """The float construction equals the np.cross / np.linalg.norm /
    rotmat_to_quat one within 4 ulp per component, scaled by the conditioning
    1 / |h x i3| of the heading cross product, and raises where it raises."""
    try:
        want = oracles.desired_attitude(f, yaw)
    except ControlError as exc:
        with pytest.raises(type(exc)):
            desired_attitude(f, yaw)
        return
    got = desired_attitude(f, yaw).as_array()
    want = want.as_array()
    heading = np.array([-math.sin(yaw), math.cos(yaw), 0.0])
    conditioning = np.linalg.norm(np.cross(heading, f / np.linalg.norm(f)))
    error = min(np.abs(got - want).max(), np.abs(got + want).max())
    assert error <= 4.0 * np.finfo(float).eps / conditioning


def test_desired_attitude_degeneracies():
    with pytest.raises(DegenerateThrust):
        desired_attitude(np.zeros(3), 0.0)
    with pytest.raises(DegenerateThrust):
        desired_attitude(np.array([0.0, 0.0, 1e-9]), 0.0)
    # force parallel to the heading vector: yaw 0 heads along +y
    with pytest.raises(DegenerateYaw):
        desired_attitude(np.array([0.0, 1.0, 0.0]), 0.0)


def test_position_hover_feedforward():
    ctrl = PositionController(
        PositionGains(
            kp=np.array([1.5e-3, 1.5e-3, 2.4e-3]),
            kd=np.array([6.8e-4, 6.8e-4, 9.5e-4]),
            ki=np.array([2.0e-4, 2.0e-4, 2.0e-3]),
            integral_limit=0.05,
        ),
        MASS,
        G,
    )
    state = VehicleState.at_rest()
    state.position = np.array([0.1, -0.2, 0.5])
    sp = Setpoint(position=state.position.copy())
    f = ctrl.force(state, sp, 5e-4)
    assert f == pytest.approx([0.0, 0.0, WEIGHT], abs=1e-15)


def test_position_proportional_and_feedforward_terms():
    kp = np.array([1.5e-3, 1.5e-3, 2.4e-3])
    kd = np.array([6.8e-4, 6.8e-4, 9.5e-4])
    ctrl = PositionController(
        PositionGains(kp=kp, kd=kd, ki=np.zeros(3), integral_limit=1.0), MASS, G
    )
    state = VehicleState.at_rest()
    state.position = np.array([0.02, 0.0, 0.0])
    state.velocity = np.array([0.0, 0.1, 0.0])
    f = ctrl.force(state, Setpoint(position=np.zeros(3)), 5e-4)
    want = np.array([-kp[0] * 0.02, -kd[1] * 0.1, WEIGHT])
    assert f == pytest.approx(want, rel=1e-12)


def test_integrator_clamp():
    ctrl = PositionController(
        PositionGains(
            kp=np.zeros(3), kd=np.zeros(3), ki=np.ones(3), integral_limit=0.01
        ),
        MASS,
        G,
    )
    state = VehicleState.at_rest()
    state.position = np.array([1.0, -1.0, 0.0])
    sp = Setpoint(position=np.zeros(3))
    for _ in range(100):
        f = ctrl.force(state, sp, 1.0)
    # ki = 1 makes the integral term visible directly in the force
    assert f[0] == pytest.approx(-0.01)
    assert f[1] == pytest.approx(0.01)


def simulate_altitude(controller_mass, plant_mass, ki, t_end, z_ref=0.3):
    """Scalar vertical plant under the altitude loop, forward Euler."""
    ctrl = AltitudeController(
        AltitudeGains(kp=2.4e-3, kd=9.5e-4, ki=ki, integral_limit=0.5),
        controller_mass,
        G,
    )
    z, zdot, dt = 0.0, 0.0, 1e-3
    for _ in range(int(t_end / dt)):
        f = max(0.0, ctrl.thrust(z, zdot, z_ref, dt))
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
    vehicle = default_vehicle()
    return FlightController(
        wing=vehicle.wing,
        attitude_gains=gains(),
        position_gains=PositionGains(
            kp=np.array([1.5e-3, 1.5e-3, 2.4e-3]),
            kd=np.array([6.8e-4, 6.8e-4, 9.5e-4]),
            ki=np.zeros(3),
            integral_limit=0.05,
        ),
        altitude_gains=AltitudeGains(kp=2.4e-3, kd=9.5e-4, ki=0.0, integral_limit=0.5),
        mass=vehicle.mass,
        gravity=vehicle.gravity,
        mode=mode,
        yaw_feedback=yaw_feedback,
    )


def test_tick_hover_commands():
    """At the setpoint with level attitude all four wings share the weight."""
    ctrl = flight_controller()
    est = VehicleState.at_rest()
    est.position = np.array([0.0, 0.0, 0.3])
    sp = Setpoint(position=np.array([0.0, 0.0, 0.3]))
    cmd = ctrl.tick(est, sp, 5e-4)
    kf = default_vehicle().wing.k_thrust
    assert cmd.amplitudes == pytest.approx(np.full(4, WEIGHT / (4 * kf)), rel=1e-12)
    assert cmd.amplitudes[0] == pytest.approx(133.1357142857143, rel=1e-12)
    assert not cmd.any_saturated
    assert ctrl.last_wrench.torque == pytest.approx([0.0, 0.0, 0.0], abs=1e-18)


def test_tick_ignores_yaw_in_altitude_mode():
    """A yawed but level vehicle sees no corrective torque at all."""
    ctrl = flight_controller()
    est = VehicleState.at_rest()
    est.position = np.array([0.0, 0.0, 0.3])
    est.attitude = Quaternion.from_yaw(1.2)
    ctrl.tick(est, Setpoint(position=np.array([0.0, 0.0, 0.3])), 5e-4)
    assert ctrl.last_wrench.torque == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)


def test_tick_yaw_feedback_gate():
    est = VehicleState.at_rest()
    est.omega = np.array([0.0, 0.0, 5.0])  # pure yaw rate
    sp = Setpoint(position=np.zeros(3))

    passive = flight_controller()
    passive.tick(est, sp, 5e-4)
    assert passive.last_wrench.torque[2] == 0.0

    active = flight_controller(yaw_feedback=True)
    active.tick(est, sp, 5e-4)
    assert active.last_wrench.torque[2] == pytest.approx(-8.0e-9 * 5.0, rel=1e-12)


def test_tick_holds_last_command_on_degeneracy():
    ctrl = flight_controller(mode="position-hold")
    est = VehicleState.at_rest()
    est.position = np.array([0.0, 0.0, 0.3])
    sp = Setpoint(position=np.array([0.0, 0.0, 0.3]))
    good = ctrl.tick(est, sp, 5e-4)
    assert good.amplitudes[0] > 0.0

    # position error chosen so the proportional term cancels the weight
    est.position = np.array([0.0, 0.0, 0.3 + WEIGHT / 2.4e-3])
    held = ctrl.tick(est, sp, 5e-4)
    assert held is good


def test_controller_rejects_unknown_mode():
    with pytest.raises(ValueError):
        flight_controller(mode="acrobatic")


def test_closed_loop_attitude_recovery():
    """Large initial tilts settle to under a degree within two seconds.

    The attitude loop is exercised against the real rigid body: hover thrust,
    torque from the attitude law, allocation and mixing in the loop.
    """
    vehicle = default_vehicle()
    config = vehicle.inertial_config()
    wing = vehicle.wing
    dt = 5e-4
    for tilt_deg in (30.0, 60.0, 85.0):
        ctrl = flight_controller()
        state = VehicleState.at_rest()
        state.position = np.array([0.0, 0.0, 0.3])
        state.attitude = Quaternion.from_axis_angle([1.0, 1.0, 0.0], math.radians(tilt_deg))
        for _ in range(4000):
            cmd = ctrl.tick(state, Setpoint(position=state.position.copy()), dt)
            state = step(state, mix(wing, cmd.amplitudes), config, dt)
        roll, pitch, _ = state.attitude.to_euler_zyx()
        assert abs(roll) < math.radians(1.0)
        assert abs(pitch) < math.radians(1.0)
