"""Attitude law, the outer-loop PID and the cascaded controller.

The law tests run on ``oracles``' reference attitude law, PID and thrust
projection; the written-out ``FlightController.tick`` is held bit for bit
to ``oracles.reference_tick``, which calls them.
"""

import copy
import math
import struct
from dataclasses import replace
from unittest.mock import patch

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
from flapsim import control, scenarios
from flapsim.control import (
    AttitudeGains,
    FlightController,
    PIDGains,
    Setpoint,
    desired_attitude,
)
from flapsim.dynamics import VehicleState, step
from flapsim.spatial import Quaternion, _euler_zyx

MASS = 95e-6
G = 9.81
WEIGHT = MASS * G


def nan_bits(values) -> list[int]:
    """``oracles.bits`` with every NaN packed as ``math.nan``: CPython's
    generic and specialised float instructions may pass on different
    operands' NaNs, so a NaN's sign is not part of the arithmetic."""
    return oracles.bits([v if v == v else math.nan for v in values])


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
    tau = oracles.reference_attitude_torque(q, q, np.zeros(3), gains())
    assert tau == pytest.approx([0.0, 0.0, 0.0], abs=1e-18)


def test_attitude_proportional_axis():
    """A pure roll error commands a restoring roll torque and nothing else."""
    g = gains()
    theta = 0.2
    q = Quaternion.from_rotation_vector([theta, 0.0, 0.0])
    tau = oracles.reference_attitude_torque(q, Quaternion(), np.zeros(3), g)
    assert tau[0] == pytest.approx(-g.attitude[0] * math.sin(theta / 2.0), rel=1e-12)
    assert tau[1] == 0.0 and tau[2] == 0.0


def test_attitude_rate_damping():
    g = gains()
    q = Quaternion()
    omega = np.array([0.5, -0.2, 0.1])
    tau = oracles.reference_attitude_torque(q, q, omega, g)
    assert tau == pytest.approx(-g.rate * omega, rel=1e-12)


def test_attitude_double_cover_invariance():
    rng = np.random.default_rng(31)
    g = gains()
    for _ in range(300):
        q = random_quaternion(rng)
        q_d = random_quaternion(rng)
        omega = rng.standard_normal(3)
        t1 = np.asarray(oracles.reference_attitude_torque(q, q_d, omega, g))
        t2 = np.asarray(oracles.reference_attitude_torque(-q, q_d, omega, g))
        t3 = np.asarray(oracles.reference_attitude_torque(q, -q_d, omega, g))
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
        t1 = np.asarray(oracles.reference_attitude_torque(q, q_d, omega, g))
        t2 = np.asarray(oracles.reference_attitude_torque(p * q, p * q_d, omega, g))
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
    qe = (q_d.conjugate() * q).normalized()
    omega_d = rotate(qe.conjugate(), np.zeros(3))
    s = 1.0 if qe.w >= 0.0 else -1.0
    expect = -k1 * (s * np.array(qe[1:])) - k2 * (omega - omega_d)
    got = oracles.reference_attitude_torque(q, q_d, omega, AttitudeGains(k1, k2))
    assert np.array_equal(got, expect)


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
def test_the_tick_applies_the_reference_attitude_law(q, q_d, omega, k1, k2):
    """The tick's written-out error quaternion and PD law give the torque of
    ``oracles.reference_attitude_torque`` for any attitude and target, bit
    for bit: torques of +-0.0, infinities and NaN included."""
    ctrl = flight_controller("position-hold", yaw_feedback=True)
    ctrl.attitude_gains = g = AttitudeGains(k1, k2)
    wrenches = []
    est = VehicleState(0.0, 0.0, 0.0, 0.3, 0.0, 0.0, 0.0, *q, *omega)
    with patch.object(control, "desired_attitude", lambda f, yaw: q_d), patch.object(
        control, "allocate", lambda wing, wrench: wrenches.append(wrench)
    ):
        ctrl.tick(est, 0.0, Setpoint(position=(0.0, 0.0, 0.3)), 5e-4)
    (wrench,) = wrenches
    want = oracles.reference_attitude_torque(q, q_d, omega, g)
    assert nan_bits(wrench.torque) == nan_bits(want)


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
    gains, memory = PIDGains(*(tuple(k.tolist()) for k in (kp, kd, ki)), 0.05), None
    integ = oracles._Integrator(3, 0.05)
    for position, velocity in states:
        f, memory = oracles.reference_pid_force(
            gains, memory, *(tuple(v.tolist()) for v in (position, velocity, r_sp)), dt
        )
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
    """The integral in ``pid_force``'s memory equals, bit for bit and sign
    bits included, the numpy integrator, clamped or not, at the sizes the
    altitude and position loops use.  With a zero setpoint the error is the
    position itself."""
    n = len(errors[0])
    gains, memory = zero_gains(n, limit), None
    oracle = oracles._Integrator(n, limit)
    for e in errors:
        _, memory = oracles.reference_pid_force(
            gains, memory, e, (0.0,) * n, (0.0,) * n, dt
        )
        got, want = memory[0], oracle.advance(np.array(e), dt)
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
    three, one = PIDGains(kp, kd, ki, limit), PIDGains(kp[2:], kd[2:], ki[2:], limit)
    three_memory = one_memory = None
    for r, rdot, r_sp in ticks:
        (fz,), one_memory = oracles.reference_pid_force(
            one, one_memory, r[2:], rdot[2:], r_sp[2:], dt
        )
        f, three_memory = oracles.reference_pid_force(
            three, three_memory, r, rdot, r_sp, dt
        )
        assert fz == f[2]
        assert math.copysign(1.0, fz) == math.copysign(1.0, f[2])
        assert one_memory[0] == three_memory[0][2:]


def test_thrust_projection():
    f = np.array([0.0, 0.0, WEIGHT])
    assert oracles.reference_thrust_magnitude(f, Quaternion()) == pytest.approx(WEIGHT)
    tilted = Quaternion.from_rotation_vector([math.pi / 3, 0.0, 0.0])
    assert oracles.reference_thrust_magnitude(f, tilted) == pytest.approx(WEIGHT / 2.0)
    sideways = Quaternion.from_rotation_vector([math.pi / 2, 0.0, 0.0])
    assert oracles.reference_thrust_magnitude(f, sideways) == pytest.approx(0.0, abs=1e-18)
    upside_down = Quaternion.from_rotation_vector([math.pi, 0.0, 0.0])
    # floored, wings cannot pull
    assert oracles.reference_thrust_magnitude(f, upside_down) == 0.0


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
    gains = PIDGains(kp=kp, kd=kd, ki=(0.0, 0.0, 0.0), integral_limit=1.0)
    f, _ = oracles.reference_pid_force(
        gains, None, (0.02, 0.0, 0.0), (0.0, 0.1, 0.0), (0.0, 0.0, 0.0), 5e-4
    )
    assert f == pytest.approx([-kp[0] * 0.02, -kd[1] * 0.1, 0.0], rel=1e-12)


def test_integrator_clamp():
    gains = PIDGains((0.0,) * 3, (0.0,) * 3, (1.0,) * 3, integral_limit=0.01)
    memory = None
    for _ in range(100):
        f, memory = oracles.reference_pid_force(
            gains, memory, (1.0, -1.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 1.0
        )
    assert memory[0] == (0.01, -0.01, 0.0)
    # ki = 1 makes the integral term visible directly in the force
    assert f[0] == pytest.approx(-0.01)
    assert f[1] == pytest.approx(0.01)


def simulate_altitude(controller_mass, plant_mass, ki, t_end, z_ref=0.3):
    """Scalar vertical plant under the altitude loop, forward Euler."""
    gains = PIDGains(kp=(2.4e-3,), kd=(9.5e-4,), ki=(ki,), integral_limit=0.5)
    memory, z, zdot, dt = None, 0.0, 0.0, 1e-3
    for _ in range(int(t_end / dt)):
        (fz,), memory = oracles.reference_pid_force(
            gains, memory, (z,), (zdot,), (z_ref,), dt
        )
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


def flight_controller(mode="altitude-attitude", yaw_feedback=False, ki=(0.0, 0.0, 0.0)):
    control = ControlParams(
        attitude=gains(),
        position=PIDGains(
            kp=(1.5e-3, 1.5e-3, 2.4e-3),
            kd=(6.8e-4, 6.8e-4, 9.5e-4),
            ki=ki,
            integral_limit=0.05,
        ),
        altitude=PIDGains(kp=(2.4e-3,), kd=(9.5e-4,), ki=ki[2:], integral_limit=0.5),
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


# Estimates near the setpoint (0, 0, 0.3), and one whose height error makes
# the position loop's force vanish, so that the tick holds its last command.
_HOLD = VehicleState(z=0.3 + WEIGHT / 2.4e-3)
_estimate = st.one_of(
    st.just(_HOLD),
    st.tuples(
        st.tuples(*[st.floats(-0.5, 0.5)] * 3),
        st.tuples(*[st.floats(-1.0, 1.0)] * 3),
        _quaternion,
        st.tuples(*[st.floats(-10.0, 10.0)] * 3),
    ).map(lambda s: VehicleState(0.0, s[0][0], s[0][1], s[0][2] + 0.3, *s[1], *s[2], *s[3])),
)


@given(
    st.sampled_from(FlightController.MODES),
    st.booleans(),
    st.lists(st.tuples(_estimate, st.floats(-4.0, 4.0)), min_size=1, max_size=12),
    st.data(),
)
def test_a_fresh_controller_given_the_memory_continues_bit_for_bit(
    mode, yaw_feedback, ticks, data
):
    """``memory`` and ``last_command`` are the controller's whole state: a
    fresh controller handed another's at tick k commands the same from
    there on, held ticks included."""
    ki = (2e-4, 2e-4, 1e-4)
    sp = Setpoint(position=(0.0, 0.0, 0.3))
    k = data.draw(st.integers(0, len(ticks)))
    a = flight_controller(mode, yaw_feedback, ki)
    for est, yaw in ticks[:k]:
        a.tick(est, yaw, sp, 5e-4)
    b = flight_controller(mode, yaw_feedback, ki)
    b.memory, b.last_command = a.memory, a.last_command
    for est, yaw in ticks[k:]:
        got, want = b.tick(est, yaw, sp, 5e-4), a.tick(est, yaw, sp, 5e-4)
        assert oracles.bits(got.amplitudes) == oracles.bits(want.amplitudes)
        assert got.saturated == want.saturated
        assert oracles.bits(b.memory[0]) == oracles.bits(a.memory[0])


# Estimate components: ordinary values, signed zeros, subnormals and NaN.
_component = st.one_of(
    st.floats(-1.0, 1.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.nan]),
)
_odd_estimate = st.tuples(*[_component] * 14).map(lambda s: VehicleState(*s))


def _integral(limit: float):
    """Integrals at, inside and past +-limit, signed zeros and NaN."""
    edges = [limit, -limit, math.nextafter(limit, math.inf), -2.0 * limit]
    return st.one_of(
        st.sampled_from([*edges, 0.0, -0.0, 5e-324, math.nan]),
        st.floats(-2.0 * limit, 2.0 * limit),
    )


@st.composite
def _memory(draw, mode):
    """None, or an ``(integral, e_prev)`` of the mode's axis count."""
    if draw(st.booleans()):
        return None
    n, limit = (3, 0.05) if mode == "position-hold" else (1, 0.5)
    integral = draw(st.tuples(*[_integral(limit)] * n))
    return integral, draw(st.tuples(*[_component] * n))


def tick_outcome(tick, ctrl, est, yaw, sp):
    """The command's amplitude bits, flags and whether it is the held
    ``last_command`` itself, or the error raised; then the memory's bits."""
    before = ctrl.last_command
    try:
        cmd = tick(ctrl, est, yaw, sp, 5e-4)
    except (ValueError, OverflowError) as e:
        outcome = type(e), str(e)
    else:
        outcome = nan_bits(cmd.amplitudes), cmd.saturated, cmd is before
    memory = ctrl.memory
    return outcome, memory and (nan_bits(memory[0]), nan_bits(memory[1]))


@given(
    st.sampled_from(FlightController.MODES).flatmap(
        lambda mode: st.tuples(st.just(mode), _memory(mode))
    ),
    st.booleans(),
    st.lists(
        st.tuples(
            st.one_of(_estimate, _odd_estimate),
            st.one_of(st.floats(-4.0, 4.0), st.floats()),
        ),
        min_size=1,
        max_size=8,
    ),
)
@example(("position-hold", None), False, [(_HOLD, 0.0), (_HOLD, 0.0)])
@example(("position-hold", ((0.05, -0.05, -0.0), (0.0, -0.0, 0.0))), True, [(_HOLD, 0.0)])
@example(("altitude-attitude", ((-0.0,), (-0.0,))), True, [(VehicleState(z=0.3), -0.0)])
# The error quaternion's m = +-0.0 (q_d the identity, q a half turn about x):
# the sign rule must take sign(0) = +1 for both zeros, not only for +0.0.
@example(("altitude-attitude", None), True, [
    (VehicleState(z=0.3, qw=-0.0, qx=-1.0, qy=-0.0, qz=-0.0), 0.0),
    (VehicleState(z=0.3, qw=0.0, qx=1.0), 0.0),
])
# Two ticks where a square taken as v**2 instead of v*v changed the wrench.
# The first did so in the norm of the inverse that the conjugate replaced;
# in the second, the error quaternion's norm m**2 + ... is not m*m + ..., so
# it holds the tick's squares to Quaternion.norm's.
@example(("position-hold", None), True, [(VehicleState(
    0.0, -0.09561950771363417, -0.04728890107158761, 0.3054118227792468, 0.0, 0.0, 0.0,
    -0.3622378120497935, -0.8888183226386154, -0.18113960595199793, -0.21441595094304863,
), 1.9351874354609713)])
@example(("position-hold", None), True, [(VehicleState(
    0.0, 0.017435355829353336, 0.02566790547850889, 0.3540825049623304, 0.0, 0.0, 0.0,
    -0.634554655234175, 0.07609999123316691, 0.4801646017620379, -0.6008253790159441,
), 2.080402991683167)])
def test_tick_matches_the_reference_tick(mode_memory, yaw_feedback, ticks):
    """The written-out tick equals ``oracles.reference_tick`` tick after
    tick: the amplitudes' bits, the flags, the memory's bits, the held
    ``last_command`` itself, or the error raised, and the bits of every
    wrench it allocates, signed zeros included.  NaN is compared as NaN."""
    mode, memory = mode_memory
    sp = Setpoint(position=(0.0, 0.0, 0.3))
    ki = (2e-4, 2e-4, 1e-4)
    got, want = (flight_controller(mode, yaw_feedback, ki) for _ in range(2))
    got.memory = want.memory = memory
    wrenches = {control: [], oracles: []}

    def recorded(module):
        allocate = module.allocate

        def wrapper(wing, wrench):
            wrenches[module].append(nan_bits([wrench.thrust, *wrench.torque]))
            return allocate(wing, wrench)

        return patch.object(module, "allocate", wrapper)

    with recorded(control), recorded(oracles):
        for est, yaw in ticks:
            assert tick_outcome(FlightController.tick, got, est, yaw, sp) == tick_outcome(
                oracles.reference_tick, want, est, yaw, sp
            )
    assert wrenches[control] == wrenches[oracles]


@pytest.mark.parametrize("name", ["position_hold.cfg", "position_sat.cfg", "hover.cfg"])
def test_tick_matches_the_reference_tick_along_a_run(name, monkeypatch):
    """On every tick of the bundled run, a second controller driven by
    ``oracles.reference_tick`` commands the same bytes and memory."""
    tick = FlightController.tick
    shadows, count = {}, [0]
    pack = struct.Struct("4d").pack

    def checked_tick(ctrl, est, yaw, sp, dt):
        shadow = shadows.setdefault(id(ctrl), copy.copy(ctrl))
        held_got, held_want = ctrl.last_command, shadow.last_command
        want = oracles.reference_tick(shadow, est, yaw, sp, dt)
        got = tick(ctrl, est, yaw, sp, dt)
        assert pack(*got.amplitudes) == pack(*want.amplitudes)
        assert got.saturated == want.saturated
        assert (got is held_got) == (want is held_want)
        assert oracles.bits(sum(ctrl.memory, ())) == oracles.bits(sum(shadow.memory, ()))
        count[0] += 1
        return got

    monkeypatch.setattr(FlightController, "tick", checked_tick)
    rec = scenarios.run_scenario(load_config(bundled_config_path(name)))
    assert rec.status == 0 and count[0] == len(rec.rows) > 1000


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
