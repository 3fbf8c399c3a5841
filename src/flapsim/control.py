"""Attitude, position and altitude flight controllers.

The attitude law is a quaternion PD controller.  With the error quaternion
q_e = q_d^-1 * q (scalar part m_e, vector part n_e) the commanded body torque
is

    tau = -K1 sign(m_e) n_e - K2 omega

sign(m_e) selects the short way around: -sign(m_e) n_e equals
sin(theta_e / 2) a_e for the error rotation of angle theta_e about axis a_e,
so the restoring torque always turns through at most 180 deg.  Both quaternion
representatives of the same attitude command the same torque.

The position loop is a PID with gravity feedforward toward a fixed setpoint,

    f_d = -Kp e - Kd rdot - Ki int(e) + m g n3 ,

whose output force vector is realized by tilting: the desired body z axis is
aligned with f_d while a reference heading fixes the rotation about it, and
the scalar thrust is the projection of f_d onto the current body z axis.

A reduced altitude-only mode regulates height with a scalar PID while the
attitude target is pure yaw, which is how the vehicle flies before lateral
position feedback is enabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .aero import ActuatorCommand, Wrench, allocate
from .dynamics import VehicleState
from .spatial import Quaternion, _euler_zyx, _shepperd, quat_error, sign
# Unused here since desired_attitude calls _shepperd; the per-layer trace of
# perfbench/run.py wraps control.rotmat_to_quat, so the name stays.
from .spatial import rotmat_to_quat  # noqa: F401

if TYPE_CHECKING:  # config imports this module
    from .config import ControlParams, VehicleParams

__all__ = [
    "ControlError",
    "DegenerateThrust",
    "DegenerateYaw",
    "AttitudeGains",
    "PositionGains",
    "AltitudeGains",
    "Setpoint",
    "attitude_torque",
    "thrust_magnitude",
    "desired_attitude",
    "PositionController",
    "AltitudeController",
    "FlightController",
]

# Below this force norm the desired body z axis is undefined.
_EPS_THRUST = 1e-6
# Below this cross-product norm the heading reference is parallel to f_d.
_EPS_AXIS = 1e-6


class ControlError(Exception):
    """Base class for controller geometry failures."""


class DegenerateThrust(ControlError):
    """Desired force vector too small to define a thrust direction."""


class DegenerateYaw(ControlError):
    """Heading reference nearly parallel to the desired thrust axis."""


@dataclass
class AttitudeGains:
    """Diagonal attitude (K1) and rate (K2) gains, both positive."""

    attitude: tuple[float, float, float]  # [N m]
    rate: tuple[float, float, float]  # [N m s/rad]


@dataclass
class PositionGains:
    kp: tuple[float, float, float]  # [N/m]
    kd: tuple[float, float, float]  # [N s/m]
    ki: tuple[float, float, float]  # [N/(m s)]
    integral_limit: float  # clamp on each integral state [m s]


@dataclass
class AltitudeGains:
    kp: float  # [N/m]
    kd: float  # [N s/m]
    ki: float  # [N/(m s)]
    integral_limit: float  # [m s]


@dataclass
class Setpoint:
    """Reference for the outer loops: a position and a heading."""

    position: tuple[float, float, float]  # [m]
    yaw: float = 0.0


def attitude_torque(
    q: Quaternion, q_desired: Quaternion, omega: tuple[float, ...], gains: AttitudeGains
) -> tuple[float, ...]:
    """Quaternion PD attitude law; see the module docstring."""
    qe = quat_error(q_desired, q)
    s = sign(qe.w)
    return tuple(
        -k1 * (s * v) - k2 * w
        for k1, k2, v, w in zip(gains.attitude, gains.rate, qe[1:], omega)
    )


def thrust_magnitude(f_desired: tuple[float, ...], q: Quaternion) -> float:
    """Project the desired force onto the current body z axis, floored at 0.

    The body z axis is the third column of R(q).  The wings cannot pull, so a
    projection that turns negative (thrust axis pointing away from the
    desired force) commands zero thrust.
    """
    fx, fy, fz = f_desired
    w, x, y, z = q
    projection = (
        fx * (2.0 * (x * z + w * y))
        + fy * (2.0 * (y * z - w * x))
        + fz * (1.0 - 2.0 * (x * x + y * y))
    )
    return max(0.0, projection)


def desired_attitude(f_desired: tuple[float, ...], yaw_desired: float) -> Quaternion:
    """Attitude whose body z axis carries f_desired at the reference heading.

    The desired z axis i3 is f_desired normalized.  The desired x axis is
    i1 = h x i3 normalized, with the heading vector h = [-sin(yaw), cos(yaw), 0]
    (the desired body y axis projected onto the horizontal plane), so the
    rotation about the thrust axis is fixed by the yaw reference; i2 = i3 x i1
    completes the frame (Lee, Leok & McClamroch, CDC 2010).  The frame is
    orthonormal by construction, so it goes to Shepperd's branch unchecked.

    Raises DegenerateThrust when |f_desired| is too small and DegenerateYaw
    when the heading reference is parallel to the thrust axis (pitch or roll
    near 90 deg), where the construction loses rank.
    """
    fx, fy, fz = f_desired
    norm_f = math.sqrt(fx * fx + fy * fy + fz * fz)
    if norm_f <= _EPS_THRUST:
        raise DegenerateThrust(f"|f_desired| = {norm_f:.3e} defines no thrust axis")
    zx, zy, zz = fx / norm_f, fy / norm_f, fz / norm_f
    hx, hy = -math.sin(yaw_desired), math.cos(yaw_desired)
    # i1 = h x i3 with h_z = 0.
    xx, xy, xz = hy * zz, -hx * zz, hx * zy - hy * zx
    norm_x = math.sqrt(xx * xx + xy * xy + xz * xz)
    if norm_x <= _EPS_AXIS:
        raise DegenerateYaw("heading reference parallel to the thrust axis")
    xx, xy, xz = xx / norm_x, xy / norm_x, xz / norm_x
    # i2 = i3 x i1.
    yx, yy, yz = zy * xz - zz * xy, zz * xx - zx * xz, zx * xy - zy * xx
    return _shepperd(xx, yx, zx, xy, yy, zy, xz, yz, zz)


class _Integrator:
    """Trapezoid-rule integrator with symmetric clamping of the state.

    The state starts at zero, sized like the first error.
    """

    def __init__(self, limit: float) -> None:
        self.limit = float(limit)
        self.value: tuple[float, ...] | None = None
        self._prev: tuple[float, ...] | None = None

    def advance(self, error: tuple[float, ...], dt: float) -> tuple[float, ...]:
        if self._prev is None:
            self._prev, self.value = error, (0.0,) * len(error)
        h, limit = 0.5 * dt, self.limit
        self.value = tuple(
            min(max(v + h * (p + e), -limit), limit)
            for v, p, e in zip(self.value, self._prev, error)
        )
        self._prev = error
        return self.value


class PositionController:
    """PID position loop producing the desired inertial force vector."""

    def __init__(self, gains: PositionGains, mass: float, gravity: float) -> None:
        self.gains = gains
        self.mass = float(mass)
        self.gravity = float(gravity)
        self._integ = _Integrator(gains.integral_limit)

    def force(self, state: VehicleState, sp: Setpoint, dt: float) -> tuple[float, ...]:
        e = tuple(r - r_sp for r, r_sp in zip(state[1:4], sp.position))
        integ = self._integ.advance(e, dt)
        g = self.gains
        fx, fy, fz = (
            -kp * ek - kd * v - ki * i
            for kp, kd, ki, ek, v, i in zip(g.kp, g.kd, g.ki, e, state[4:7], integ)
        )
        # The + 0.0 is on purpose: it turns a -0.0 in x or y into +0.0, and
        # the recorded runs depend on that sign.
        return fx + 0.0, fy + 0.0, fz + self.mass * self.gravity


class AltitudeController:
    """Scalar PID on height with gravity feedforward."""

    def __init__(self, gains: AltitudeGains, mass: float, gravity: float) -> None:
        self.gains = gains
        self.mass = float(mass)
        self.gravity = float(gravity)
        self._integ = _Integrator(gains.integral_limit)

    def thrust(self, z: float, zdot: float, z_ref: float, dt: float) -> float:
        e = z - z_ref
        (integ,) = self._integ.advance((e,), dt)
        return (
            -self.gains.kp * e
            - self.gains.kd * zdot
            - self.gains.ki * integ
            + self.mass * self.gravity
        )


class FlightController:
    """Cascaded controller producing per-wing commands once per tick.

    ``mode`` selects the outer loop:

    * ``"altitude-attitude"``: scalar height PID; the attitude target is the
      measured yaw, so roll and pitch are regulated to zero and heading is
      left to drift.
    * ``"position-hold"``: full position PID with tilt allocation; the yaw
      reference tracks the measured yaw.

    The gains come from ``control``, the config's control section.  Unless
    ``control.yaw_feedback`` is set, the yaw command is zeroed after the
    attitude law, leaving heading to the passive damping of the wings.  When
    the thrust-axis construction degenerates the previous command is held
    for one tick.
    """

    def __init__(
        self, vehicle: VehicleParams, control: ControlParams, mode: str
    ) -> None:
        if mode not in ("altitude-attitude", "position-hold"):
            raise ValueError(f"unknown controller mode {mode!r}")
        self.wing = vehicle.wing
        self.attitude_gains = control.attitude
        self.mode = mode
        self.yaw_feedback = control.yaw_feedback
        m, g = vehicle.mass, vehicle.gravity
        self.position = PositionController(control.position, m, g)
        self.altitude = AltitudeController(control.altitude, m, g)
        self.last_command = ActuatorCommand((0.0, 0.0, 0.0, 0.0))
        # The attitude and yaw of the last feedback: the run loop holds the
        # estimate, so it stays the same object until the next measurement.
        self._feedback: VehicleState | None = None

    def tick(self, est: VehicleState, sp: Setpoint, dt: float) -> ActuatorCommand:
        if est is not self._feedback:
            self._feedback = est
            self._q = Quaternion(*est[7:11])
            self._yaw = _euler_zyx(*est[7:11])[2]
        q, yaw = self._q, self._yaw
        try:
            if self.mode == "position-hold":
                f_d = self.position.force(est, sp, dt)
                thrust = thrust_magnitude(f_d, q)
                q_d = desired_attitude(f_d, yaw)
            else:
                thrust = self.altitude.thrust(est.z, est.vz, sp.position[2], dt)
                q_d = Quaternion.from_yaw(yaw)
        except ControlError:
            return self.last_command

        tau = attitude_torque(q, q_d, est[11:], self.attitude_gains)
        if not self.yaw_feedback:
            tau = (tau[0], tau[1], 0.0)

        command = allocate(self.wing, Wrench(thrust, tau))
        self.last_command = command
        return command
