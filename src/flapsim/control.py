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

import numpy as np

from .aero import ActuatorCommand, WingConfig, Wrench, allocate
from .dynamics import VehicleState
from .spatial import Quaternion, quat_error, rotmat_to_quat, sign

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

    attitude: np.ndarray  # (3,) [N m]
    rate: np.ndarray  # (3,) [N m s/rad]


@dataclass
class PositionGains:
    kp: np.ndarray  # (3,) [N/m]
    kd: np.ndarray  # (3,) [N s/m]
    ki: np.ndarray  # (3,) [N/(m s)]
    integral_limit: float = 1.0  # clamp on each integral state [m s]


@dataclass
class AltitudeGains:
    kp: float  # [N/m]
    kd: float  # [N s/m]
    ki: float  # [N/(m s)]
    integral_limit: float = 1.0  # [m s]


@dataclass
class Setpoint:
    """Reference for the outer loops: a position and a heading."""

    position: np.ndarray
    yaw: float = 0.0


def attitude_torque(
    q: Quaternion, q_desired: Quaternion, omega: np.ndarray, gains: AttitudeGains
) -> np.ndarray:
    """Quaternion PD attitude law; see the module docstring."""
    qe = quat_error(q_desired, q)
    return -gains.attitude * (sign(qe.w) * qe.vector) - gains.rate * omega


def thrust_magnitude(f_desired: np.ndarray, q: Quaternion) -> float:
    """Project the desired force onto the current body z axis, floored at 0.

    The wings cannot pull, so a projection that turns negative (thrust axis
    pointing away from the desired force) commands zero thrust.
    """
    b3 = q.rotate(np.array([0.0, 0.0, 1.0]))
    return max(0.0, float(f_desired @ b3))


def desired_attitude(f_desired: np.ndarray, yaw_desired: float) -> Quaternion:
    """Attitude whose body z axis carries f_desired at the reference heading.

    The desired z axis is f_desired normalized.  The desired x axis is built
    from the heading vector [-sin(yaw), cos(yaw), 0] (the desired body y axis
    projected onto the horizontal plane) so the rotation about the thrust
    axis is fixed by the yaw reference.

    Raises DegenerateThrust when |f_desired| is too small and DegenerateYaw
    when the heading reference is parallel to the thrust axis (pitch or roll
    near 90 deg), where the construction loses rank.
    """
    norm_f = float(np.linalg.norm(f_desired))
    if norm_f <= _EPS_THRUST:
        raise DegenerateThrust(f"|f_desired| = {norm_f:.3e} defines no thrust axis")
    i3 = np.asarray(f_desired, dtype=float) / norm_f
    heading = np.array([-math.sin(yaw_desired), math.cos(yaw_desired), 0.0])
    i1 = np.cross(heading, i3)
    norm_i1 = float(np.linalg.norm(i1))
    if norm_i1 <= _EPS_AXIS:
        raise DegenerateYaw("heading reference parallel to the thrust axis")
    i1 /= norm_i1
    i2 = np.cross(i3, i1)
    return rotmat_to_quat(np.column_stack([i1, i2, i3]))


class _Integrator:
    """Trapezoid-rule integrator with symmetric clamping of the state."""

    def __init__(self, size: int, limit: float) -> None:
        self.value = np.zeros(size)
        self.limit = float(limit)
        self._prev: np.ndarray | None = None

    def advance(self, error: np.ndarray, dt: float) -> np.ndarray:
        error = np.asarray(error, dtype=float)
        prev = error if self._prev is None else self._prev
        self.value = np.clip(
            self.value + 0.5 * dt * (prev + error), -self.limit, self.limit
        )
        self._prev = error
        return self.value


class PositionController:
    """PID position loop producing the desired inertial force vector."""

    def __init__(self, gains: PositionGains, mass: float, gravity: float) -> None:
        self.gains = gains
        self.mass = float(mass)
        self.gravity = float(gravity)
        self._integ = _Integrator(3, gains.integral_limit)

    def force(self, state: VehicleState, sp: Setpoint, dt: float) -> np.ndarray:
        e = state.position - sp.position
        integ = self._integ.advance(e, dt)
        f = -self.gains.kp * e - self.gains.kd * state.velocity - self.gains.ki * integ
        # A vector sum on purpose: it turns a -0.0 in x or y into +0.0, and
        # the recorded runs depend on that sign.
        return f + self.mass * self.gravity * np.array([0.0, 0.0, 1.0])


class AltitudeController:
    """Scalar PID on height with gravity feedforward."""

    def __init__(self, gains: AltitudeGains, mass: float, gravity: float) -> None:
        self.gains = gains
        self.mass = float(mass)
        self.gravity = float(gravity)
        self._integ = _Integrator(1, gains.integral_limit)

    def thrust(self, z: float, zdot: float, z_ref: float, dt: float) -> float:
        e = z - z_ref
        integ = self._integ.advance(np.array([e]), dt)[0]
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

    Yaw torque feedback is disabled by default (``yaw_feedback=False``): the
    yaw command is zeroed after the attitude law, leaving heading to the
    passive damping of the wings.  When the thrust-axis construction
    degenerates the previous command is held for one tick.
    """

    def __init__(
        self,
        wing: WingConfig,
        attitude_gains: AttitudeGains,
        position_gains: PositionGains,
        altitude_gains: AltitudeGains,
        mass: float,
        gravity: float,
        mode: str = "altitude-attitude",
        yaw_feedback: bool = False,
    ) -> None:
        if mode not in ("altitude-attitude", "position-hold"):
            raise ValueError(f"unknown controller mode {mode!r}")
        self.wing = wing
        self.attitude_gains = attitude_gains
        self.mode = mode
        self.yaw_feedback = yaw_feedback
        self.position = PositionController(position_gains, mass, gravity)
        self.altitude = AltitudeController(altitude_gains, mass, gravity)
        self.last_command = ActuatorCommand(amplitudes=np.zeros(4))
        self.last_wrench = Wrench(0.0, np.zeros(3))

    def tick(self, est: VehicleState, sp: Setpoint, dt: float) -> ActuatorCommand:
        _, _, yaw = est.attitude.to_euler_zyx()
        try:
            if self.mode == "position-hold":
                f_d = self.position.force(est, sp, dt)
                thrust = thrust_magnitude(f_d, est.attitude)
                q_d = desired_attitude(f_d, yaw)
            else:
                thrust = self.altitude.thrust(
                    est.position[2], est.velocity[2], sp.position[2], dt
                )
                q_d = Quaternion.from_yaw(yaw)
        except ControlError:
            return self.last_command

        tau = attitude_torque(est.attitude, q_d, est.omega, self.attitude_gains)
        if not self.yaw_feedback:
            tau[2] = 0.0

        wrench = Wrench(thrust, tau)
        command = allocate(self.wing, wrench)
        self.last_command = command
        self.last_wrench = wrench
        return command
