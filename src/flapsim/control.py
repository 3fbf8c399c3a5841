"""Attitude and outer-loop flight controllers.

The attitude law is a quaternion PD controller.  With the error quaternion
q_e = q_d^-1 * q (scalar part m_e, vector part n_e) the commanded body torque
is

    tau = -K1 sign(m_e) n_e - K2 omega

sign(m_e) selects the short way around: -sign(m_e) n_e equals
sin(theta_e / 2) a_e for the error rotation of angle theta_e about axis a_e,
so the restoring torque always turns through at most 180 deg.  Both quaternion
representatives of the same attitude command the same torque.

Both outer loops run one per-axis PID with gravity feedforward toward a fixed
setpoint,

    f_d = -Kp e - Kd rdot - Ki int(e) + m g n3 ,   e = r - r_sp .

The position loop runs it on three axes and realizes the force vector by
tilting: the desired body z axis is aligned with f_d while a reference
heading fixes the rotation about it, and the scalar thrust is the projection
of f_d onto the current body z axis.  Where f_d gives no thrust axis or no
heading, ``desired_attitude`` is None and the tick holds its last command.
The altitude loop is the same PID on the z axis alone, with pure yaw as the
attitude target (it never holds), which is how the vehicle flies before
lateral position feedback is enabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub
from typing import TYPE_CHECKING

from .aero import ActuatorCommand, Wrench, allocate
from .dynamics import VehicleState
from .spatial import Quaternion, _shepperd, quat_error, sign
# Unused here since desired_attitude calls _shepperd; the per-layer trace of
# perfbench/run.py wraps control.rotmat_to_quat, so the name stays.
from .spatial import rotmat_to_quat  # noqa: F401

if TYPE_CHECKING:  # config imports this module
    from .config import ControlParams, VehicleParams

__all__ = [
    "AttitudeGains",
    "PIDGains",
    "Setpoint",
    "attitude_torque",
    "thrust_magnitude",
    "desired_attitude",
    "PID",
    "FlightController",
]

# Below this force norm the desired body z axis is undefined.
_EPS_THRUST = 1e-6
# Below this cross-product norm the heading reference is parallel to f_d.
_EPS_AXIS = 1e-6


@dataclass
class AttitudeGains:
    """Diagonal attitude (K1) and rate (K2) gains, both positive."""

    attitude: tuple[float, float, float]  # [N m]
    rate: tuple[float, float, float]  # [N m s/rad]


@dataclass
class PIDGains:
    """Per-axis outer-loop gains: 3-tuples for position, 1-tuples for altitude."""

    kp: tuple[float, ...]  # [N/m]
    kd: tuple[float, ...]  # [N s/m]
    ki: tuple[float, ...]  # [N/(m s)]
    integral_limit: float  # clamp on each integral state [m s]


@dataclass
class Setpoint:
    """Reference for the outer loops: a position and a heading."""

    position: tuple[float, float, float]  # [m]
    yaw: float = 0.0


def attitude_torque(
    q: Quaternion, q_desired: Quaternion, omega: tuple[float, ...], gains: AttitudeGains
) -> tuple[float, ...]:
    """Quaternion PD attitude law; see the module docstring."""
    ew, ex, ey, ez = quat_error(q_desired, q)
    s = sign(ew)
    k1x, k1y, k1z = gains.attitude
    k2x, k2y, k2z = gains.rate
    wx, wy, wz = omega
    return (
        -k1x * (s * ex) - k2x * wx,
        -k1y * (s * ey) - k2y * wy,
        -k1z * (s * ez) - k2z * wz,
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


def desired_attitude(
    f_desired: tuple[float, ...], yaw_desired: float
) -> Quaternion | None:
    """Attitude whose body z axis carries f_desired at the reference heading.

    The desired z axis i3 is f_desired normalized.  The desired x axis is
    i1 = h x i3 normalized, with the heading vector h = [-sin(yaw), cos(yaw), 0]
    (the desired body y axis projected onto the horizontal plane), so the
    rotation about the thrust axis is fixed by the yaw reference; i2 = i3 x i1
    completes the frame (Lee, Leok & McClamroch, CDC 2010).  The frame is
    orthonormal by construction, so it goes to Shepperd's branch unchecked.

    Returns None where the construction loses rank: when |f_desired| is too
    small to define a thrust axis, or when the heading reference is parallel
    to the thrust axis (pitch or roll near 90 deg).
    """
    fx, fy, fz = f_desired
    norm_f = math.sqrt(fx * fx + fy * fy + fz * fz)
    if norm_f <= _EPS_THRUST:
        return None
    zx, zy, zz = fx / norm_f, fy / norm_f, fz / norm_f
    hx, hy = -math.sin(yaw_desired), math.cos(yaw_desired)
    # i1 = h x i3 with h_z = 0.
    xx, xy, xz = hy * zz, -hx * zz, hx * zy - hy * zx
    norm_x = math.sqrt(xx * xx + xy * xy + xz * xz)
    if norm_x <= _EPS_AXIS:
        return None
    xx, xy, xz = xx / norm_x, xy / norm_x, xz / norm_x
    # i2 = i3 x i1.
    yx, yy, yz = zy * xz - zz * xy, zz * xx - zx * xz, zx * xy - zy * xx
    return _shepperd(xx, yx, zx, xy, yy, zy, xz, yz, zz)


class PID:
    """Per-axis PID force -kp e - kd rdot - ki int(e) with e = r - r_sp.

    ``integral`` is the trapezoid-rule integral of e, clamped symmetrically
    at ``gains.integral_limit``; it starts at zero, one entry per gain.
    """

    def __init__(self, gains: PIDGains) -> None:
        self.gains = gains
        self.integral: tuple[float, ...] = (0.0,) * len(gains.kp)
        self._e_prev: tuple[float, ...] | None = None

    def force(
        self,
        r: tuple[float, ...],
        rdot: tuple[float, ...],
        r_sp: tuple[float, ...],
        dt: float,
    ) -> tuple[float, ...]:
        e = tuple(map(sub, r, r_sp))
        e_prev = e if self._e_prev is None else self._e_prev
        g, h = self.gains, 0.5 * dt
        limit = g.integral_limit
        integral, f = [], []
        # One loop over the axes: cheaper than a comprehension per quantity.
        for kp, kd, ki, ek, v, p, i in zip(
            g.kp, g.kd, g.ki, e, rdot, e_prev, self.integral
        ):
            i = min(max(i + h * (p + ek), -limit), limit)
            integral.append(i)
            f.append(-kp * ek - kd * v - ki * i)
        self.integral, self._e_prev = tuple(integral), e
        return tuple(f)


class FlightController:
    """Cascaded controller producing per-wing commands once per tick.

    ``mode`` selects the outer loop, one of ``MODES``:

    * ``"altitude-attitude"``: the PID on height alone; the attitude target
      is pure yaw at the ``yaw`` argument, so roll and pitch are regulated
      to zero and heading is left to drift.
    * ``"position-hold"``: the PID on all three axes with tilt allocation;
      the heading reference is the ``yaw`` argument.

    ``tick`` reads the attitude as ``est[7:11]``; ``yaw`` is the heading of
    that attitude, which the caller has already extracted.

    The gains come from ``control``, the config's control section.  Unless
    ``control.yaw_feedback`` is set, the yaw command is zeroed after the
    attitude law, leaving heading to the passive damping of the wings.  On a
    tick where ``desired_attitude`` returns None the PID has still advanced,
    and ``tick`` returns ``last_command`` itself, held for one tick.
    """

    MODES = ("altitude-attitude", "position-hold")

    def __init__(
        self, vehicle: VehicleParams, control: ControlParams, mode: str
    ) -> None:
        if mode not in self.MODES:
            raise ValueError(f"unknown controller mode {mode!r}")
        self.wing = vehicle.wing
        self.attitude_gains = control.attitude
        self.mode = mode
        self.yaw_feedback = control.yaw_feedback
        self.weight = vehicle.weight
        self.pid = PID(
            control.position if mode == "position-hold" else control.altitude
        )
        self.last_command = ActuatorCommand((0.0, 0.0, 0.0, 0.0))

    def tick(
        self, est: VehicleState, yaw: float, sp: Setpoint, dt: float
    ) -> ActuatorCommand:
        q = est[7:11]
        if self.mode == "position-hold":
            fx, fy, fz = self.pid.force(est[1:4], est[4:7], sp.position, dt)
            # The + 0.0 is on purpose: it turns a -0.0 in x or y into
            # +0.0, and the recorded runs depend on that sign.
            f_d = (fx + 0.0, fy + 0.0, fz + self.weight)
            q_d = desired_attitude(f_d, yaw)
            if q_d is None:
                return self.last_command
            thrust = thrust_magnitude(f_d, q)
        else:
            (fz,) = self.pid.force(est[3:4], est[6:7], sp.position[2:], dt)
            thrust = fz + self.weight
            q_d = Quaternion.from_yaw(yaw)

        tau = attitude_torque(q, q_d, est[11:], self.attitude_gains)
        if not self.yaw_feedback:
            tau = (tau[0], tau[1], 0.0)

        command = allocate(self.wing, Wrench(thrust, tau))
        self.last_command = command
        return command
