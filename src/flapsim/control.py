"""Attitude and outer-loop flight controllers.

The attitude law is a quaternion PD controller.  With the unit error
quaternion q_e = q_d^-1 * q (scalar part m_e, vector part n_e) the commanded
body torque is

    tau = -K1 sign(m_e) n_e - K2 omega ,   sign(0) = +1 .

sign(m_e) selects the short way around: -sign(m_e) n_e equals
sin(theta_e / 2) a_e for the error rotation of angle theta_e about axis a_e,
so the restoring torque always turns through at most 180 deg.  Both quaternion
representatives of the same attitude command the same torque.

The tick forms q_e as the normalized product q_d* q with the conjugate
q_d* = (w, -x, -y, -z).  The inverse is q_d^-1 = q_d* / |q_d|^2, and the
positive factor 1 / |q_d|^2 cancels in the normalization, so the conjugate
gives the same unit q_e without dividing by the norm first.

Both outer loops run a per-axis PID with gravity feedforward toward a fixed
setpoint,

    f_d = -Kp e - Kd rdot - Ki int(e) + m g n3 ,   e = r - r_sp ,

where int(e) is the trapezoid rule over e, clamped symmetrically at the
integral limit.  ``FlightController.tick`` computes it, written out per axis
like the rest of the tick, from ``FlightController.memory``: the tuple
``(integral, e_prev)`` it holds between ticks, None before the first.

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
from typing import TYPE_CHECKING

from .aero import ActuatorCommand, Wrench, allocate
from .dynamics import VehicleState
from .spatial import Quaternion, _shepperd
# Unused here since desired_attitude calls _shepperd; the per-layer trace of
# perfbench/run.py wraps control.rotmat_to_quat, so the name stays.
from .spatial import rotmat_to_quat  # noqa: F401

if TYPE_CHECKING:  # config imports this module
    from .config import ControlParams, VehicleParams

__all__ = [
    "AttitudeGains",
    "PIDGains",
    "Setpoint",
    "desired_attitude",
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
    ``memory`` and ``last_command`` are the controller's whole state between
    ticks.
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
        self.pid_gains = (
            control.position if mode == "position-hold" else control.altitude
        )
        self.memory: tuple | None = None  # the PID's (integral, e_prev)
        self.last_command = ActuatorCommand((0.0, 0.0, 0.0, 0.0))

    def tick(
        self, est: VehicleState, yaw: float, sp: Setpoint, dt: float
    ) -> ActuatorCommand:
        _, x, y, z, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = est
        gains = self.pid_gains
        h, limit = 0.5 * dt, gains.integral_limit
        if self.mode == "position-hold":
            spx, spy, spz = sp.position
            ex, ey, ez = x - spx, y - spy, z - spz
            if self.memory is None:
                ix = iy = iz = 0.0
                px, py, pz = ex, ey, ez
            else:
                (ix, iy, iz), (px, py, pz) = self.memory
            # The trapezoid rule, clamped by comparisons in min(max(i, -limit),
            # limit)'s order, which keeps its NaN and signed zeros.
            ix = ix + h * (px + ex)
            if -limit > ix:
                ix = -limit
            if limit < ix:
                ix = limit
            iy = iy + h * (py + ey)
            if -limit > iy:
                iy = -limit
            if limit < iy:
                iy = limit
            iz = iz + h * (pz + ez)
            if -limit > iz:
                iz = -limit
            if limit < iz:
                iz = limit
            self.memory = ((ix, iy, iz), (ex, ey, ez))
            kpx, kpy, kpz = gains.kp
            kdx, kdy, kdz = gains.kd
            kix, kiy, kiz = gains.ki
            fx = -kpx * ex - kdx * vx - kix * ix
            fy = -kpy * ey - kdy * vy - kiy * iy
            fz = (-kpz * ez - kdz * vz - kiz * iz) + self.weight
            q_d = desired_attitude((fx, fy, fz), yaw)
            if q_d is None:
                return self.last_command
            dw, dx, dy, dz = q_d
            # The desired force projected onto the body z axis, the third
            # column of R(q), floored at 0: the wings cannot pull.
            thrust = (
                fx * (2.0 * (qx * qz + qw * qy))
                + fy * (2.0 * (qy * qz - qw * qx))
                + fz * (1.0 - 2.0 * (qx * qx + qy * qy))
            )
            thrust = thrust if thrust > 0.0 else 0.0
        else:
            ez = z - sp.position[2]
            if self.memory is None:
                iz, pz = 0.0, ez
            else:
                (iz,), (pz,) = self.memory
            iz = iz + h * (pz + ez)
            if -limit > iz:
                iz = -limit
            if limit < iz:
                iz = limit
            self.memory = ((iz,), (ez,))
            (kpz,), (kdz,), (kiz,) = gains.kp, gains.kd, gains.ki
            thrust = (-kpz * ez - kdz * vz - kiz * iz) + self.weight
            dw, dx, dy, dz = math.cos(0.5 * yaw), 0.0, 0.0, math.sin(0.5 * yaw)

        # The error quaternion q_e = q_d* q with the conjugate, Quaternion's
        # product and its normalisation written out.
        dx, dy, dz = -dx, -dy, -dz
        m = dw * qw - dx * qx - dy * qy - dz * qz
        nx = dw * qx + dx * qw + dy * qz - dz * qy
        ny = dw * qy - dx * qz + dy * qw + dz * qx
        nz = dw * qz + dx * qy - dy * qx + dz * qw
        n = math.sqrt(m * m + nx * nx + ny * ny + nz * nz)
        if n < 1e-12:
            raise ValueError("cannot normalize a near-zero quaternion")
        s = 1.0 if m / n >= 0.0 else -1.0
        k1x, k1y, k1z = self.attitude_gains.attitude
        k2x, k2y, k2z = self.attitude_gains.rate
        tx = -k1x * (s * (nx / n)) - k2x * wx
        ty = -k1y * (s * (ny / n)) - k2y * wy
        tz = -k1z * (s * (nz / n)) - k2z * wz if self.yaw_feedback else 0.0

        command = allocate(self.wing, Wrench(thrust, (tx, ty, tz)))
        self.last_command = command
        return command
