"""Rigid-body flight dynamics integrated at a fixed step with RK4.

State of the vehicle: inertial position r and velocity v, unit quaternion q
mapping body to inertial coordinates, and body angular rate omega.  The
translational and rotational balances are

    m rdd  = -m g n3 + f R(q) e3
    J wdot = -w x (J w) + tau + tau_passive(t)

where f is the total thrust along the body z axis and tau the commanded body
torque.  The body axes are principal axes, so J = diag(J1, J2, J3) is
diagonal and the rotational balance is integrated as Euler's equations, one
axis at a time.  ``tau_passive`` collects two model terms that act on the
airframe regardless of the commanded wrench: a linear passive yaw damping
produced by the flapping wings, and an optional sinusoidal roll/pitch torque
emulating the flapping-induced vibration of the body.

The state is a :class:`VehicleState`, a tuple of 14 floats laid out like the
first 14 columns of a run CSV: ``t, x, y, z, vx, vy, vz, qw, qx, qy, qz, wx,
wy, wz``.  The integrator works on ``state[1:]``, the 13-float rigid-body
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .aero import Wrench
from .spatial import Quaternion

__all__ = [
    "VehicleState",
    "InertialConfig",
    "vibration_torque",
    "step",
]


class VehicleState(NamedTuple):
    """Time and rigid-body state in CSV column order; the defaults are at rest."""

    t: float = 0.0  # [s]
    x: float = 0.0  # r, inertial [m]
    y: float = 0.0
    z: float = 0.0
    vx: float = 0.0  # rdot, inertial [m/s]
    vy: float = 0.0
    vz: float = 0.0
    qw: float = 1.0  # q, body to inertial, scalar first
    qx: float = 0.0
    qy: float = 0.0
    qz: float = 0.0
    wx: float = 0.0  # omega, body rates [rad/s]
    wy: float = 0.0
    wz: float = 0.0


@dataclass
class InertialConfig:
    """Mass properties plus the passive torque terms of the airframe."""

    mass: float  # [kg]
    inertia: tuple[float, float, float]  # principal moments J1, J2, J3 [kg m^2]
    gravity: float = 9.81  # [m/s^2]
    yaw_damping: float = 0.0  # b, passive yaw damping [N m s/rad]
    vibration_amplitude: float = 0.0  # [N m], 0 disables the disturbance
    vibration_frequency: float = 100.0  # [Hz]
    vibration_ramp: float = 0.0  # envelope rise time [s], 0 = full from t=0

    def __post_init__(self) -> None:
        try:
            moments = tuple(float(j) for j in self.inertia)
        except (TypeError, ValueError):  # not a sequence of numbers
            moments = ()
        if len(moments) != 3 or not all(math.isfinite(j) and j > 0.0 for j in moments):
            raise ValueError(
                f"inertia must be three finite, positive principal moments, "
                f"got {self.inertia!r}"
            )
        self.inertia = moments


def vibration_torque(config: InertialConfig, t: float) -> tuple[float, float, float]:
    """Flapping-induced roll/pitch disturbance torque at time ``t``.

    Roll and pitch are driven in quadrature so the wobble sweeps both axes.
    The envelope rises linearly over ``vibration_ramp`` seconds, mirroring
    the wing spin-up; a sinusoid switched on at full amplitude would kick the
    body with a net angular impulse no controller at this scale could absorb.
    """
    if config.vibration_amplitude == 0.0:
        return 0.0, 0.0, 0.0
    amplitude = config.vibration_amplitude
    if config.vibration_ramp > 0.0 and t < config.vibration_ramp:
        amplitude *= t / config.vibration_ramp
    phase = 2.0 * math.pi * config.vibration_frequency * t
    return amplitude * math.sin(phase), amplitude * math.cos(phase), 0.0


def _deriv(y, t: float, u: Wrench, c: InertialConfig) -> tuple[float, ...]:
    """Packed-state derivative; y = [r(3), v(3), q(4), omega(3)] as floats
    and u = (thrust, torque), a Wrench or a plain tuple."""
    _, _, _, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = y
    thrust, (tx, ty, tz) = u

    # Thrust along the third column of R(q), the body z axis in inertial axes.
    f = thrust / c.mass
    ax = f * (2.0 * (qx * qz + qw * qy))
    ay = f * (2.0 * (qy * qz - qw * qx))
    az = f * (1.0 - 2.0 * (qx * qx + qy * qy)) - c.gravity

    # Euler's equations: J_i wdot_i = tau_i - (w x J w)_i.
    px, py, pz = vibration_torque(c, t)
    tx, ty, tz = tx + px, ty + py, tz + pz - c.yaw_damping * wz
    j1, j2, j3 = c.inertia
    hx, hy, hz = j1 * wx, j2 * wy, j3 * wz
    return (
        vx, vy, vz, ax, ay, az,
        0.5 * (-qx * wx - qy * wy - qz * wz),
        0.5 * (qw * wx + qy * wz - qz * wy),
        0.5 * (qw * wy - qx * wz + qz * wx),
        0.5 * (qw * wz + qx * wy - qy * wx),
        (1.0 / j1) * (tx - (wy * hz - wz * hy)),
        (1.0 / j2) * (ty - (wz * hx - wx * hz)),
        (1.0 / j3) * (tz - (wx * hy - wy * hx)),
    )


def step(
    state: VehicleState, wrench: Wrench, config: InertialConfig, dt: float
) -> VehicleState:
    """Advance the state by one RK4 step of length ``dt``.

    The stage sums are evaluated element by element on Python floats, so the
    result does not depend on a BLAS kernel.  The quaternion is renormalized
    after the update so integration error does not accumulate in its norm.
    Raises ValueError on non-finite inputs or a non-positive step.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not all(map(math.isfinite, state)):
        raise ValueError("non-finite vehicle state")
    thrust, torque = wrench
    if not (math.isfinite(thrust) and all(map(math.isfinite, torque))):
        raise ValueError("non-finite wrench")

    # The stages get the wrench as a plain tuple: the interpreter specialises
    # unpacking one, but not the attribute reads of a NamedTuple.
    u = (thrust, torque)
    t, y0 = state[0], state[1:]
    h = 0.5 * dt
    k1 = _deriv(y0, t, u, config)
    k2 = _deriv([a + h * b for a, b in zip(y0, k1)], t + h, u, config)
    k3 = _deriv([a + h * b for a, b in zip(y0, k2)], t + h, u, config)
    k4 = _deriv([a + dt * b for a, b in zip(y0, k3)], t + dt, u, config)
    h6 = dt / 6.0
    y1 = [
        a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        for a, b1, b2, b3, b4 in zip(y0, k1, k2, k3, k4)
    ]
    q = Quaternion(*y1[6:10]).normalized()
    return VehicleState(t + dt, *y1[:6], *q, *y1[10:])
