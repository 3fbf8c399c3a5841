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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aero import Wrench
from .spatial import Quaternion

__all__ = [
    "VehicleState",
    "InertialConfig",
    "passive_yaw_damping",
    "vibration_torque",
    "step",
]


@dataclass
class VehicleState:
    position: np.ndarray  # r, inertial [m]
    velocity: np.ndarray  # rdot, inertial [m/s]
    attitude: Quaternion  # body to inertial
    omega: np.ndarray  # body rates [rad/s]
    t: float = 0.0

    @classmethod
    def at_rest(cls) -> "VehicleState":
        return cls(
            position=np.zeros(3),
            velocity=np.zeros(3),
            attitude=Quaternion.identity(),
            omega=np.zeros(3),
            t=0.0,
        )

    def copy(self) -> "VehicleState":
        return VehicleState(
            position=self.position.copy(),
            velocity=self.velocity.copy(),
            attitude=self.attitude,
            omega=self.omega.copy(),
            t=self.t,
        )


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
        moments = np.asarray(self.inertia, dtype=float)
        if moments.shape != (3,) or not (np.isfinite(moments) & (moments > 0.0)).all():
            raise ValueError(
                f"inertia must be three finite, positive principal moments, "
                f"got {self.inertia!r}"
            )
        self.inertia = tuple(moments.tolist())


def passive_yaw_damping(config: InertialConfig, yaw_rate: float) -> float:
    """Torque about body z opposing the yaw rate [N m]."""
    return -config.yaw_damping * yaw_rate


def vibration_torque(config: InertialConfig, t: float) -> np.ndarray:
    """Flapping-induced roll/pitch disturbance torque at time ``t``.

    Roll and pitch are driven in quadrature so the wobble sweeps both axes.
    The envelope rises linearly over ``vibration_ramp`` seconds, mirroring
    the wing spin-up; a sinusoid switched on at full amplitude would kick the
    body with a net angular impulse no controller at this scale could absorb.
    """
    return np.array(_vibration(config, t))


def _vibration(config: InertialConfig, t: float) -> tuple[float, float, float]:
    if config.vibration_amplitude == 0.0:
        return 0.0, 0.0, 0.0
    amplitude = config.vibration_amplitude
    if config.vibration_ramp > 0.0 and t < config.vibration_ramp:
        amplitude *= t / config.vibration_ramp
    phase = 2.0 * math.pi * config.vibration_frequency * t
    return amplitude * math.sin(phase), amplitude * math.cos(phase), 0.0


def _deriv(y, t: float, u: Wrench, c: InertialConfig) -> tuple[float, ...]:
    """Packed-state derivative; y = [r(3), v(3), q(4), omega(3)] as floats."""
    _, _, _, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = y

    # Thrust along the third column of R(q), the body z axis in inertial axes.
    f = u.thrust / c.mass
    ax = f * (2.0 * (qx * qz + qw * qy))
    ay = f * (2.0 * (qy * qz - qw * qx))
    az = f * (1.0 - 2.0 * (qx * qx + qy * qy)) - c.gravity

    # Euler's equations: J_i wdot_i = tau_i - (w x J w)_i.
    px, py, pz = _vibration(c, t)
    tx, ty, tz = u.torque.tolist()
    tx, ty, tz = tx + px, ty + py, tz + pz + passive_yaw_damping(c, wz)
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


def _pack(state: VehicleState) -> list[float]:
    """The packed state [r(3), v(3), q(4), omega(3)] as Python floats."""
    q = state.attitude
    return [
        *state.position.tolist(), *state.velocity.tolist(),
        q.w, q.x, q.y, q.z, *state.omega.tolist(),
    ]


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
    y0 = _pack(state)
    if not all(map(math.isfinite, y0)):
        raise ValueError("non-finite vehicle state")
    torque = wrench.torque.tolist()
    if not (math.isfinite(wrench.thrust) and all(map(math.isfinite, torque))):
        raise ValueError("non-finite wrench")

    t = state.t
    h = 0.5 * dt
    k1 = _deriv(y0, t, wrench, config)
    k2 = _deriv([a + h * b for a, b in zip(y0, k1)], t + h, wrench, config)
    k3 = _deriv([a + h * b for a, b in zip(y0, k2)], t + h, wrench, config)
    k4 = _deriv([a + dt * b for a, b in zip(y0, k3)], t + dt, wrench, config)
    h6 = dt / 6.0
    y1 = [
        a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        for a, b1, b2, b3, b4 in zip(y0, k1, k2, k3, k4)
    ]
    return VehicleState(
        position=np.array(y1[0:3]),
        velocity=np.array(y1[3:6]),
        attitude=Quaternion(y1[6], y1[7], y1[8], y1[9]).normalized(),
        omega=np.array(y1[10:13]),
        t=t + dt,
    )
