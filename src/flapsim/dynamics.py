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

:func:`step` is classical RK4 written out per component: the four stages
and the update are plain float expressions, one line per component, with
the constants of the call (f = thrust / m, g, the yaw damping b, J_i and
1 / J_i) bound once.  Position does not enter the derivative, so the stages
carry only v, q and omega.  The vibration torque is evaluated at t, t + h
and t + dt, stages 2 and 3 sharing the midpoint, and only when its amplitude
is non-zero; at zero amplitude the three torques are ``(0.0, 0.0, 0.0)``,
what :func:`vibration_torque` returns, and are still added to the commanded
torque (which turns a -0.0 component into 0.0).  The quaternion's
renormalisation is written out in ``Quaternion.normalized``'s order and with
its error.  Every expression must keep its operation order, down to
``(tz + pz) - b * wz`` and ``((k1 + 2 k2) + 2 k3) + k4``: the tests hold
``step`` bit for bit to a stage-by-stage RK4 reference, and the pinned run
digests rest on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .aero import Wrench

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


# Builds a VehicleState from a 14-tuple as ``VehicleState._make`` does, but
# without a Python frame: ``_new_state(VehicleState, values)``.
_new_state = tuple.__new__


@dataclass(frozen=True)
class InertialConfig:
    """Mass properties plus the passive torque terms of the airframe.

    The mass must be finite and positive, the inertia three finite,
    positive principal moments and the other fields finite; anything else
    raises ``ValueError``.  The config is frozen, so those checks hold for
    its life: a field is changed with ``dataclasses.replace``, which checks
    the new value again.
    """

    mass: float  # [kg]
    inertia: tuple[float, float, float]  # principal moments J1, J2, J3 [kg m^2]
    gravity: float = 9.81  # [m/s^2]
    yaw_damping: float = 0.0  # b, passive yaw damping [N m s/rad]
    vibration_amplitude: float = 0.0  # [N m], 0 disables the disturbance
    vibration_frequency: float = 100.0  # [Hz]
    vibration_ramp: float = 0.0  # envelope rise time [s], 0 = full from t=0

    def __post_init__(self) -> None:
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise ValueError(f"mass must be finite and positive, got {self.mass!r}")
        try:
            moments = tuple(float(j) for j in self.inertia)
        except (TypeError, ValueError):  # not a sequence of numbers
            moments = ()
        if len(moments) != 3 or not all(math.isfinite(j) and j > 0.0 for j in moments):
            raise ValueError(
                f"inertia must be three finite, positive principal moments, "
                f"got {self.inertia!r}"
            )
        object.__setattr__(self, "inertia", moments)
        for name in ("gravity", "yaw_damping", "vibration_amplitude",
                     "vibration_frequency", "vibration_ramp"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


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


def step(
    state: VehicleState, wrench: Wrench, config: InertialConfig, dt: float
) -> VehicleState:
    """Advance the state by one RK4 step of length ``dt``.

    The four stages and the update are written out per component on Python
    floats, so the result does not depend on a BLAS kernel.  The quaternion
    is renormalized after the update so integration error does not
    accumulate in its norm.  Raises ValueError on a non-finite state or
    wrench, or a non-positive step.  Each finiteness check first tests the
    sum of its terms, which is finite only if every term is; only a
    non-finite sum, from a NaN or infinite term or from finite terms that
    overflow, is checked term by term, so both raise exactly where a
    term-by-term check would.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not math.isfinite(sum(state)) and not all(map(math.isfinite, state)):
        raise ValueError("non-finite vehicle state")
    thrust, torque = wrench
    if not math.isfinite(sum(torque, thrust)) and not (
        math.isfinite(thrust) and all(map(math.isfinite, torque))
    ):
        raise ValueError("non-finite wrench")

    t, x, y, z, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = state
    tx, ty, tz = torque
    f = thrust / config.mass
    g = config.gravity
    b = config.yaw_damping
    j1, j2, j3 = config.inertia
    i1, i2, i3 = 1.0 / j1, 1.0 / j2, 1.0 / j3
    h = 0.5 * dt
    if config.vibration_amplitude == 0.0:  # what vibration_torque returns
        p1 = ph = p4 = (0.0, 0.0, 0.0)
    else:
        p1 = vibration_torque(config, t)
        ph = vibration_torque(config, t + h)
        p4 = vibration_torque(config, t + dt)

    # Each stage n evaluates the derivative at its own (v, q, w): kv is the
    # acceleration (thrust along the body z axis, the third column of R(q),
    # less gravity), kq = q * (0, w) / 2 and kw Euler's equations
    # J_i wdot_i = tau_i - (w x J w)_i.  The position derivative is v.
    px, py, pz = p1
    kvx1 = f * (2.0 * (qx * qz + qw * qy))
    kvy1 = f * (2.0 * (qy * qz - qw * qx))
    kvz1 = f * (1.0 - 2.0 * (qx * qx + qy * qy)) - g
    kqw1 = 0.5 * (-qx * wx - qy * wy - qz * wz)
    kqx1 = 0.5 * (qw * wx + qy * wz - qz * wy)
    kqy1 = 0.5 * (qw * wy - qx * wz + qz * wx)
    kqz1 = 0.5 * (qw * wz + qx * wy - qy * wx)
    hx, hy, hz = j1 * wx, j2 * wy, j3 * wz
    kwx1 = i1 * ((tx + px) - (wy * hz - wz * hy))
    kwy1 = i2 * ((ty + py) - (wz * hx - wx * hz))
    kwz1 = i3 * ((tz + pz) - b * wz - (wx * hy - wy * hx))

    # Stages 2 and 3 share the time t + h and so the vibration torque.
    px, py, pz = ph
    ux, uy, uz = tx + px, ty + py, tz + pz

    vx2, vy2, vz2 = vx + h * kvx1, vy + h * kvy1, vz + h * kvz1
    qw2, qx2 = qw + h * kqw1, qx + h * kqx1
    qy2, qz2 = qy + h * kqy1, qz + h * kqz1
    wx2, wy2, wz2 = wx + h * kwx1, wy + h * kwy1, wz + h * kwz1
    kvx2 = f * (2.0 * (qx2 * qz2 + qw2 * qy2))
    kvy2 = f * (2.0 * (qy2 * qz2 - qw2 * qx2))
    kvz2 = f * (1.0 - 2.0 * (qx2 * qx2 + qy2 * qy2)) - g
    kqw2 = 0.5 * (-qx2 * wx2 - qy2 * wy2 - qz2 * wz2)
    kqx2 = 0.5 * (qw2 * wx2 + qy2 * wz2 - qz2 * wy2)
    kqy2 = 0.5 * (qw2 * wy2 - qx2 * wz2 + qz2 * wx2)
    kqz2 = 0.5 * (qw2 * wz2 + qx2 * wy2 - qy2 * wx2)
    hx, hy, hz = j1 * wx2, j2 * wy2, j3 * wz2
    kwx2 = i1 * (ux - (wy2 * hz - wz2 * hy))
    kwy2 = i2 * (uy - (wz2 * hx - wx2 * hz))
    kwz2 = i3 * (uz - b * wz2 - (wx2 * hy - wy2 * hx))

    vx3, vy3, vz3 = vx + h * kvx2, vy + h * kvy2, vz + h * kvz2
    qw3, qx3 = qw + h * kqw2, qx + h * kqx2
    qy3, qz3 = qy + h * kqy2, qz + h * kqz2
    wx3, wy3, wz3 = wx + h * kwx2, wy + h * kwy2, wz + h * kwz2
    kvx3 = f * (2.0 * (qx3 * qz3 + qw3 * qy3))
    kvy3 = f * (2.0 * (qy3 * qz3 - qw3 * qx3))
    kvz3 = f * (1.0 - 2.0 * (qx3 * qx3 + qy3 * qy3)) - g
    kqw3 = 0.5 * (-qx3 * wx3 - qy3 * wy3 - qz3 * wz3)
    kqx3 = 0.5 * (qw3 * wx3 + qy3 * wz3 - qz3 * wy3)
    kqy3 = 0.5 * (qw3 * wy3 - qx3 * wz3 + qz3 * wx3)
    kqz3 = 0.5 * (qw3 * wz3 + qx3 * wy3 - qy3 * wx3)
    hx, hy, hz = j1 * wx3, j2 * wy3, j3 * wz3
    kwx3 = i1 * (ux - (wy3 * hz - wz3 * hy))
    kwy3 = i2 * (uy - (wz3 * hx - wx3 * hz))
    kwz3 = i3 * (uz - b * wz3 - (wx3 * hy - wy3 * hx))

    px, py, pz = p4
    vx4, vy4, vz4 = vx + dt * kvx3, vy + dt * kvy3, vz + dt * kvz3
    qw4, qx4 = qw + dt * kqw3, qx + dt * kqx3
    qy4, qz4 = qy + dt * kqy3, qz + dt * kqz3
    wx4, wy4, wz4 = wx + dt * kwx3, wy + dt * kwy3, wz + dt * kwz3
    kvx4 = f * (2.0 * (qx4 * qz4 + qw4 * qy4))
    kvy4 = f * (2.0 * (qy4 * qz4 - qw4 * qx4))
    kvz4 = f * (1.0 - 2.0 * (qx4 * qx4 + qy4 * qy4)) - g
    kqw4 = 0.5 * (-qx4 * wx4 - qy4 * wy4 - qz4 * wz4)
    kqx4 = 0.5 * (qw4 * wx4 + qy4 * wz4 - qz4 * wy4)
    kqy4 = 0.5 * (qw4 * wy4 - qx4 * wz4 + qz4 * wx4)
    kqz4 = 0.5 * (qw4 * wz4 + qx4 * wy4 - qy4 * wx4)
    hx, hy, hz = j1 * wx4, j2 * wy4, j3 * wz4
    kwx4 = i1 * ((tx + px) - (wy4 * hz - wz4 * hy))
    kwy4 = i2 * ((ty + py) - (wz4 * hx - wx4 * hz))
    kwz4 = i3 * ((tz + pz) - b * wz4 - (wx4 * hy - wy4 * hx))

    h6 = dt / 6.0
    qw = qw + h6 * (kqw1 + 2.0 * kqw2 + 2.0 * kqw3 + kqw4)
    qx = qx + h6 * (kqx1 + 2.0 * kqx2 + 2.0 * kqx3 + kqx4)
    qy = qy + h6 * (kqy1 + 2.0 * kqy2 + 2.0 * kqy3 + kqy4)
    qz = qz + h6 * (kqz1 + 2.0 * kqz2 + 2.0 * kqz3 + kqz4)
    # Quaternion.normalized, written out.
    n = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    if n < 1e-12:
        raise ValueError("cannot normalize a near-zero quaternion")
    return _new_state(VehicleState, (
        t + dt,
        x + h6 * (vx + 2.0 * vx2 + 2.0 * vx3 + vx4),
        y + h6 * (vy + 2.0 * vy2 + 2.0 * vy3 + vy4),
        z + h6 * (vz + 2.0 * vz2 + 2.0 * vz3 + vz4),
        vx + h6 * (kvx1 + 2.0 * kvx2 + 2.0 * kvx3 + kvx4),
        vy + h6 * (kvy1 + 2.0 * kvy2 + 2.0 * kvy3 + kvy4),
        vz + h6 * (kvz1 + 2.0 * kvz2 + 2.0 * kvz3 + kvz4),
        qw / n, qx / n, qy / n, qz / n,
        wx + h6 * (kwx1 + 2.0 * kwx2 + 2.0 * kwx3 + kwx4),
        wy + h6 * (kwy1 + 2.0 * kwy2 + 2.0 * kwy3 + kwy4),
        wz + h6 * (kwz1 + 2.0 * kwz2 + 2.0 * kwz3 + kwz4),
    ))
