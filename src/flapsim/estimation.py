"""Pose-measurement emulation and multi-rate state estimation.

A motion-capture style sensor provides position and attitude at a fraction of
the control rate (500 Hz measurements against a 2 kHz loop by default).  The
estimator rebuilds the full vehicle state from poses alone:

* Body angular rate from the quaternion stream.  For a unit quaternion the
  kinematics give (0, omega) = 2 q^-1 * qdot; replacing the derivative with
  the band-limited operator lambda * s / (s + lambda), applied componentwise
  to the quaternion samples, yields

      (0, omega_hat) = 2 q^-1 * LP{q}

  The operator is discretized with the bilinear (Tustin) transform at the
  measurement rate.  The scalar part of the product is a diagnostic residual
  (``Estimator.scalar_residual``) that stays near zero for slow smooth motion.
* Linear velocity from a backward difference of position followed by the
  first-order low-pass lambda_v / (s + lambda_v), also Tustin-discretized.
  The first sample has no difference yet and feeds zero velocity.
* Position and attitude are passed through directly.

Measured quaternions are flipped to the hemisphere of the previous sample
before any filtering, so the stream stays continuous even if the source
flips representation sign.  The estimator runs once per measurement; the
run loop in :mod:`flapsim.scenarios` decides when one arrives and holds the
last estimate in between (zero-order hold).  Everything it remembers between
samples, both filters' states included, is the one tuple
``Estimator.memory``; a fresh estimator given that tuple continues the same
stream bit for bit.

Measurement noise is deterministic for a given seed: position noise is white
Gaussian per axis, attitude noise a small random rotation vector applied on
the body side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import VehicleState
from .spatial import Quaternion

__all__ = [
    "FilterConfig",
    "MocapSample",
    "MocapSensor",
    "Estimator",
]

_NOISE_BLOCK = 256  # samples of sensor noise drawn per numpy call


@dataclass
class FilterConfig:
    """Estimator corners, noise levels and the measurement period."""

    rate_corner: float  # lambda for the angular-rate filter [rad/s]
    velocity_corner: float  # lambda_v for the velocity filter [rad/s]
    measurement_dt: float  # sample period of the pose source [s]
    position_noise_std: float = 0.0  # [m] per axis
    attitude_noise_std: float = 0.0  # [rad] per rotation-vector axis


@dataclass
class MocapSample:
    position: tuple[float, float, float]  # [m]
    attitude: Quaternion
    t: float


class MocapSensor:
    """Samples the true state, adding seeded Gaussian pose noise.

    The noise is drawn for ``_NOISE_BLOCK`` samples at a time, one numpy
    call per block instead of one per sample; the stream is the same as six
    draws per sample.
    """

    def __init__(self, config: FilterConfig, seed: int) -> None:
        self.config = config
        self._rng = np.random.default_rng(seed)
        self._noise = iter(())

    def sample(self, state: VehicleState) -> MocapSample:
        noise = next(self._noise, None)
        if noise is None:
            self._noise = iter(
                self._rng.standard_normal((_NOISE_BLOCK, 6)).tolist()
            )
            noise = next(self._noise)
        # Position noise first, then attitude: the pinned noisy runs use this order.
        nx, ny, nz, rx, ry, rz = noise
        std = self.config.position_noise_std
        position = (state.x + std * nx, state.y + std * ny, state.z + std * nz)
        std = self.config.attitude_noise_std
        rotvec = (std * rx, std * ry, std * rz)
        attitude = Quaternion(*state[7:11]) * Quaternion.from_rotation_vector(rotvec)
        return MocapSample(position=position, attitude=attitude, t=state.t)


class Estimator:
    """Full-state estimate from a pose stream, updated once per measurement.

    Call :meth:`tick` with each :class:`MocapSample` as it arrives; the
    caller holds the returned state until the next one.  ``memory`` is None
    before the first sample, which primes zero difference, velocity and
    rate, and then 17 floats: the previous quaternion (4) and position (3),
    the previous position difference (3), the velocity output (3) and the
    rate filter's output (4).
    """

    def __init__(self, config: FilterConfig) -> None:
        dt, corner = config.measurement_dt, config.rate_corner
        if corner <= 0.0 or config.velocity_corner <= 0.0 or dt <= 0.0:
            raise ValueError("corner frequencies and dt must be positive")
        self._dt = dt
        # Tustin: y[k] = b0 (x[k] - x[k-1]) - a1 y[k-1] for the rate filter,
        # y[k] = b0 (x[k] + x[k-1]) - a1 y[k-1] for the velocity filter.
        self._rate_b0 = 2.0 * corner / (2.0 + corner * dt)
        self._rate_a1 = (corner * dt - 2.0) / (2.0 + corner * dt)
        ct = config.velocity_corner * dt
        self._velocity_b0 = ct / (2.0 + ct)
        self._velocity_a1 = (ct - 2.0) / (2.0 + ct)
        self.memory: tuple[float, ...] | None = None
        self.scalar_residual = 0.0  # diagnostic, see module docstring

    def tick(self, sample: MocapSample) -> VehicleState:
        qw, qx, qy, qz = sample.attitude.normalized()
        rx, ry, rz = sample.position
        if self.memory is None:
            dx = dy = dz = vx = vy = vz = yw = yx = yy = yz = 0.0
        else:
            (pw, px, py, pz, prx, pry, prz, pdx, pdy, pdz,
             vx, vy, vz, yw, yx, yy, yz) = self.memory
            if qw * pw + qx * px + qy * py + qz * pz < 0.0:
                qw, qx, qy, qz = -qw, -qx, -qy, -qz
            dt = self._dt
            dx, dy, dz = (rx - prx) / dt, (ry - pry) / dt, (rz - prz) / dt
            b0, a1 = self._velocity_b0, self._velocity_a1
            vx = b0 * (dx + pdx) - a1 * vx
            vy = b0 * (dy + pdy) - a1 * vy
            vz = b0 * (dz + pdz) - a1 * vz
            b0, a1 = self._rate_b0, self._rate_a1
            yw = b0 * (qw - pw) - a1 * yw
            yx = b0 * (qx - px) - a1 * yx
            yy = b0 * (qy - py) - a1 * yy
            yz = b0 * (qz - pz) - a1 * yz
        self.memory = (qw, qx, qy, qz, rx, ry, rz, dx, dy, dz,
                       vx, vy, vz, yw, yx, yy, yz)
        # q^-1 * y as the Hamilton product of the conjugate, operand by operand.
        cx, cy, cz = -qx, -qy, -qz
        self.scalar_residual = 2.0 * (qw * yw - cx * yx - cy * yy - cz * yz)
        return VehicleState(
            sample.t, rx, ry, rz, vx, vy, vz, qw, qx, qy, qz,
            2.0 * (qw * yx + cx * yw + cy * yz - cz * yy),
            2.0 * (qw * yy - cx * yz + cy * yw + cz * yx),
            2.0 * (qw * yz + cx * yy - cy * yx + cz * yw),
        )
