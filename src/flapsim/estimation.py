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
last estimate in between (zero-order hold).

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
    "LowPassDerivative",
    "LowPass",
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


class LowPassDerivative:
    """Tustin discretization of lambda * s / (s + lambda) on float tuples.

    With sample period T the recurrence is

        y[k] = b0 * (x[k] - x[k-1]) - a1 * y[k-1]
        b0 = 2 lambda / (2 + lambda T),  a1 = (lambda T - 2) / (2 + lambda T)

    The first call primes the state and returns zeros of the input's size.
    """

    def __init__(self, corner: float, dt: float) -> None:
        if corner <= 0.0 or dt <= 0.0:
            raise ValueError("corner frequency and dt must be positive")
        self.b0 = 2.0 * corner / (2.0 + corner * dt)
        self.a1 = (corner * dt - 2.0) / (2.0 + corner * dt)
        self._x_prev: tuple[float, ...] | None = None
        self._y_prev: tuple[float, ...] | None = None

    def update(self, x: tuple[float, ...]) -> tuple[float, ...]:
        if self._x_prev is None:
            self._x_prev, self._y_prev = x, (0.0,) * len(x)
            return self._y_prev
        b0, a1 = self.b0, self.a1
        y = tuple([
            b0 * (xk - xp) - a1 * yp for xk, xp, yp in zip(x, self._x_prev, self._y_prev)
        ])
        self._x_prev, self._y_prev = x, y
        return y


class LowPass:
    """Tustin discretization of lambda / (s + lambda) on float tuples."""

    def __init__(self, corner: float, dt: float) -> None:
        if corner <= 0.0 or dt <= 0.0:
            raise ValueError("corner frequency and dt must be positive")
        ct = corner * dt
        self.b0 = ct / (2.0 + ct)
        self.a1 = (ct - 2.0) / (2.0 + ct)
        self._x_prev: tuple[float, ...] | None = None
        self._y_prev: tuple[float, ...] | None = None

    def update(self, x: tuple[float, ...]) -> tuple[float, ...]:
        if self._x_prev is None:
            # Prime at the first input so a constant stream passes unchanged
            # (exactly on this sample, up to rounding after it).
            self._x_prev = self._y_prev = x
            return x
        b0, a1 = self.b0, self.a1
        y = tuple([
            b0 * (xk + xp) - a1 * yp for xk, xp, yp in zip(x, self._x_prev, self._y_prev)
        ])
        self._x_prev, self._y_prev = x, y
        return y


class Estimator:
    """Full-state estimate from a pose stream, updated once per measurement.

    Call :meth:`tick` with each :class:`MocapSample` as it arrives; the
    caller holds the returned state until the next one.
    """

    def __init__(self, config: FilterConfig) -> None:
        self._dt = dt = config.measurement_dt
        self._rate = LowPassDerivative(config.rate_corner, dt)
        self._velocity = LowPass(config.velocity_corner, dt)
        self._q_prev: Quaternion | None = None
        self._r_prev: tuple[float, ...] | None = None
        self.scalar_residual = 0.0  # diagnostic, see module docstring

    def tick(self, sample: MocapSample) -> VehicleState:
        q, position, dt = sample.attitude.normalized(), sample.position, self._dt
        if self._q_prev is None:
            diff = (0.0, 0.0, 0.0)
        else:
            if q.dot(self._q_prev) < 0.0:
                q = -q
            diff = tuple([(r - rp) / dt for r, rp in zip(position, self._r_prev)])
        self._q_prev, self._r_prev = q, position
        velocity = self._velocity.update(diff)
        prod = q.conjugate() * Quaternion(*self._rate.update(q))
        self.scalar_residual = 2.0 * prod.w
        omega = 2.0 * prod.x, 2.0 * prod.y, 2.0 * prod.z
        return VehicleState(sample.t, *position, *velocity, *q, *omega)
