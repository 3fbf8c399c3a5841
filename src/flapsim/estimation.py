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
  that stays near zero for slow smooth motion.
* Linear velocity from a backward difference of position followed by a
  first-order low-pass, also Tustin-discretized.
* Position and attitude are passed through directly.

Measured quaternions are flipped to the hemisphere of the previous sample
before any filtering, so the stream stays continuous even if the source
flips representation sign.  Between measurement arrivals the last estimate is
held (zero-order hold).

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
    "AngularRateFilter",
    "VelocityFilter",
    "Estimator",
]


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
    position: np.ndarray
    attitude: Quaternion
    t: float


class MocapSensor:
    """Samples the true state, adding seeded Gaussian pose noise."""

    def __init__(self, config: FilterConfig, seed: int) -> None:
        self.config = config
        self._rng = np.random.default_rng(seed)

    def sample(self, state: VehicleState) -> MocapSample:
        position = state.position + self.config.position_noise_std * self._rng.standard_normal(3)
        rotvec = self.config.attitude_noise_std * self._rng.standard_normal(3)
        attitude = state.attitude * Quaternion.from_rotation_vector(rotvec)
        return MocapSample(position=position, attitude=attitude, t=state.t)


class LowPassDerivative:
    """Tustin discretization of lambda * s / (s + lambda) on vector samples.

    With sample period T the recurrence is

        y[k] = b0 * (x[k] - x[k-1]) - a1 * y[k-1]
        b0 = 2 lambda / (2 + lambda T),  a1 = (lambda T - 2) / (2 + lambda T)

    The first call primes the state and returns zeros.
    """

    def __init__(self, corner: float, dt: float, size: int) -> None:
        if corner <= 0.0 or dt <= 0.0:
            raise ValueError("corner frequency and dt must be positive")
        self.b0 = 2.0 * corner / (2.0 + corner * dt)
        self.a1 = (corner * dt - 2.0) / (2.0 + corner * dt)
        self._x_prev = np.zeros(size)
        self._y_prev = np.zeros(size)
        self._primed = False

    def update(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not self._primed:
            self._x_prev = x.copy()
            self._primed = True
            return self._y_prev.copy()
        y = self.b0 * (x - self._x_prev) - self.a1 * self._y_prev
        self._x_prev = x.copy()
        self._y_prev = y
        return y.copy()


class LowPass:
    """Tustin discretization of lambda / (s + lambda) on vector samples."""

    def __init__(self, corner: float, dt: float, size: int) -> None:
        if corner <= 0.0 or dt <= 0.0:
            raise ValueError("corner frequency and dt must be positive")
        ct = corner * dt
        self.b0 = ct / (2.0 + ct)
        self.a1 = (ct - 2.0) / (2.0 + ct)
        self._x_prev = np.zeros(size)
        self._y_prev = np.zeros(size)
        self._primed = False

    def update(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not self._primed:
            # Prime at the first input so a constant stream passes unchanged
            # (exactly on this sample, up to rounding after it).
            self._x_prev = x.copy()
            self._y_prev = x.copy()
            self._primed = True
            return x.copy()
        y = self.b0 * (x + self._x_prev) - self.a1 * self._y_prev
        self._x_prev = x.copy()
        self._y_prev = y
        return y.copy()


class AngularRateFilter:
    """Body angular rate from a unit-quaternion stream at a fixed rate."""

    def __init__(self, corner: float, dt: float) -> None:
        self._lpd = LowPassDerivative(corner, dt, 4)
        self.scalar_residual = 0.0  # diagnostic, see module docstring

    def update(self, q: Quaternion) -> np.ndarray:
        """Return the rate estimate [rad/s] after ingesting sample ``q``.

        ``q`` must already be hemisphere-continuous with the previous sample.
        """
        qdot = self._lpd.update(q.as_array())
        prod = q.conjugate() * Quaternion.from_array(qdot)
        self.scalar_residual = 2.0 * prod.w
        return 2.0 * prod.vector


class VelocityFilter:
    """Backward-difference velocity smoothed by a first-order low-pass."""

    def __init__(self, corner: float, dt: float) -> None:
        self.dt = float(dt)
        self._lp = LowPass(corner, dt, 3)
        self._r_prev: np.ndarray | None = None

    def update(self, position: np.ndarray) -> np.ndarray:
        position = np.asarray(position, dtype=float)
        if self._r_prev is None:
            self._r_prev = position.copy()
            return self._lp.update(np.zeros(3))
        diff = (position - self._r_prev) / self.dt
        self._r_prev = position.copy()
        return self._lp.update(diff)


class Estimator:
    """Multi-rate state estimator with zero-order hold between measurements.

    Call :meth:`tick` once per control tick, passing a :class:`MocapSample`
    when one arrived and ``None`` otherwise.  The first tick must carry a
    sample.
    """

    def __init__(self, config: FilterConfig) -> None:
        self.config = config
        self._rate_filter = AngularRateFilter(config.rate_corner, config.measurement_dt)
        self._velocity_filter = VelocityFilter(
            config.velocity_corner, config.measurement_dt
        )
        self._estimate: VehicleState | None = None
        self._q_prev: Quaternion | None = None

    @property
    def estimate(self) -> VehicleState:
        if self._estimate is None:
            raise RuntimeError("estimator has not received a measurement yet")
        return self._estimate

    def tick(self, sample: MocapSample | None) -> VehicleState:
        if sample is None:
            return self.estimate
        q = sample.attitude.normalized()
        if self._q_prev is not None and q.dot(self._q_prev) < 0.0:
            q = -q
        self._q_prev = q
        omega = self._rate_filter.update(q)
        velocity = self._velocity_filter.update(sample.position)
        self._estimate = VehicleState(
            position=np.asarray(sample.position, dtype=float).copy(),
            velocity=velocity,
            attitude=q,
            omega=omega,
            t=sample.t,
        )
        return self._estimate
