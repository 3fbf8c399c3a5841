"""Dense numpy forms of closed forms the package evaluates on floats.

They are the oracles of the allocation, mixing, desired-attitude, rotation,
filter and integrator tests, and of the CSV writer's bytes.
"""

import math

import numpy as np

from flapsim.aero import WingConfig, Wrench
from flapsim.scenarios import CSV_COLUMNS, CSV_SCHEMA
from flapsim.spatial import Quaternion, rotmat_to_quat


def mixing_matrix(wing: WingConfig) -> np.ndarray:
    """The matrix Gamma of ``mix``: u = [f, t1, t2, t3] = Gamma v.

    Rows are thrust, roll torque, pitch torque and yaw torque.
    """
    kf = wing.k_thrust
    ks = wing.k_steer
    d1, d2, d3 = wing.lever_roll, wing.lever_pitch, wing.lever_yaw
    return np.array(
        [
            [kf, kf, kf, kf],
            [-kf * d1, -kf * d1, kf * d1, kf * d1],
            [kf * d2, -kf * d2, kf * d2, -kf * d2],
            [ks * d3, -ks * d3, -ks * d3, ks * d3],
        ]
    )


def wrench_vector(wrench: Wrench) -> np.ndarray:
    """u = [f, t1, t2, t3], the vector the mixing matrix maps to."""
    return np.array([wrench.thrust, *wrench.torque])


def rotation_matrix(q: Quaternion) -> np.ndarray:
    """Body-to-inertial rotation matrix of a unit quaternion."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def desired_attitude(f_desired: np.ndarray, yaw_desired: float) -> Quaternion | None:
    """The body-axis construction with np.cross, np.linalg.norm and the
    checked rotmat_to_quat, as the package computed it before the float core;
    None where the construction loses rank."""
    norm_f = float(np.linalg.norm(f_desired))
    if norm_f <= 1e-6:
        return None
    i3 = np.asarray(f_desired, dtype=float) / norm_f
    heading = np.array([-math.sin(yaw_desired), math.cos(yaw_desired), 0.0])
    i1 = np.cross(heading, i3)
    norm_i1 = float(np.linalg.norm(i1))
    if norm_i1 <= 1e-6:
        return None
    i1 /= norm_i1
    i2 = np.cross(i3, i1)
    return rotmat_to_quat(np.column_stack([i1, i2, i3]))


class _Integrator:
    """The trapezoid-rule integrator on numpy vectors, as the package computed
    it before its vectors became float tuples."""

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


class LowPassDerivative:
    """Tustin lambda * s / (s + lambda) on numpy vectors; primes to zeros."""

    def __init__(self, corner: float, dt: float, size: int) -> None:
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
    """Tustin lambda / (s + lambda) on numpy vectors; primes at the first input."""

    def __init__(self, corner: float, dt: float, size: int) -> None:
        ct = corner * dt
        self.b0 = ct / (2.0 + ct)
        self.a1 = (ct - 2.0) / (2.0 + ct)
        self._x_prev = np.zeros(size)
        self._y_prev = np.zeros(size)
        self._primed = False

    def update(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not self._primed:
            self._x_prev = x.copy()
            self._y_prev = x.copy()
            self._primed = True
            return x.copy()
        y = self.b0 * (x + self._x_prev) - self.a1 * self._y_prev
        self._x_prev = x.copy()
        self._y_prev = y
        return y.copy()


class VelocityFilter:
    """Backward difference of numpy 3-vectors through the numpy LowPass."""

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


def csv_text(rows) -> str:
    """The run CSV of ``rows`` with every row formatted in full: the schema
    line, the header, then each row's floats as ``repr`` joined by commas."""
    lines = [f"# {CSV_SCHEMA}\n", ",".join(CSV_COLUMNS) + "\n"]
    for row in np.asarray(rows):
        lines.append(",".join(map(repr, row.tolist())) + "\n")
    return "".join(lines)
