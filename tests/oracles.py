"""Dense numpy forms of closed forms the package evaluates on floats.

They are the oracles of the allocation, mixing, desired-attitude, rotation,
filter and integrator tests, and of the CSV writer's bytes.  The loop forms
at the end are the package's own arithmetic as it was written before its
tick was rewritten for speed; tests require the rewrite to match them bit
for bit.
"""

import math
from array import array

import numpy as np

from flapsim.aero import WingConfig, Wrench
from flapsim.scenarios import CSV_COLUMNS, CSV_SCHEMA
from flapsim.spatial import Quaternion, quat_error, rotmat_to_quat, sign


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


def bits(values) -> list[int]:
    """The uint64 bit patterns of float64 ``values``, so that -0.0 and 0.0
    differ and a NaN equals a NaN of the same payload."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def allocate(wing: WingConfig, wrench: Wrench) -> tuple[tuple, tuple]:
    """``aero.allocate`` with generator-fed tuples: (amplitudes, saturated)."""
    kf, ks = wing.k_thrust, wing.k_steer
    d1, d2, d3 = wing.lever_roll, wing.lever_pitch, wing.lever_yaw
    t1, t2, t3 = wrench.torque
    a = wrench.thrust / kf
    b = t1 / (kf * d1)
    c = t2 / (kf * d2)
    d = t3 / (ks * d3)
    raw = (
        0.25 * (a - b + c + d),
        0.25 * (a - b - c - d),
        0.25 * (a + b + c - d),
        0.25 * (a + b - c + d),
    )
    v_max = wing.v_max
    return (
        tuple(min(max(v, 0.0), v_max) for v in raw),
        tuple(v < 0.0 or v > v_max for v in raw),
    )


def attitude_torque(q, q_desired, omega, gains) -> tuple[float, ...]:
    """``control.attitude_torque`` as one generator over the three axes."""
    qe = quat_error(q_desired, q)
    s = sign(qe.w)
    return tuple(
        -k1 * (s * v) - k2 * w
        for k1, k2, v, w in zip(gains.attitude, gains.rate, qe[1:], omega)
    )


def tustin_derivative(b0: float, a1: float, xs) -> list[tuple[float, ...]]:
    """The Tustin lambda s / (s + lambda) of the estimator's rate filter
    over the stream ``xs``, primed to zeros, each step a generator-fed
    tuple: the loop of the filter class the estimator's recurrence
    replaced."""
    x_prev = y_prev = None
    out = []
    for x in xs:
        if x_prev is None:
            x_prev, y_prev = x, (0.0,) * len(x)
        else:
            y = tuple(b0 * (xk - xp) - a1 * yp for xk, xp, yp in zip(x, x_prev, y_prev))
            x_prev, y_prev = x, y
        out.append(y_prev)
    return out


def tustin_lowpass(b0: float, a1: float, xs) -> list[tuple[float, ...]]:
    """The Tustin lambda / (s + lambda) of the estimator's velocity filter
    over the stream ``xs``, primed at its first input, each step a
    generator-fed tuple: the loop of the filter class the estimator's
    recurrence replaced."""
    x_prev = y_prev = None
    out = []
    for x in xs:
        if x_prev is None:
            x_prev = y_prev = x
        else:
            y = tuple(b0 * (xk + xp) - a1 * yp for xk, xp, yp in zip(x, x_prev, y_prev))
            x_prev, y_prev = x, y
        out.append(y_prev)
    return out


def row_bytes(state, euler, est, est_euler, sp, wrench, command) -> bytes:
    """One run row as the loop appended it: its values listed in column
    order, then ``array("d").extend``."""
    buf = array("d")
    buf.extend([
        *state, *euler,
        *est[1:], *est_euler,
        *sp.position, sp.yaw,
        wrench.thrust, *wrench.torque,
        *command.amplitudes, *command.saturated,
    ])
    return buf.tobytes()
