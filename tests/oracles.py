"""Dense numpy forms of closed forms the package evaluates on floats.

They are the oracles of the allocation, mixing, desired-attitude, rotation,
filter and integrator tests, and of the CSV writer's bytes.  The quaternion
conjugate, negation, dot product and yaw rotation, which :class:`Quaternion`
does not define, are free functions here.  The loop forms
at the end are the package's own arithmetic as it was written before its
tick was rewritten for speed; tests require the rewrite to match them bit
for bit.
"""

import math
from array import array
from operator import sub

import numpy as np

from flapsim import control
from flapsim.aero import ActuatorCommand, WingConfig, Wrench
from flapsim.control import AttitudeGains, PIDGains, Setpoint
from flapsim.dynamics import InertialConfig, VehicleState, vibration_torque
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


def conjugate(q: Quaternion) -> Quaternion:
    """q* = (w, -x, -y, -z), the inverse of a unit quaternion."""
    w, x, y, z = q
    return Quaternion(w, -x, -y, -z)


def negated(q: Quaternion) -> Quaternion:
    """-q, the other representative of the rotation of q."""
    w, x, y, z = q
    return Quaternion(-w, -x, -y, -z)


def dot(p: Quaternion, q: Quaternion) -> float:
    """The four-component inner product of p and q."""
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return w1 * w2 + x1 * x2 + y1 * y2 + z1 * z2


def from_yaw(yaw: float) -> Quaternion:
    """Pure yaw rotation about the inertial z axis, bit for bit the desired
    attitude of the tick's altitude branch."""
    return Quaternion(math.cos(0.5 * yaw), 0.0, 0.0, math.sin(0.5 * yaw))


def rotate(q: Quaternion, v) -> np.ndarray:
    """Vector part of the sandwich product q (0, v) q*."""
    return np.array((q * Quaternion(0.0, *map(float, v)) * conjugate(q))[1:])


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
    tol = 8.0 * np.finfo(float).eps * v_max
    return (
        tuple(min(max(v, 0.0), v_max) for v in raw),
        tuple(v < -tol or v - v_max > tol for v in raw),
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


def mocap_pose(state, position_std: float, attitude_std: float, noise):
    """The pose ``MocapSensor.sample`` draws for ``state`` from the six
    normals ``noise``: position noise first, then the attitude's body-side
    rotation."""
    nx, ny, nz, rx, ry, rz = noise
    position = (
        state.x + position_std * nx,
        state.y + position_std * ny,
        state.z + position_std * nz,
    )
    rotvec = (attitude_std * rx, attitude_std * ry, attitude_std * rz)
    return position, Quaternion(*state[7:11]) * Quaternion.from_rotation_vector(rotvec)


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


def reference_deriv(y, t: float, u: Wrench, c: InertialConfig) -> tuple[float, ...]:
    """``reference_step``'s stage derivative.  Packed-state derivative; y = [r(3), v(3), q(4), omega(3)] as floats
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


def reference_step(
    state: VehicleState, wrench: Wrench, config: InertialConfig, dt: float
) -> VehicleState:
    """``dynamics.step`` as it was written before its stages were written
    out per component: one RK4 step of length ``dt``.

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
    k1 = reference_deriv(y0, t, u, config)
    k2 = reference_deriv([a + h * b for a, b in zip(y0, k1)], t + h, u, config)
    k3 = reference_deriv([a + h * b for a, b in zip(y0, k2)], t + h, u, config)
    k4 = reference_deriv([a + dt * b for a, b in zip(y0, k3)], t + dt, u, config)
    h6 = dt / 6.0
    y1 = [
        a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        for a, b1, b2, b3, b4 in zip(y0, k1, k2, k3, k4)
    ]
    q = Quaternion(*y1[6:10]).normalized()
    return VehicleState(t + dt, *y1[:6], *q, *y1[10:])


def reference_attitude_torque(
    q: Quaternion, q_desired: Quaternion, omega: tuple[float, ...], gains: AttitudeGains
) -> tuple[float, ...]:
    """Quaternion PD attitude law tau = -K1 sign(m_e) n_e - K2 omega of the
    error quaternion q_e = q_desired^-1 * q, formed as the normalized
    conjugate product, with sign(0) = +1; ``reference_tick``'s torque."""
    ew, ex, ey, ez = (conjugate(q_desired) * q).normalized()
    s = 1.0 if ew >= 0.0 else -1.0
    k1x, k1y, k1z = gains.attitude
    k2x, k2y, k2z = gains.rate
    wx, wy, wz = omega
    return (
        -k1x * (s * ex) - k2x * wx,
        -k1y * (s * ey) - k2y * wy,
        -k1z * (s * ez) - k2z * wz,
    )


def reference_thrust_magnitude(f_desired: tuple[float, ...], q: Quaternion) -> float:
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


def reference_pid_force(gains: PIDGains, memory, r, rdot, r_sp, dt: float) -> tuple:
    """Per-axis PID force -kp e - kd rdot - ki int(e) with e = r - r_sp.

    ``memory`` is ``(integral, e_prev)``, or None before the first tick,
    which starts the integral at zero; the new memory is returned with the
    force.  The integral is the trapezoid rule over e, clamped
    symmetrically at ``gains.integral_limit``.
    """
    e = tuple(map(sub, r, r_sp))
    integral, e_prev = memory or ((0.0,) * len(e), e)
    h, limit = 0.5 * dt, gains.integral_limit
    new_integral, f = [], []
    # One loop over the axes: cheaper than a comprehension per quantity.
    for kp, kd, ki, ek, v, p, i in zip(
        gains.kp, gains.kd, gains.ki, e, rdot, e_prev, integral
    ):
        i = min(max(i + h * (p + ek), -limit), limit)
        new_integral.append(i)
        f.append(-kp * ek - kd * v - ki * i)
    return tuple(f), (tuple(new_integral), e)


def reference_tick(
    self: control.FlightController, est: VehicleState, yaw: float, sp: Setpoint, dt: float
) -> ActuatorCommand:
    """``FlightController.tick`` on helper functions and ``Quaternion``
    objects, as it was before it was written out per axis, on the
    controller ``self``: it reads and advances ``self.memory`` and
    ``self.last_command``.  It calls the package's ``desired_attitude`` and
    the generator-loop ``allocate`` above."""
    q = est[7:11]
    if self.mode == "position-hold":
        (fx, fy, fz), self.memory = reference_pid_force(
            self.pid_gains, self.memory, est[1:4], est[4:7], sp.position, dt
        )
        f_d = (fx, fy, fz + self.weight)
        q_d = control.desired_attitude(f_d, yaw)
        if q_d is None:
            return self.last_command
        thrust = reference_thrust_magnitude(f_d, q)
    else:
        (fz,), self.memory = reference_pid_force(
            self.pid_gains, self.memory, est[3:4], est[6:7], sp.position[2:], dt
        )
        thrust = fz + self.weight
        q_d = from_yaw(yaw)

    tau = reference_attitude_torque(q, q_d, est[11:], self.attitude_gains)
    if not self.yaw_feedback:
        tau = (tau[0], tau[1], 0.0)

    command = ActuatorCommand(*allocate(self.wing, Wrench(thrust, tau)))
    self.last_command = command
    return command


def reference_shepperd(
    m00: float, m01: float, m02: float,
    m10: float, m11: float, m12: float,
    m20: float, m21: float, m22: float,
) -> Quaternion:
    """``spatial._shepperd`` as it was written before it was written out:
    the largest of (trace, diagonal entries) selects the division branch,
    then the result is normalized and flipped to w >= 0."""
    tr = m00 + m11 + m22
    if tr >= m00 and tr >= m11 and tr >= m22:
        s = math.sqrt(1.0 + tr) * 2.0
        q = Quaternion(0.25 * s, (m21 - m12) / s, (m02 - m20) / s, (m10 - m01) / s)
    elif m00 >= m11 and m00 >= m22:
        s = math.sqrt(1.0 + m00 - m11 - m22) * 2.0
        q = Quaternion((m21 - m12) / s, 0.25 * s, (m01 + m10) / s, (m02 + m20) / s)
    elif m11 >= m22:
        s = math.sqrt(1.0 + m11 - m00 - m22) * 2.0
        q = Quaternion((m02 - m20) / s, (m01 + m10) / s, 0.25 * s, (m12 + m21) / s)
    else:
        s = math.sqrt(1.0 + m22 - m00 - m11) * 2.0
        q = Quaternion((m10 - m01) / s, (m02 + m20) / s, (m12 + m21) / s, 0.25 * s)
    q = q.normalized()
    if q.w < 0.0:
        q = negated(q)
    return q
