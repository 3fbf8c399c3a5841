"""Quaternion and rotation-matrix utilities shared by the simulator and controllers.

Conventions used throughout the package:

* Quaternions are Hamilton quaternions stored scalar-first as ``(w, x, y, z)``
  and multiplied right-handed.  A unit quaternion ``q`` maps body coordinates
  to inertial coordinates through the sandwich product

      v_inertial = q * (0, v_body) * q^-1

* Rotation matrices are 3x3 ``numpy`` arrays whose columns are the body axes
  expressed in the inertial frame, so ``R @ v_body = v_inertial`` and
  ``R == q.to_rotation_matrix()`` for the same attitude.
* Euler angles follow the aerospace Z-Y-X order: yaw about the inertial z
  axis, then pitch about the intermediate y axis, then roll about the body x
  axis.
* ``q`` and ``-q`` encode the same rotation.  Functions that must pick a
  representative return the one with a non-negative scalar part.

Multiplication performs no implicit normalization, so the norm of a product
is the product of the norms.  Callers that need unit quaternions normalize
explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Quaternion",
    "quat_error",
    "rotmat_to_quat",
    "sign",
]


def sign(x: float) -> float:
    """Sign function with the convention sign(0) = +1."""
    return 1.0 if x >= 0.0 else -1.0


@dataclass(frozen=True, slots=True)
class Quaternion:
    """Scalar-first Hamilton quaternion ``(w, x, y, z)``."""

    w: float
    x: float
    y: float
    z: float

    @classmethod
    def identity(cls) -> "Quaternion":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_array(cls, a) -> "Quaternion":
        return cls(float(a[0]), float(a[1]), float(a[2]), float(a[3]))

    @classmethod
    def from_axis_angle(cls, axis, angle: float) -> "Quaternion":
        """Unit quaternion rotating by ``angle`` [rad] about ``axis``."""
        ax = np.asarray(axis, dtype=float)
        n = math.sqrt(ax[0] ** 2 + ax[1] ** 2 + ax[2] ** 2)
        if n < 1e-12:
            raise ValueError("rotation axis must be non-zero")
        s = math.sin(0.5 * angle) / n
        return cls(math.cos(0.5 * angle), s * ax[0], s * ax[1], s * ax[2])

    @classmethod
    def from_rotation_vector(cls, rotvec) -> "Quaternion":
        """Unit quaternion from an axis-angle vector (angle = norm)."""
        rx, ry, rz = rotvec
        angle = math.sqrt(rx**2 + ry**2 + rz**2)
        if angle < 1e-12:
            # First-order expansion keeps the map smooth near zero.
            return cls(1.0, 0.5 * rx, 0.5 * ry, 0.5 * rz).normalized()
        s = math.sin(0.5 * angle) / angle
        return cls(math.cos(0.5 * angle), s * rx, s * ry, s * rz)

    @classmethod
    def from_yaw(cls, yaw: float) -> "Quaternion":
        """Pure yaw rotation about the inertial z axis."""
        return cls(math.cos(0.5 * yaw), 0.0, 0.0, math.sin(0.5 * yaw))

    @classmethod
    def from_euler_zyx(cls, roll: float, pitch: float, yaw: float) -> "Quaternion":
        """Compose Rz(yaw) Ry(pitch) Rx(roll) as a quaternion."""
        qz = cls(math.cos(0.5 * yaw), 0.0, 0.0, math.sin(0.5 * yaw))
        qy = cls(math.cos(0.5 * pitch), 0.0, math.sin(0.5 * pitch), 0.0)
        qx = cls(math.cos(0.5 * roll), math.sin(0.5 * roll), 0.0, 0.0)
        return (qz * qy * qx).normalized()

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    @property
    def vector(self) -> np.ndarray:
        """Imaginary part ``(x, y, z)``."""
        return np.array([self.x, self.y, self.z])

    def norm(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)

    def normalized(self) -> "Quaternion":
        n = self.norm()
        if n < 1e-12:
            raise ValueError("cannot normalize a near-zero quaternion")
        return Quaternion(self.w / n, self.x / n, self.y / n, self.z / n)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def inverse(self) -> "Quaternion":
        n2 = self.w**2 + self.x**2 + self.y**2 + self.z**2
        if n2 < 1e-24:
            raise ValueError("cannot invert a near-zero quaternion")
        return Quaternion(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        """Hamilton product.  No normalization is applied."""
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return Quaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def dot(self, other: "Quaternion") -> float:
        return (
            self.w * other.w + self.x * other.x + self.y * other.y + self.z * other.z
        )

    def rotate(self, v) -> np.ndarray:
        """Rotate a body-frame vector into the inertial frame.

        Equivalent to the sandwich product q * (0, v) * q^-1 for unit q,
        evaluated without building intermediate quaternions.
        """
        vx, vy, vz = float(v[0]), float(v[1]), float(v[2])
        w, x, y, z = self.w, self.x, self.y, self.z
        # t = 2 u x v, v' = v + w t + u x t
        tx = 2.0 * (y * vz - z * vy)
        ty = 2.0 * (z * vx - x * vz)
        tz = 2.0 * (x * vy - y * vx)
        return np.array(
            [
                vx + w * tx + y * tz - z * ty,
                vy + w * ty + z * tx - x * tz,
                vz + w * tz + x * ty - y * tx,
            ]
        )

    def to_rotation_matrix(self) -> np.ndarray:
        """Body-to-inertial rotation matrix of a unit quaternion."""
        w, x, y, z = self.w, self.x, self.y, self.z
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )

    def to_euler_zyx(self) -> tuple[float, float, float]:
        """Return (roll, pitch, yaw) [rad] in the Z-Y-X convention."""
        return _euler_zyx(self.w, self.x, self.y, self.z)

    def rotation_angle(self) -> float:
        """Geodesic rotation angle in [0, pi], insensitive to the q/-q sign."""
        vn = math.sqrt(self.x**2 + self.y**2 + self.z**2)
        return 2.0 * math.atan2(vn, abs(self.w))


def _euler_zyx(w: float, x: float, y: float, z: float) -> tuple[float, float, float]:
    """(roll, pitch, yaw) [rad] in the Z-Y-X convention of a unit quaternion."""
    # Entries of the body-to-inertial matrix needed for the extraction.
    r20 = 2.0 * (x * z - w * y)
    r21 = 2.0 * (y * z + w * x)
    r22 = 1.0 - 2.0 * (x * x + y * y)
    r00 = 1.0 - 2.0 * (y * y + z * z)
    r10 = 2.0 * (x * y + w * z)
    pitch = math.asin(max(-1.0, min(1.0, -r20)))
    roll = math.atan2(r21, r22)
    yaw = math.atan2(r10, r00)
    return roll, pitch, yaw


def quat_error(q_desired: Quaternion, q: Quaternion) -> Quaternion:
    """Attitude error quaternion q_desired^-1 * q, normalized to unit length.

    Encodes the rotation from the desired frame to the actual body frame; the
    identity quaternion means the attitude matches the target.
    """
    return (q_desired.inverse() * q).normalized()


def rotmat_to_quat(matrix, tol: float = 1e-6) -> Quaternion:
    """Convert a proper orthonormal rotation matrix to a unit quaternion.

    Uses Shepperd's method: the largest of (trace, diagonal entries) selects
    the division branch, which avoids catastrophic cancellation near 180 deg
    rotations.  Returns the representative with a non-negative scalar part.

    Raises ValueError if the matrix is not orthonormal within ``tol`` or has
    a negative determinant.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"rotation matrix must be 3x3, got {m.shape}")
    residual = np.abs(m.T @ m - np.eye(3)).max()
    if residual > tol:
        raise ValueError(f"matrix is not orthonormal (residual {residual:.3e})")
    if np.linalg.det(m) < 0.0:
        raise ValueError("matrix has negative determinant (improper rotation)")

    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m.tolist()
    return _shepperd(m00, m01, m02, m10, m11, m12, m20, m21, m22)


def _shepperd(
    m00: float, m01: float, m02: float,
    m10: float, m11: float, m12: float,
    m20: float, m21: float, m22: float,
) -> Quaternion:
    """Shepperd's branch on the nine entries of a rotation matrix, unchecked.

    The caller guarantees a proper rotation; :func:`rotmat_to_quat` is the
    checked entry point.  Returns the unit representative with w >= 0.
    """
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
        q = -q
    return q
