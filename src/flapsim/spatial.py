"""Quaternion and rotation-matrix utilities shared by the simulator and controllers.

Conventions used throughout the package:

* Quaternions are Hamilton quaternions stored scalar-first as ``(w, x, y, z)``
  and multiplied right-handed.  A :class:`Quaternion` is a tuple of four
  floats laid out like ``state[7:11]`` of the vehicle state, so
  ``Quaternion(*state[7:11])`` is the attitude and ``q[1:]`` its vector part.
  A unit quaternion ``q`` maps body coordinates to inertial coordinates
  through the sandwich product

      v_inertial = q * (0, v_body) * q*

  where ``q* = (w, -x, -y, -z)`` is the conjugate, the inverse of a unit
  quaternion.  The package forms no general inverse: where it needs q^-1,
  q is a unit quaternion or the product is normalized at once, and the
  conjugate then gives the same result (see :mod:`flapsim.control`).

* A rotation matrix is given as three rows of three numbers whose columns are
  the body axes expressed in the inertial frame, so ``R v_body = v_inertial``.
  :func:`rotmat_to_quat` is the checked conversion to a quaternion.
* Euler angles follow the aerospace Z-Y-X order: yaw about the inertial z
  axis, then pitch about the intermediate y axis, then roll about the body x
  axis.
* ``q`` and ``-q = (-w, -x, -y, -z)`` encode the same rotation.  Functions
  that must pick a representative return the one with a non-negative scalar
  part.

The Hamilton product ``p * q`` is the one operator a :class:`Quaternion`
defines; ``-q``, ``q + q`` and ``2 * q`` raise TypeError, and q* and -q are
written out per component where they are needed.  Multiplication performs
no implicit normalization, so the norm of a product is the product of the
norms.  Callers that need unit quaternions normalize explicitly.
"""

from __future__ import annotations

import math
from typing import NamedTuple

__all__ = [
    "Quaternion",
    "rotmat_to_quat",
]


class Quaternion(NamedTuple):
    """Scalar-first Hamilton quaternion ``(w, x, y, z)``, the identity by default."""

    w: float = 1.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    @classmethod
    def from_rotation_vector(cls, rotvec) -> "Quaternion":
        """Unit quaternion from an axis-angle vector (angle = norm)."""
        rx, ry, rz = rotvec
        angle = math.sqrt(rx * rx + ry * ry + rz * rz)
        if angle < 1e-12:
            # First-order expansion keeps the map smooth near zero.
            return cls(1.0, 0.5 * rx, 0.5 * ry, 0.5 * rz).normalized()
        s = math.sin(0.5 * angle) / angle
        return cls(math.cos(0.5 * angle), s * rx, s * ry, s * rz)

    @classmethod
    def from_euler_zyx(cls, roll: float, pitch: float, yaw: float) -> "Quaternion":
        """Compose Rz(yaw) Ry(pitch) Rx(roll) as a quaternion."""
        qz = cls(math.cos(0.5 * yaw), 0.0, 0.0, math.sin(0.5 * yaw))
        qy = cls(math.cos(0.5 * pitch), 0.0, math.sin(0.5 * pitch), 0.0)
        qx = cls(math.cos(0.5 * roll), math.sin(0.5 * roll), 0.0, 0.0)
        return (qz * qy * qx).normalized()

    def norm(self) -> float:
        w, x, y, z = self
        return math.sqrt(w * w + x * x + y * y + z * z)

    def normalized(self) -> "Quaternion":
        n = self.norm()
        if n < 1e-12:
            raise ValueError("cannot normalize a near-zero quaternion")
        w, x, y, z = self
        return Quaternion(w / n, x / n, y / n, z / n)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        """Hamilton product.  No normalization is applied."""
        w1, x1, y1, z1 = self
        w2, x2, y2, z2 = other
        return Quaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    # q + q and 2 * q raise TypeError instead of concatenating into 8-tuples.
    def __add__(self, other):
        return NotImplemented

    __rmul__ = __add__


def _euler_zyx(w: float, x: float, y: float, z: float) -> tuple[float, float, float]:
    """(roll, pitch, yaw) [rad] in the Z-Y-X convention of a unit quaternion."""
    # Entries of the body-to-inertial matrix needed for the extraction.
    r20 = 2.0 * (x * z - w * y)
    r21 = 2.0 * (y * z + w * x)
    r22 = 1.0 - 2.0 * (x * x + y * y)
    r00 = 1.0 - 2.0 * (y * y + z * z)
    r10 = 2.0 * (x * y + w * z)
    # Clamp by comparisons, not min/max: min(1.0, nan) is 1.0, and a NaN
    # attitude must give a NaN pitch, not 90 degrees.
    sin_pitch = -r20
    if sin_pitch > 1.0:
        sin_pitch = 1.0
    elif sin_pitch < -1.0:
        sin_pitch = -1.0
    pitch = math.asin(sin_pitch)
    roll = math.atan2(r21, r22)
    yaw = math.atan2(r10, r00)
    return roll, pitch, yaw


def rotmat_to_quat(matrix, tol: float = 1e-6) -> Quaternion:
    """Checked :func:`_shepperd`: a proper rotation matrix as a unit quaternion.

    ``matrix`` is 3x3 rows of numbers (a numpy array works), each entry taken
    with ``float``.  Raises ValueError if it is not 3x3, not finite, not
    orthonormal within ``tol`` (max |R^T R - I|) or improper (det < 0).
    """
    try:  # a flat or ragged input fails the conversion or the unpacking
        m = [[float(v) for v in row] for row in matrix]
        (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    except (TypeError, ValueError):
        raise ValueError("rotation matrix must be 3x3 rows of numbers") from None
    if not all(math.isfinite(v) for row in m for v in row):
        raise ValueError("rotation matrix has a non-finite entry")
    columns = list(zip(*m))
    residual = max(
        abs(sum(a * b for a, b in zip(ci, cj)) - (1.0 if i == j else 0.0))
        for i, ci in enumerate(columns)
        for j, cj in enumerate(columns)
    )
    if residual > tol:
        raise ValueError(f"matrix is not orthonormal (residual {residual:.3e})")
    det = (
        m00 * (m11 * m22 - m12 * m21)
        - m01 * (m10 * m22 - m12 * m20)
        + m02 * (m10 * m21 - m11 * m20)
    )
    if det < 0.0:
        raise ValueError("matrix has negative determinant (improper rotation)")
    return _shepperd(m00, m01, m02, m10, m11, m12, m20, m21, m22)


def _shepperd(
    m00: float, m01: float, m02: float,
    m10: float, m11: float, m12: float,
    m20: float, m21: float, m22: float,
) -> Quaternion:
    """Shepperd's branch on the nine entries of a rotation matrix, unchecked.

    The largest of (trace, diagonal entries) selects the division branch,
    which avoids catastrophic cancellation near 180 deg rotations.  The
    caller guarantees a proper rotation; :func:`rotmat_to_quat` is the
    checked entry point.  Returns the unit representative with w >= 0.
    """
    tr = m00 + m11 + m22
    if tr >= m00 and tr >= m11 and tr >= m22:
        s = math.sqrt(1.0 + tr) * 2.0
        w, x, y, z = 0.25 * s, (m21 - m12) / s, (m02 - m20) / s, (m10 - m01) / s
    elif m00 >= m11 and m00 >= m22:
        s = math.sqrt(1.0 + m00 - m11 - m22) * 2.0
        w, x, y, z = (m21 - m12) / s, 0.25 * s, (m01 + m10) / s, (m02 + m20) / s
    elif m11 >= m22:
        s = math.sqrt(1.0 + m11 - m00 - m22) * 2.0
        w, x, y, z = (m02 - m20) / s, (m01 + m10) / s, 0.25 * s, (m12 + m21) / s
    else:
        s = math.sqrt(1.0 + m22 - m00 - m11) * 2.0
        w, x, y, z = (m10 - m01) / s, (m02 + m20) / s, (m12 + m21) / s, 0.25 * s
    # Quaternion.normalized and the flip to w >= 0, written out.
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n < 1e-12:
        raise ValueError("cannot normalize a near-zero quaternion")
    w, x, y, z = w / n, x / n, y / n, z / n
    if w < 0.0:
        return Quaternion(-w, -x, -y, -z)
    return Quaternion(w, x, y, z)
