"""Dense numpy forms of closed forms the package evaluates on floats.

They are the oracles of the allocation, mixing and desired-attitude tests.
"""

import math

import numpy as np

from flapsim.aero import WingConfig, Wrench
from flapsim.control import DegenerateThrust, DegenerateYaw
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


def desired_attitude(f_desired: np.ndarray, yaw_desired: float) -> Quaternion:
    """The body-axis construction with np.cross, np.linalg.norm and the
    checked rotmat_to_quat, as the package computed it before the float core."""
    norm_f = float(np.linalg.norm(f_desired))
    if norm_f <= 1e-6:
        raise DegenerateThrust(f"|f_desired| = {norm_f:.3e} defines no thrust axis")
    i3 = np.asarray(f_desired, dtype=float) / norm_f
    heading = np.array([-math.sin(yaw_desired), math.cos(yaw_desired), 0.0])
    i1 = np.cross(heading, i3)
    norm_i1 = float(np.linalg.norm(i1))
    if norm_i1 <= 1e-6:
        raise DegenerateYaw("heading reference parallel to the thrust axis")
    i1 /= norm_i1
    i2 = np.cross(i3, i1)
    return rotmat_to_quat(np.column_stack([i1, i2, i3]))
