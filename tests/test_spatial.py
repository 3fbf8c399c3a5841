"""Quaternion and rotation-math invariants.

Randomized cases use a fixed seed so failures reproduce.  The rotation-matrix
checks are backed by an independent Rodrigues-formula oracle written here
rather than by the package's own conversion.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flapsim.spatial import Quaternion, quat_error, rotmat_to_quat, sign


def random_quaternion(rng):
    v = rng.standard_normal(4)
    n = np.linalg.norm(v)
    if n < 1e-3:
        v = np.array([1.0, 0.0, 0.0, 0.0])
        n = 1.0
    return Quaternion.from_array(v / n)


def rodrigues(axis, angle):
    """Rotation matrix about a unit axis, derived independently."""
    k = np.asarray(axis, dtype=float)
    k = k / np.linalg.norm(k)
    kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(angle) * kx + (1.0 - math.cos(angle)) * (kx @ kx)


def test_sign_convention():
    assert sign(3.2) == 1.0
    assert sign(-0.1) == -1.0
    assert sign(0.0) == 1.0


def test_multiplication_table():
    i = Quaternion(0, 1, 0, 0)
    j = Quaternion(0, 0, 1, 0)
    k = Quaternion(0, 0, 0, 1)
    minus_one = Quaternion(-1, 0, 0, 0)
    assert (i * j).as_array() == pytest.approx(k.as_array())
    assert (j * k).as_array() == pytest.approx(i.as_array())
    assert (k * i).as_array() == pytest.approx(j.as_array())
    for u in (i, j, k):
        assert (u * u).as_array() == pytest.approx(minus_one.as_array())


def test_product_norm_and_associativity():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        p = random_quaternion(rng)
        q = random_quaternion(rng)
        r = random_quaternion(rng)
        assert (p * q).norm() == pytest.approx(1.0, abs=1e-12)
        left = ((p * q) * r).as_array()
        right = (p * (q * r)).as_array()
        assert np.max(np.abs(left - right)) < 1e-12


def test_inverse_recovers_identity():
    rng = np.random.default_rng(12)
    for _ in range(2000):
        q = random_quaternion(rng)
        e = (q * q.inverse()).as_array()
        assert np.max(np.abs(e - np.array([1.0, 0, 0, 0]))) < 1e-12


def test_rotate_matches_matrix():
    rng = np.random.default_rng(13)
    for _ in range(2000):
        q = random_quaternion(rng)
        v = rng.standard_normal(3)
        sandwich = q.rotate(v)
        matrix = q.to_rotation_matrix() @ v
        assert np.max(np.abs(sandwich - matrix)) < 1e-12


def test_rotate_is_isometry():
    rng = np.random.default_rng(14)
    for _ in range(1000):
        q = random_quaternion(rng)
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)
        assert np.linalg.norm(q.rotate(a)) == pytest.approx(np.linalg.norm(a))
        assert q.rotate(a) @ q.rotate(b) == pytest.approx(a @ b)


def test_matrix_against_rodrigues():
    rng = np.random.default_rng(15)
    for _ in range(1000):
        axis = rng.standard_normal(3)
        while np.linalg.norm(axis) < 1e-3:
            axis = rng.standard_normal(3)
        angle = rng.uniform(-math.pi, math.pi)
        got = Quaternion.from_axis_angle(axis, angle).to_rotation_matrix()
        want = rodrigues(axis, angle)
        assert np.max(np.abs(got - want)) < 1e-12


def test_axis_angle_round_trip():
    rng = np.random.default_rng(16)
    for _ in range(1000):
        axis = rng.standard_normal(3)
        while np.linalg.norm(axis) < 1e-3:
            axis = rng.standard_normal(3)
        angle = rng.uniform(0.0, math.pi)
        q = Quaternion.from_axis_angle(axis, angle)
        assert q.rotation_angle() == pytest.approx(angle, abs=1e-12)


def test_double_cover():
    """q and -q encode the same rotation."""
    rng = np.random.default_rng(17)
    for _ in range(500):
        q = random_quaternion(rng)
        assert np.max(np.abs(q.to_rotation_matrix() - (-q).to_rotation_matrix())) < 1e-12


def test_frozen_z_quarter_turn():
    q = Quaternion.from_yaw(math.pi / 2)
    want = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.max(np.abs(q.to_rotation_matrix() - want)) < 1e-12
    assert q.rotate([1.0, 0.0, 0.0]) == pytest.approx([0.0, 1.0, 0.0])


def test_euler_zyx_round_trip():
    rng = np.random.default_rng(18)
    for _ in range(1000):
        roll = rng.uniform(-math.pi, math.pi)
        pitch = rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3)
        yaw = rng.uniform(-math.pi, math.pi)
        q = Quaternion.from_euler_zyx(roll, pitch, yaw)
        r2, p2, y2 = q.to_euler_zyx()
        assert (r2, p2, y2) == pytest.approx((roll, pitch, yaw), abs=1e-9)


def test_matrix_quaternion_round_trip():
    """rotmat_to_quat inverts to_rotation_matrix up to the double cover."""
    rng = np.random.default_rng(19)
    for _ in range(2000):
        q = random_quaternion(rng)
        back = rotmat_to_quat(q.to_rotation_matrix())
        assert back.w >= 0.0
        assert abs(abs(back.dot(q)) - 1.0) < 1e-9


_unit = st.floats(-1.0, 1.0)
_quaternion = st.tuples(_unit, _unit, _unit, _unit).filter(
    lambda v: np.linalg.norm(v) > 1e-3
).map(lambda v: Quaternion.from_array(np.array(v) / np.linalg.norm(v)))


@given(_quaternion)
def test_rotmat_to_quat_inverts_to_rotation_matrix(q):
    """rotmat_to_quat(R(q)) is q or -q within 8 ulp per component, w >= 0."""
    back = rotmat_to_quat(q.to_rotation_matrix())
    assert back.w >= 0.0
    got, want = back.as_array(), q.as_array()
    error = min(np.abs(got - want).max(), np.abs(got + want).max())
    assert error <= 8.0 * np.finfo(float).eps


def test_rotmat_to_quat_rejects_bad_input():
    with pytest.raises(ValueError):
        rotmat_to_quat(np.eye(3) * 1.5)
    reflection = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        rotmat_to_quat(reflection)


def test_normalized_rejects_null():
    with pytest.raises(ValueError):
        Quaternion(0.0, 0.0, 0.0, 0.0).normalized()


def test_rotation_vector_small_angle():
    q = Quaternion.from_rotation_vector([1e-9, 0.0, 0.0])
    assert q.rotation_angle() == pytest.approx(1e-9, rel=1e-6)
    assert Quaternion.from_rotation_vector([0.0, 0.0, 0.0]).as_array() == pytest.approx(
        [1.0, 0.0, 0.0, 0.0]
    )


def test_quat_error_properties():
    rng = np.random.default_rng(20)
    for _ in range(500):
        q = random_quaternion(rng)
        e = quat_error(q, q)
        assert abs(abs(e.w) - 1.0) < 1e-12
        # relative error is left-invariant: premultiplying both by p changes nothing
        p = random_quaternion(rng)
        q_d = random_quaternion(rng)
        e1 = quat_error(q_d, q)
        e2 = quat_error(p * q_d, p * q)
        assert np.max(np.abs(e1.as_array() - e2.as_array())) < 1e-9
