"""Quaternion and rotation-math invariants.

Randomized cases use a fixed seed so failures reproduce.  Vectors are rotated
by the package's own sandwich product q (0, v) q*.  The rotation matrix of a
quaternion is the reference ``oracles.rotation_matrix``, which the tests
check against an independent Rodrigues-formula oracle written here.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from flapsim.spatial import (
    Quaternion,
    _euler_zyx,
    _shepperd,
    rotmat_to_quat,
)
from oracles import rotation_matrix


def random_quaternion(rng):
    v = rng.standard_normal(4)
    n = np.linalg.norm(v)
    if n < 1e-3:
        v = np.array([1.0, 0.0, 0.0, 0.0])
        n = 1.0
    return Quaternion(*(v / n).tolist())


def rotate(q, v):
    """Vector part of the sandwich product q (0, v) q*."""
    return np.array((q * Quaternion(0.0, *map(float, v)) * q.conjugate())[1:])


def rotation_angle(q):
    """Geodesic rotation angle in [0, pi], insensitive to the q/-q sign."""
    return 2.0 * math.atan2(math.sqrt(q.x**2 + q.y**2 + q.z**2), abs(q.w))


def rodrigues(axis, angle):
    """Rotation matrix about a unit axis, derived independently."""
    k = np.asarray(axis, dtype=float)
    k = k / np.linalg.norm(k)
    kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(angle) * kx + (1.0 - math.cos(angle)) * (kx @ kx)


def test_multiplication_table():
    i = Quaternion(0, 1, 0, 0)
    j = Quaternion(0, 0, 1, 0)
    k = Quaternion(0, 0, 0, 1)
    minus_one = Quaternion(-1, 0, 0, 0)
    assert np.array(i * j) == pytest.approx(np.array(k))
    assert np.array(j * k) == pytest.approx(np.array(i))
    assert np.array(k * i) == pytest.approx(np.array(j))
    for u in (i, j, k):
        assert np.array(u * u) == pytest.approx(np.array(minus_one))


_unit = st.floats(-1.0, 1.0)
_quaternion = st.tuples(_unit, _unit, _unit, _unit).filter(
    lambda v: np.linalg.norm(v) > 1e-3
).map(lambda v: Quaternion(*(np.array(v) / np.linalg.norm(v)).tolist()))


# Each product component is a sum of four products of unit-bounded floats, so
# a product of unit quaternions is off by a few ulp of 1; a second product
# doubles that.  8 ulp of 1 bounds every comparison below.
_TOL = 8.0 * np.finfo(float).eps


@given(_quaternion, _quaternion, _quaternion)
def test_product_norm_and_associativity(p, q, r):
    """Unit quaternions form a group up to normalisation: the product of two
    is unit within the bound, the identity is exact, and the product
    associates within the bound."""
    pq = p * q
    assert abs(pq.norm() - 1.0) <= _TOL
    assert abs(pq.normalized().norm() - 1.0) <= _TOL
    one = Quaternion()
    assert np.array_equal(np.array(p * one), np.array(p))
    assert np.array_equal(np.array(one * p), np.array(p))
    left = np.array(pq * r)
    right = np.array(p * (q * r))
    assert np.abs(left - right).max() <= _TOL


@given(_quaternion, _quaternion)
def test_inverse_recovers_identity(p, q):
    """The conjugate q* of a unit q is a two-sided inverse, and
    (p q)* = q* p*, within the bound."""
    identity = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.abs(np.array(q * q.conjugate()) - identity).max() <= _TOL
    assert np.abs(np.array(q.conjugate() * q) - identity).max() <= _TOL
    conj_pq = np.array((p * q).conjugate())
    assert np.abs(conj_pq - np.array(q.conjugate() * p.conjugate())).max() <= _TOL


def test_rotate_matches_matrix():
    rng = np.random.default_rng(13)
    for _ in range(2000):
        q = random_quaternion(rng)
        v = rng.standard_normal(3)
        sandwich = rotate(q, v)
        matrix = rotation_matrix(q) @ v
        assert np.max(np.abs(sandwich - matrix)) < 1e-12


def test_rotate_is_isometry():
    rng = np.random.default_rng(14)
    for _ in range(1000):
        q = random_quaternion(rng)
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)
        assert np.linalg.norm(rotate(q, a)) == pytest.approx(np.linalg.norm(a))
        assert rotate(q, a) @ rotate(q, b) == pytest.approx(a @ b)


def test_matrix_against_rodrigues():
    rng = np.random.default_rng(15)
    for _ in range(1000):
        axis = rng.standard_normal(3)
        while np.linalg.norm(axis) < 1e-3:
            axis = rng.standard_normal(3)
        angle = rng.uniform(-math.pi, math.pi)
        rotvec = angle * axis / np.linalg.norm(axis)
        got = rotation_matrix(Quaternion.from_rotation_vector(rotvec.tolist()))
        want = rodrigues(axis, angle)
        assert np.max(np.abs(got - want)) < 1e-12


def test_axis_angle_round_trip():
    rng = np.random.default_rng(16)
    for _ in range(1000):
        axis = rng.standard_normal(3)
        while np.linalg.norm(axis) < 1e-3:
            axis = rng.standard_normal(3)
        angle = rng.uniform(0.0, math.pi)
        q = Quaternion.from_rotation_vector((angle * axis / np.linalg.norm(axis)).tolist())
        assert rotation_angle(q) == pytest.approx(angle, abs=1e-12)


def test_double_cover():
    """q and -q encode the same rotation."""
    rng = np.random.default_rng(17)
    for _ in range(500):
        q = random_quaternion(rng)
        assert np.max(np.abs(rotation_matrix(q) - rotation_matrix(-q))) < 1e-12


def test_frozen_z_quarter_turn():
    q = Quaternion.from_yaw(math.pi / 2)
    want = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.max(np.abs(rotation_matrix(q) - want)) < 1e-12
    assert rotate(q, [1.0, 0.0, 0.0]) == pytest.approx([0.0, 1.0, 0.0])


def test_euler_zyx_round_trip():
    rng = np.random.default_rng(18)
    for _ in range(1000):
        roll = rng.uniform(-math.pi, math.pi)
        pitch = rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3)
        yaw = rng.uniform(-math.pi, math.pi)
        q = Quaternion.from_euler_zyx(roll, pitch, yaw)
        r2, p2, y2 = _euler_zyx(*q)
        assert (r2, p2, y2) == pytest.approx((roll, pitch, yaw), abs=1e-9)


def test_euler_zyx_keeps_nan_and_clamps_the_pitch_sine():
    """A NaN attitude gives NaN angles, not a 90 degree pitch; a pitch sine
    beyond +-1 (a quaternion slightly over unit norm) is clamped."""
    assert all(map(math.isnan, _euler_zyx(math.nan, 0.0, 0.0, 0.0)))
    a = 0.7072  # 2 a^2 = 1.00026
    assert _euler_zyx(a, 0.0, a, 0.0)[1] == math.pi / 2
    assert _euler_zyx(a, 0.0, -a, 0.0)[1] == -math.pi / 2


def test_matrix_quaternion_round_trip():
    """rotmat_to_quat inverts rotation_matrix up to the double cover."""
    rng = np.random.default_rng(19)
    for _ in range(2000):
        q = random_quaternion(rng)
        back = rotmat_to_quat(rotation_matrix(q))
        assert back.w >= 0.0
        assert abs(abs(back.dot(q)) - 1.0) < 1e-9


@given(_quaternion)
def test_rotmat_to_quat_inverts_to_rotation_matrix(q):
    """rotmat_to_quat(R(q)) is q or -q within 8 ulp per component, w >= 0."""
    back = rotmat_to_quat(rotation_matrix(q))
    assert back.w >= 0.0
    got, want = np.array(back), np.array(q)
    error = min(np.abs(got - want).max(), np.abs(got + want).max())
    assert error <= 8.0 * np.finfo(float).eps


def _rotation_entries(q) -> tuple[float, ...]:
    """The nine entries of R(q), row by row, as Python floats."""
    return tuple(sum(rotation_matrix(q).tolist(), []))


# Rotations within 0.2 rad of a half turn about x, y or z: the trace is near
# -1, so the diagonal entry of that axis selects Shepperd's branch.
_half_turn = st.tuples(
    st.sampled_from([0, 1, 2]),
    st.floats(math.pi - 0.2, math.pi),
    st.tuples(*[st.floats(-0.1, 0.1)] * 3),
).map(
    lambda a: Quaternion.from_rotation_vector(
        [a[1] * (float(i == a[0]) + d) for i, d in enumerate(a[2])]
    )
)


def _shepperd_outcome(f, entries):
    """The bytes ``f`` returns, a NaN packed as ``math.nan``, or the type and
    message it raises."""
    try:
        return struct.pack("4d", *(v if v == v else math.nan for v in f(*entries)))
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        return type(e), str(e)


@given(
    st.one_of(
        _quaternion.map(_rotation_entries),
        _half_turn.map(_rotation_entries),
        st.tuples(*[st.floats(-2.0, 2.0)] * 9),
    )
)
@example(_rotation_entries(Quaternion()))
@example(_rotation_entries(Quaternion(0.0, 1.0, 0.0, 0.0)))
@example(_rotation_entries(Quaternion(0.0, 0.0, 1.0, 0.0)))
@example(_rotation_entries(Quaternion(0.0, 0.0, 0.0, 1.0)))
@example((-1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 1.0))
# A rotation whose norm differs when the squares are taken as v*v, not v**2.
@example(_rotation_entries(Quaternion(
    0.7619104151717384, 0.3052911141711006, 0.5611349103337716, 0.10685254917739336
)))
def test_shepperd_matches_the_reference(entries):
    """The written-out branch, normalisation and flip to w >= 0 return the
    bytes of ``oracles.reference_shepperd``, or raise what it raises, in
    each of the four branches: rotations, half turns about x, y and z, and
    matrices that are no rotation."""
    got = _shepperd_outcome(_shepperd, entries)
    assert got == _shepperd_outcome(oracles.reference_shepperd, entries)


def test_rotmat_to_quat_rejects_bad_input():
    with pytest.raises(ValueError):
        rotmat_to_quat(np.eye(3) * 1.5)
    reflection = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        rotmat_to_quat(reflection)
    # numpy input comes back as Python floats.
    q = rotmat_to_quat(np.eye(3))
    assert q == (1.0, 0.0, 0.0, 0.0)
    assert all(type(v) is float for v in q)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("index", [(i, j) for i in range(3) for j in range(3)])
def test_rotmat_to_quat_names_a_non_finite_entry(index, bad):
    """A non-finite entry is reported as such wherever it sits."""
    m = np.eye(3)
    m[index] = bad
    with pytest.raises(ValueError, match="non-finite"):
        rotmat_to_quat(m)


@pytest.mark.parametrize(
    "matrix",
    [
        list(range(9)),
        np.arange(9.0),
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 0.0],
        1.0,
    ],
    ids=["flat-list", "flat-array", "2x3", "3x2", "4x3", "scalar-row", "scalar"],
)
def test_rotmat_to_quat_rejects_every_non_3x3_input(matrix):
    with pytest.raises(ValueError, match="3x3"):
        rotmat_to_quat(matrix)


@pytest.mark.parametrize(
    "expr", [lambda q: 2 * q, lambda q: q + q], ids=["int-times-q", "q-plus-q"]
)
def test_tuple_operators_are_no_quaternion_algebra(expr):
    """Tuple repetition and concatenation raise instead of giving 8-tuples."""
    with pytest.raises(TypeError):
        expr(Quaternion())


def test_normalized_rejects_null():
    with pytest.raises(ValueError):
        Quaternion(0.0, 0.0, 0.0, 0.0).normalized()


def test_rotation_vector_small_angle():
    q = Quaternion.from_rotation_vector([1e-9, 0.0, 0.0])
    assert rotation_angle(q) == pytest.approx(1e-9, rel=1e-6)
    assert np.array(Quaternion.from_rotation_vector([0.0, 0.0, 0.0])) == pytest.approx(
        [1.0, 0.0, 0.0, 0.0]
    )


def test_quat_error_properties():
    """The tick's error quaternion q_d* q, normalized: the identity for
    q_d = q, and left-invariant."""

    def error(q_d, q):
        return (q_d.conjugate() * q).normalized()

    rng = np.random.default_rng(20)
    for _ in range(500):
        q = random_quaternion(rng)
        e = error(q, q)
        assert abs(abs(e.w) - 1.0) < 1e-12
        # relative error is left-invariant: premultiplying both by p changes nothing
        p = random_quaternion(rng)
        q_d = random_quaternion(rng)
        e1 = error(q_d, q)
        e2 = error(p * q_d, p * q)
        assert np.max(np.abs(np.array(e1) - np.array(e2))) < 1e-9
