"""Pose sensor and the multi-rate estimator.

The estimator's two discrete filters, read from its ``memory``, are verified
against a difference-equation recursion written out independently in this
file, against the numpy and generator-loop oracles, and against
continuous-time expectations (DC gain, ramp response, corner attenuation).
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flapsim.estimation import (
    Estimator,
    FilterConfig,
    MocapSample,
    MocapSensor,
)
from flapsim.dynamics import VehicleState
from flapsim.spatial import Quaternion

import oracles
from oracles import conjugate, dot, from_yaw, negated

FS = 500.0
DT = 1.0 / FS
RATE_CORNER = 2.0 * math.pi * 30.0
VEL_CORNER = 2.0 * math.pi * 20.0


def filter_config(**overrides) -> FilterConfig:
    base = dict(
        rate_corner=RATE_CORNER,
        velocity_corner=VEL_CORNER,
        measurement_dt=DT,
    )
    base.update(overrides)
    return FilterConfig(**base)


def pose(position=(0.0, 0.0, 0.0), attitude=Quaternion()):
    return MocapSample(position=position, attitude=attitude, t=0.0)


def reference_derivative_filter(xs, corner, dt):
    """The published recurrence, recomputed from scratch."""
    b0 = 2.0 * corner / (2.0 + corner * dt)
    a1 = (corner * dt - 2.0) / (2.0 + corner * dt)
    ys = [0.0]
    for k in range(1, len(xs)):
        ys.append(b0 * (xs[k] - xs[k - 1]) - a1 * ys[k - 1])
    return np.array(ys)


def rate_filter_stream(est, attitudes):
    """The rate filter's input (the stored quaternion) and output, as two
    (n, 4) arrays, over the samples of ``attitudes``."""
    stored, filtered = [], []
    for q in attitudes:
        est.tick(pose(attitude=q))
        stored.append(est.memory[:4])
        filtered.append(est.memory[13:])
    return np.array(stored), np.array(filtered)


def test_derivative_filter_matches_reference():
    """The rate filter is the published recurrence, per quaternion component."""
    rng = np.random.default_rng(41)
    attitudes = [Quaternion(*v) for v in rng.standard_normal((300, 4)).tolist()]
    stored, filtered = rate_filter_stream(Estimator(filter_config()), attitudes)
    for i in range(4):
        want = reference_derivative_filter(stored[:, i], RATE_CORNER, DT)
        assert np.max(np.abs(filtered[:, i] - want)) < 1e-12


def test_velocity_filter_linearity():
    """The velocity path, a band-limited derivative of position, is linear
    in the position stream."""
    rng = np.random.default_rng(42)
    a, b = rng.standard_normal((2, 200, 3))
    fa, fb, fab = (Estimator(filter_config()) for _ in range(3))
    for xa, xb in zip(a, b):
        ya = np.array(fa.tick(pose(tuple(xa)))[4:7])
        yb = np.array(fb.tick(pose(tuple(xb)))[4:7])
        yab = np.array(fab.tick(pose(tuple(xa + xb)))[4:7])
        assert yab == pytest.approx(ya + yb, abs=1e-9)


def test_derivative_filter_ramp():
    """A slow yaw spin makes q_z = sin(0.1 t) a ramp of slope 0.1 to 0.4 %
    over 0.8 s; its filtered derivative settles to 0.1 within 1 %."""
    est = Estimator(filter_config(rate_corner=VEL_CORNER))
    for k in range(400):
        est.tick(pose(attitude=from_yaw(0.2 * k * DT)))
    assert est.memory[16] == pytest.approx(0.1, rel=1e-2)


def test_derivative_filter_corner_attenuation():
    """At the corner frequency the gain is 2 pi f / sqrt(2), Tustin-warped.
    The input is the z component of unit quaternions, 0.1 sin(2 pi f t)."""
    f = 30.0
    corner = 2.0 * math.pi * f
    n = 2000
    s = 0.1 * np.sin(2.0 * math.pi * f * np.arange(n) * DT)
    attitudes = [Quaternion(math.sqrt(1.0 - v * v), 0.0, 0.0, v) for v in s.tolist()]
    _, filtered = rate_filter_stream(Estimator(filter_config(rate_corner=corner)), attitudes)
    measured = np.max(np.abs(filtered[n // 2 :, 3])) / 0.1
    # discrete-time gain of the Tustin filter at z = exp(j w dt)
    z = np.exp(1j * 2.0 * math.pi * f * DT)
    b0 = 2.0 * corner / (2.0 + corner * DT)
    a1 = (corner * DT - 2.0) / (2.0 + corner * DT)
    expected = abs(b0 * (1.0 - 1.0 / z) / (1.0 + a1 / z))
    assert measured == pytest.approx(expected, rel=2e-3)


def test_low_pass_dc_gain():
    """A constant velocity passes the velocity filter at unit gain.  At the
    dyadic period 2^-9 s every position difference is exactly 3.75 m/s."""
    dt = 2.0**-9
    est = Estimator(filter_config(measurement_dt=dt))
    for k in range(300):
        v = est.tick(pose((3.75 * k * dt, 0.0, 0.0)))[4]
    assert v == pytest.approx(3.75, abs=1e-12)


@given(
    st.floats(1e-1, 1e4),
    st.integers(4, 17).map(lambda j: 2.0**-j),
    st.tuples(*[st.integers(-(2**40), 2**40)] * 3),
    st.integers(-30, 30),
)
def test_low_pass_passes_a_constant_stream(corner, dt, mantissas, exponent):
    """A constant velocity x comes out of the velocity filter up to the
    rounding of one update (4 ulp of x) divided by the filter's settling
    margin 1 - |a1|.  The filter starts settled on x, from a memory with x
    as its last difference and output; x and T are dyadic, so every
    position difference is exactly x."""
    x = np.ldexp(np.array(mantissas, dtype=float), exponent)
    est = Estimator(filter_config(velocity_corner=corner, measurement_dt=dt))
    est.memory = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, *x.tolist(), *x.tolist(),
                  0.0, 0.0, 0.0, 0.0)
    a1 = (corner * dt - 2.0) / (2.0 + corner * dt)
    tiny = np.finfo(float).smallest_subnormal
    bound = 4.0 * (np.finfo(float).eps * np.abs(x) + tiny) / (1.0 - abs(a1))
    for k in range(1, 101):
        v = est.tick(pose(tuple((k * x * dt).tolist())))[4:7]
        assert np.all(np.abs(np.array(v) - x) <= bound)


_corner = st.floats(1e-1, 1e4)
_dt = st.floats(1e-5, 1e-1)
# Finite entries, signed zeros and subnormals included, small enough that no
# filter overflows.
_entry = st.floats(-1e100, 1e100)
_unit = st.floats(-1.0, 1.0)
_quaternion = st.tuples(_unit, _unit, _unit, _unit).filter(
    lambda v: math.hypot(*v) > 1e-3
).map(lambda v: Quaternion(*v).normalized())


def _streams(*sizes):
    """Sequences of float tuples of one size drawn from ``sizes``."""
    return st.sampled_from(sizes).flatmap(
        lambda n: st.lists(st.tuples(*[_entry] * n), min_size=1, max_size=20)
    )


def assert_same_bits(got, want):
    """Python floats equal to the oracle's output, sign bits included."""
    assert all(type(v) is float for v in got)
    got = np.array(got)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def aligned(attitudes):
    """The normalized stream, each flipped to the hemisphere of the one
    before it, as the estimator stores it."""
    out = []
    for q in attitudes:
        q = q.normalized()
        if out and dot(q, out[-1]) < 0.0:
            q = negated(q)
        out.append(q)
    return out


@given(_corner, _dt, st.lists(st.tuples(_quaternion, st.booleans()), min_size=1, max_size=20))
def test_derivative_filter_matches_numpy_oracle(corner, dt, stream):
    """Over unit quaternions with random sign flips, the rate filter equals
    the numpy Tustin derivative of the hemisphere-aligned stream, and the
    rate columns equal 2 q^-1 * y through ``Quaternion``, bit for bit."""
    est = Estimator(filter_config(rate_corner=corner, measurement_dt=dt))
    oracle = oracles.LowPassDerivative(corner, dt, 4)
    attitudes = [negated(q) if flip else q for q, flip in stream]
    for q, q_aligned in zip(attitudes, aligned(attitudes)):
        omega = est.tick(pose(attitude=q))[11:]
        assert oracles.bits(est.memory[:4]) == oracles.bits(q_aligned)
        y = est.memory[13:]
        assert_same_bits(y, oracle.update(np.array(q_aligned)))
        prod = conjugate(q_aligned) * Quaternion(*y)
        assert oracles.bits(omega) == oracles.bits([2.0 * v for v in prod[1:]])
        assert oracles.bits([est.scalar_residual]) == oracles.bits([2.0 * prod.w])


# Any float, with signed zeros drawn often.
_any_entry = st.one_of(st.sampled_from([0.0, -0.0]), st.floats())


@given(_corner, _corner, _dt, st.lists(
    st.tuples(st.tuples(*[_any_entry] * 3), _quaternion), min_size=1, max_size=20
))
def test_filters_match_the_generator_loop(rate_corner, velocity_corner, dt, stream):
    """Both recurrences of ``Estimator.tick`` hold the bits of the generator
    loops: the velocity filter over the position differences (zero on the
    first sample) of any positions, -0.0, infinities and NaN included, and
    the rate filter over the stored quaternions."""
    est = Estimator(filter_config(
        rate_corner=rate_corner, velocity_corner=velocity_corner, measurement_dt=dt
    ))
    velocity = oracles.LowPass(velocity_corner, dt, 3)
    rate = oracles.LowPassDerivative(rate_corner, dt, 4)
    diffs, got_velocity, got_rate = [], [], []
    for k, (position, q) in enumerate(stream):
        got_velocity.append(est.tick(pose(position, q))[4:7])
        got_rate.append(est.memory[13:])
        previous = stream[k - 1][0] if k else position
        diffs.append(tuple([(r - rp) / dt if k else 0.0
                            for r, rp in zip(position, previous)]))
    want_velocity = oracles.tustin_lowpass(velocity.b0, velocity.a1, diffs)
    assert oracles.bits(got_velocity) == oracles.bits(want_velocity)
    stored = aligned([q for _, q in stream])
    want_rate = oracles.tustin_derivative(rate.b0, rate.a1, stored)
    assert oracles.bits(got_rate) == oracles.bits(want_rate)


@given(_corner, _corner, _dt, st.lists(
    st.tuples(st.tuples(*[_any_entry] * 3), _quaternion), min_size=1, max_size=20
), st.data())
def test_a_fresh_estimator_given_the_memory_continues_bit_for_bit(
    rate_corner, velocity_corner, dt, stream, data
):
    """``memory`` is the estimator's whole state: a fresh estimator handed
    another's memory at sample k gives the same estimates from there on."""
    config = filter_config(
        rate_corner=rate_corner, velocity_corner=velocity_corner, measurement_dt=dt
    )
    k = data.draw(st.integers(0, len(stream)))
    a = Estimator(config)
    for position, q in stream[:k]:
        a.tick(pose(position, q))
    b = Estimator(config)
    b.memory = a.memory
    for position, q in stream[k:]:
        assert oracles.bits(a.tick(pose(position, q))) == oracles.bits(
            b.tick(pose(position, q))
        )
        assert oracles.bits([a.scalar_residual]) == oracles.bits([b.scalar_residual])
        assert oracles.bits(a.memory) == oracles.bits(b.memory)


@given(_corner, _dt, _streams(3))
def test_velocity_filter_matches_numpy_oracle(corner, dt, xs):
    """The velocity columns of the estimate, against the numpy backward
    difference and low-pass."""
    est = Estimator(filter_config(velocity_corner=corner, measurement_dt=dt))
    oracle = oracles.VelocityFilter(corner, dt)
    for x in xs:
        assert_same_bits(est.tick(pose(x))[4:7], oracle.update(np.array(x)))


def test_velocity_filter_constant_velocity():
    v = np.array([0.08, -0.05, 0.02])
    est = Estimator(filter_config())
    out = np.zeros(3)
    for k in range(300):
        out = est.tick(pose(tuple(v * (k * DT))))[4:7]
    assert out == pytest.approx(v, rel=1e-2)


def test_rate_filter_stationary():
    est = Estimator(filter_config())
    q = Quaternion.from_euler_zyx(0.2, -0.1, 0.4)
    for _ in range(50):
        omega = est.tick(pose(attitude=q))[11:]
    assert np.max(np.abs(omega)) < 1e-9
    assert abs(est.scalar_residual) < 1e-9


def test_rate_filter_constant_spin():
    """A 2 rad/s yaw spin is recovered within 2% once the transient decays."""
    est = Estimator(filter_config())
    rate = 2.0
    for k in range(int(1.0 / DT)):
        omega = est.tick(pose(attitude=from_yaw(rate * k * DT)))[11:]
    assert omega[2] == pytest.approx(rate, rel=2e-2)
    assert abs(omega[0]) < 1e-2 and abs(omega[1]) < 1e-2
    # the residual reflects the filter lag, roughly rate^2 / (2 corner)
    assert abs(est.scalar_residual) < 0.01 * rate


def test_sensor_noise_statistics():
    config = filter_config(position_noise_std=5e-4, attitude_noise_std=4.4e-3)
    sensor = MocapSensor(config, seed=5)
    state = VehicleState()
    n = 20000
    pos = np.empty((n, 3))
    ang = np.empty(n)
    for k in range(n):
        s = sensor.sample(state)
        pos[k] = s.position
        w, x, y, z = s.attitude
        ang[k] = 2.0 * math.atan2(math.sqrt(x**2 + y**2 + z**2), abs(w))
    assert np.abs(pos.mean(axis=0)).max() < 3e-5
    assert pos.std(axis=0) == pytest.approx([5e-4] * 3, rel=0.05)
    # rotation angle of a 3-axis Gaussian rotation vector: chi distribution
    assert ang.mean() == pytest.approx(4.4e-3 * math.sqrt(2.0 / math.pi) * 2.0, rel=0.05)


def test_sensor_noise_free_passthrough():
    sensor = MocapSensor(filter_config(), seed=0)
    yaw = from_yaw(0.5)
    state = VehicleState(x=0.1, y=0.2, z=0.3, qw=yaw.w, qx=yaw.x, qy=yaw.y, qz=yaw.z)
    s = sensor.sample(state)
    assert s.position == pytest.approx(state[1:4], abs=0.0)
    assert dot(s.attitude, yaw) == pytest.approx(1.0, abs=1e-15)


def test_sensor_determinism():
    c = filter_config(position_noise_std=1e-3, attitude_noise_std=1e-3)
    a, b = MocapSensor(c, seed=99), MocapSensor(c, seed=99)
    state = VehicleState()
    for _ in range(20):
        sa, sb = a.sample(state), b.sample(state)
        assert np.array_equal(sa.position, sb.position)
        assert np.array(sa.attitude) == pytest.approx(np.array(sb.attitude), abs=0.0)


def test_sensor_noise_is_six_draws_per_sample():
    """600 samples, which cross two blocks of drawn noise, carry the noise of
    one standard_normal(6) call per sample; two sensors of one seed agree."""
    c = filter_config(position_noise_std=1e-3, attitude_noise_std=2e-3)
    yaw = from_yaw(0.3)
    state = VehicleState(x=0.1, y=-0.2, z=0.3, qw=yaw.w, qx=yaw.x, qy=yaw.y, qz=yaw.z)
    rng = np.random.default_rng(7)
    a, b = MocapSensor(c, seed=7), MocapSensor(c, seed=7)
    for _ in range(600):
        position, attitude = oracles.mocap_pose(state, 1e-3, 2e-3, rng.standard_normal(6).tolist())
        sa, sb = a.sample(state), b.sample(state)
        assert oracles.bits(sa.position) == oracles.bits(position)
        assert oracles.bits(sa.attitude) == oracles.bits(attitude)
        assert oracles.bits(sb.position) == oracles.bits(sa.position)
        assert oracles.bits(sb.attitude) == oracles.bits(sa.attitude)


# Finite floats without -0.0 (adding +0.0 turns -0.0 into +0.0 and keeps
# every other value).
_no_negative_zero = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: v + 0.0)


@given(
    st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 14),
    st.tuples(*[_no_negative_zero] * 7),
    st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 6),
)
def test_noiseless_sensor_matches_the_draw(state, pose, noise):
    """A sensor with zero noise draws nothing, and its sample equals the
    draw path's bit for bit wherever x, y, z, qw, qx, qy and qz are not -0.0."""
    state = VehicleState(state[0], *pose[:3], *state[4:7], *pose[3:], *state[11:])
    s = MocapSensor(filter_config(), seed=3).sample(state)
    position, attitude = oracles.mocap_pose(state, 0.0, 0.0, noise)
    assert oracles.bits(s.position) == oracles.bits(position)
    assert oracles.bits(s.attitude) == oracles.bits(attitude)
    assert s.t == state.t


def test_noiseless_draw_keeps_the_sign_of_the_noise_at_negative_zero():
    """The exception the MocapSensor docstring states: at a -0.0 component
    the draw path's sign follows the draw, so no draw-free sample can match
    it for every draw."""
    state = VehicleState(x=-0.0, qw=-0.0, qx=1.0)
    up = oracles.mocap_pose(state, 0.0, 0.0, (1.0,) * 6)
    down = oracles.mocap_pose(state, 0.0, 0.0, (-1.0,) * 6)
    assert oracles.bits([up[0][0], up[1].w]) == oracles.bits([0.0, -0.0])
    assert oracles.bits([down[0][0], down[1].w]) == oracles.bits([-0.0, 0.0])


def spin_samples(n, rate=2.0, flip_from=None):
    """Unit-quaternion spin about z; optionally sign-flipped from an index."""
    out = []
    for k in range(n):
        q = from_yaw(rate * k * DT)
        if flip_from is not None and k >= flip_from:
            q = negated(q)
        out.append(q)
    return out


@pytest.mark.parametrize("key", ["rate_corner", "velocity_corner", "measurement_dt"])
def test_estimator_rejects_a_non_positive_corner_or_period(key):
    with pytest.raises(ValueError, match="must be positive"):
        Estimator(filter_config(**{key: 0.0}))


def test_estimator_hemisphere_continuity():
    """Sign flips in the incoming stream do not disturb any estimate."""
    plain = Estimator(filter_config())
    flipped = Estimator(filter_config())
    for k, (qa, qb) in enumerate(zip(spin_samples(400), spin_samples(400, flip_from=123))):
        ea = plain.tick(MocapSample(position=np.zeros(3), attitude=qa, t=k * DT))
        eb = flipped.tick(MocapSample(position=np.zeros(3), attitude=qb, t=k * DT))
        assert ea[11:] == pytest.approx(eb[11:], abs=1e-15)
        qa, qb = Quaternion(*ea[7:11]), Quaternion(*eb[7:11])
        assert abs(abs(dot(qa, qb)) - 1.0) < 1e-15
        # consecutive stored attitudes never jump hemispheres
        if k > 0:
            assert dot(Quaternion(*flipped.memory[:4]), qb) >= 0.0


def test_estimator_zero_order_hold():
    """Each sample gives a new estimate; holding it in between is the run
    loop's job (see tests/test_scenarios.py)."""
    est = Estimator(filter_config())
    first = est.tick(
        MocapSample(position=np.array([1.0, 2.0, 3.0]), attitude=Quaternion(), t=0.0)
    )
    second = est.tick(
        MocapSample(position=np.array([1.1, 2.0, 3.0]), attitude=Quaternion(), t=3 * DT)
    )
    assert second is not first
    assert second[1:4] == pytest.approx([1.1, 2.0, 3.0])


def test_estimator_position_passthrough():
    est = Estimator(filter_config())
    rng = np.random.default_rng(44)
    for k in range(50):
        p = rng.standard_normal(3)
        out = est.tick(MocapSample(position=p, attitude=Quaternion(), t=k * DT))
        assert np.array_equal(out[1:4], p)
