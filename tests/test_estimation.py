"""Pose sensor, derivative filters and the multi-rate estimator.

The discrete filters are verified against a difference-equation recursion
written out independently in this file, and against continuous-time
expectations (DC gain, ramp response, corner attenuation).
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flapsim.estimation import (
    AngularRateFilter,
    Estimator,
    FilterConfig,
    LowPass,
    LowPassDerivative,
    MocapSensor,
    VelocityFilter,
)
from flapsim.dynamics import VehicleState
from flapsim.spatial import Quaternion

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


def reference_derivative_filter(xs, corner, dt):
    """The published recurrence, recomputed from scratch."""
    b0 = 2.0 * corner / (2.0 + corner * dt)
    a1 = (corner * dt - 2.0) / (2.0 + corner * dt)
    ys = [0.0]
    for k in range(1, len(xs)):
        ys.append(b0 * (xs[k] - xs[k - 1]) - a1 * ys[k - 1])
    return np.array(ys)


def test_derivative_filter_matches_reference():
    rng = np.random.default_rng(41)
    xs = rng.standard_normal(300)
    filt = LowPassDerivative(RATE_CORNER, DT, 1)
    got = np.array([filt.update([x])[0] for x in xs])
    assert np.max(np.abs(got - reference_derivative_filter(xs, RATE_CORNER, DT))) < 1e-12


def test_derivative_filter_linearity():
    rng = np.random.default_rng(42)
    a = rng.standard_normal(200)
    b = rng.standard_normal(200)
    fa = LowPassDerivative(RATE_CORNER, DT, 1)
    fb = LowPassDerivative(RATE_CORNER, DT, 1)
    fab = LowPassDerivative(RATE_CORNER, DT, 1)
    for xa, xb in zip(a, b):
        ya = fa.update([xa])[0]
        yb = fb.update([xb])[0]
        yab = fab.update([xa + xb])[0]
        assert yab == pytest.approx(ya + yb, abs=1e-12)


def test_derivative_filter_ramp():
    """A ramp of slope 0.1 settles to derivative 0.1 within 1%."""
    filt = LowPassDerivative(VEL_CORNER, DT, 1)
    y = 0.0
    for k in range(400):
        y = filt.update([0.1 * k * DT])[0]
    assert y == pytest.approx(0.1, rel=1e-2)


def test_derivative_filter_corner_attenuation():
    """At the corner frequency the gain is 2 pi f / sqrt(2), Tustin-warped."""
    f = 30.0
    corner = 2.0 * math.pi * f
    filt = LowPassDerivative(corner, DT, 1)
    n = 2000
    t = np.arange(n) * DT
    xs = np.sin(2.0 * math.pi * f * t)
    ys = np.array([filt.update([x])[0] for x in xs])
    measured = np.max(np.abs(ys[n // 2 :]))
    # discrete-time gain of the Tustin filter at z = exp(j w dt)
    z = np.exp(1j * 2.0 * math.pi * f * DT)
    b0 = 2.0 * corner / (2.0 + corner * DT)
    a1 = (corner * DT - 2.0) / (2.0 + corner * DT)
    expected = abs(b0 * (1.0 - 1.0 / z) / (1.0 + a1 / z))
    assert measured == pytest.approx(expected, rel=2e-3)


def test_low_pass_dc_gain():
    filt = LowPass(VEL_CORNER, DT, 1)
    y = 0.0
    for _ in range(50):
        y = filt.update([3.7])[0]
    assert y == pytest.approx(3.7, abs=1e-12)


@given(
    st.floats(1e-1, 1e4),
    st.floats(1e-5, 1e-1),
    st.tuples(*[st.floats(-1e6, 1e6)] * 3).map(np.array),
)
def test_low_pass_passes_a_constant_stream(corner, dt, x):
    """A constant input comes out unchanged: exactly on the priming sample,
    then up to the rounding of one update (4 ulp of x) divided by the
    filter's settling margin 1 - |a1|."""
    filt = LowPass(corner, dt, 3)
    assert np.array_equal(filt.update(x), x)
    tiny = np.finfo(float).smallest_subnormal
    bound = 4.0 * (np.finfo(float).eps * np.abs(x) + tiny) / (1.0 - abs(filt.a1))
    for _ in range(100):
        assert np.all(np.abs(filt.update(x) - x) <= bound)


def test_velocity_filter_constant_velocity():
    v = np.array([0.08, -0.05, 0.02])
    filt = VelocityFilter(VEL_CORNER, DT)
    out = np.zeros(3)
    for k in range(300):
        out = filt.update(v * (k * DT))
    assert out == pytest.approx(v, rel=1e-2)


def test_rate_filter_stationary():
    filt = AngularRateFilter(RATE_CORNER, DT)
    q = Quaternion.from_euler_zyx(0.2, -0.1, 0.4)
    for _ in range(50):
        omega = filt.update(q)
    assert np.max(np.abs(omega)) < 1e-9
    assert abs(filt.scalar_residual) < 1e-9


def test_rate_filter_constant_spin():
    """A 2 rad/s yaw spin is recovered within 2% once the transient decays."""
    filt = AngularRateFilter(RATE_CORNER, DT)
    rate = 2.0
    omega = np.zeros(3)
    q_prev = None
    for k in range(int(1.0 / DT)):
        q = Quaternion.from_yaw(rate * k * DT)
        if q_prev is not None and q.dot(q_prev) < 0.0:
            q = -q
        q_prev = q
        omega = filt.update(q)
    assert omega[2] == pytest.approx(rate, rel=2e-2)
    assert abs(omega[0]) < 1e-2 and abs(omega[1]) < 1e-2
    # the residual reflects the filter lag, roughly rate^2 / (2 corner)
    assert abs(filt.scalar_residual) < 0.01 * rate


def test_sensor_noise_statistics():
    config = filter_config(position_noise_std=5e-4, attitude_noise_std=4.4e-3)
    sensor = MocapSensor(config, seed=5)
    state = VehicleState.at_rest()
    n = 20000
    pos = np.empty((n, 3))
    ang = np.empty(n)
    for k in range(n):
        s = sensor.sample(state)
        pos[k] = s.position
        ang[k] = s.attitude.rotation_angle()
    assert np.abs(pos.mean(axis=0)).max() < 3e-5
    assert pos.std(axis=0) == pytest.approx([5e-4] * 3, rel=0.05)
    # rotation angle of a 3-axis Gaussian rotation vector: chi distribution
    assert ang.mean() == pytest.approx(4.4e-3 * math.sqrt(2.0 / math.pi) * 2.0, rel=0.05)


def test_sensor_noise_free_passthrough():
    sensor = MocapSensor(filter_config(), seed=0)
    state = VehicleState.at_rest()
    state.position = np.array([0.1, 0.2, 0.3])
    state.attitude = Quaternion.from_yaw(0.5)
    s = sensor.sample(state)
    assert s.position == pytest.approx(state.position, abs=0.0)
    assert s.attitude.dot(state.attitude) == pytest.approx(1.0, abs=1e-15)


def test_sensor_determinism():
    c = filter_config(position_noise_std=1e-3, attitude_noise_std=1e-3)
    a, b = MocapSensor(c, seed=99), MocapSensor(c, seed=99)
    state = VehicleState.at_rest()
    for _ in range(20):
        sa, sb = a.sample(state), b.sample(state)
        assert np.array_equal(sa.position, sb.position)
        assert sa.attitude.as_array() == pytest.approx(sb.attitude.as_array(), abs=0.0)


def spin_samples(n, rate=2.0, flip_from=None):
    """Unit-quaternion spin about z; optionally sign-flipped from an index."""
    out = []
    for k in range(n):
        q = Quaternion.from_yaw(rate * k * DT)
        if flip_from is not None and k >= flip_from:
            q = -q
        out.append(q)
    return out


def test_estimator_hemisphere_continuity():
    """Sign flips in the incoming stream do not disturb any estimate."""
    plain = Estimator(filter_config())
    flipped = Estimator(filter_config())
    from flapsim.estimation import MocapSample

    for k, (qa, qb) in enumerate(zip(spin_samples(400), spin_samples(400, flip_from=123))):
        ea = plain.tick(MocapSample(position=np.zeros(3), attitude=qa, t=k * DT))
        eb = flipped.tick(MocapSample(position=np.zeros(3), attitude=qb, t=k * DT))
        assert ea.omega == pytest.approx(eb.omega, abs=1e-15)
        assert abs(abs(ea.attitude.dot(eb.attitude)) - 1.0) < 1e-15
        # consecutive stored attitudes never jump hemispheres
        if k > 0:
            assert flipped._q_prev.dot(eb.attitude) >= 0.0


def test_estimator_zero_order_hold():
    from flapsim.estimation import MocapSample

    est = Estimator(filter_config())
    with pytest.raises(RuntimeError):
        _ = est.estimate
    first = est.tick(
        MocapSample(position=np.array([1.0, 2.0, 3.0]), attitude=Quaternion.identity(), t=0.0)
    )
    held = est.tick(None)
    assert held is first
    held = est.tick(None)
    assert held is first
    second = est.tick(
        MocapSample(position=np.array([1.1, 2.0, 3.0]), attitude=Quaternion.identity(), t=3 * DT)
    )
    assert second is not first
    assert second.position == pytest.approx([1.1, 2.0, 3.0])


def test_estimator_position_passthrough():
    from flapsim.estimation import MocapSample

    est = Estimator(filter_config())
    rng = np.random.default_rng(44)
    for k in range(50):
        p = rng.standard_normal(3)
        out = est.tick(MocapSample(position=p, attitude=Quaternion.identity(), t=k * DT))
        assert np.array_equal(out.position, p)
