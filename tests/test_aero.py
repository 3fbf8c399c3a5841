"""Cycle-averaged wing forces, mixing and allocation."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flapsim.aero import (
    ActuatorCommand,
    WingConfig,
    Wrench,
    allocate,
    cycle_avg_damping,
    cycle_avg_lift,
    mix,
    yaw_damping_coefficient,
)
from flapsim.config import config_from_dict
import oracles
from oracles import bits, mixing_matrix, wrench_vector

# calibrated so four stock wings lift 1.4 mN: (1.4e-3/4) / (100^2 rad(65)^2 50e-6)
C_LIFT = 0.0005438969100611174


def stock_wing(**overrides):
    wing = config_from_dict({}).vehicle.wing
    if overrides:
        from dataclasses import replace

        wing = replace(wing, **overrides)
    return wing


def test_stock_lift_calibration():
    wing = stock_wing()
    assert wing.c_lift == pytest.approx(C_LIFT, rel=1e-12)
    assert cycle_avg_lift(wing) == pytest.approx(3.5e-4, rel=1e-9)
    assert 4 * cycle_avg_lift(wing) == pytest.approx(1.4e-3, rel=1e-9)


def test_lift_scales_with_amplitude_squared():
    lo = stock_wing(flap_amplitude=math.radians(40.0))
    hi = stock_wing(flap_amplitude=math.radians(80.0))
    assert cycle_avg_lift(hi) / cycle_avg_lift(lo) == pytest.approx(4.0, rel=1e-12)


def test_lift_scales_with_frequency_squared():
    lo = stock_wing(flap_frequency=50.0)
    hi = stock_wing(flap_frequency=100.0)
    assert cycle_avg_lift(hi) / cycle_avg_lift(lo) == pytest.approx(4.0, rel=1e-12)


def test_damping_terms():
    wing = stock_wing()
    # rate term: 1.2e-5 * rad(65) * 100 * 50e-6 per unit rate
    assert cycle_avg_damping(wing, 1.0) == pytest.approx(6.806784082777886e-08, rel=1e-12)
    assert cycle_avg_damping(wing, 2.0) == pytest.approx(2 * 6.806784082777886e-08, rel=1e-12)


def test_matched_lift_damping_ratio():
    """Four wings at nu vs two at nu*sqrt(2): same lift, sqrt(2) more damping.

    Lift goes as nu^2 per wing, so halving the wing count at equal total lift
    needs nu -> nu*sqrt(2); damping goes as nu, leaving the four-wing design
    with sqrt(2) times the total damping force.  Checked over random wings.
    """
    rng = np.random.default_rng(21)
    for _ in range(200):
        wing4 = stock_wing(
            c_lift=rng.uniform(1e-4, 1e-3),
            c_damp_rate=rng.uniform(1e-6, 1e-4),
            flap_frequency=rng.uniform(50.0, 200.0),
            flap_amplitude=rng.uniform(0.3, 1.4),
            area=rng.uniform(2e-5, 1e-4),
        )
        from dataclasses import replace

        wing2 = replace(wing4, flap_frequency=wing4.flap_frequency * math.sqrt(2.0))
        assert 2 * cycle_avg_lift(wing2) == pytest.approx(4 * cycle_avg_lift(wing4), rel=1e-12)
        ratio = (4 * cycle_avg_damping(wing4, 1.0)) / (2 * cycle_avg_damping(wing2, 1.0))
        assert ratio == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_matched_lift_general_area_ratio():
    """With differing areas the damping ratio generalizes to sqrt(2 S4/S2)."""
    from dataclasses import replace

    rng = np.random.default_rng(22)
    for _ in range(100):
        wing4 = stock_wing(area=rng.uniform(2e-5, 1e-4))
        s2 = rng.uniform(2e-5, 1e-4)
        # matched total lift: 2 nu2^2 s2 = 4 nu4^2 s4
        nu2 = wing4.flap_frequency * math.sqrt(2.0 * wing4.area / s2)
        wing2 = replace(wing4, area=s2, flap_frequency=nu2)
        assert 2 * cycle_avg_lift(wing2) == pytest.approx(4 * cycle_avg_lift(wing4), rel=1e-12)
        ratio = (4 * cycle_avg_damping(wing4, 1.0)) / (2 * cycle_avg_damping(wing2, 1.0))
        assert ratio == pytest.approx(math.sqrt(2.0 * wing4.area / s2), rel=1e-12)


def test_yaw_damping_coefficient_frozen():
    wing = stock_wing()
    assert yaw_damping_coefficient(wing, 4) == pytest.approx(2.1781709064889234e-09, rel=1e-12)
    assert yaw_damping_coefficient(wing, 2) == pytest.approx(
        yaw_damping_coefficient(wing, 4) / 2, rel=1e-12
    )


def test_mixing_frozen_patterns():
    wing = stock_wing()
    kf, ks = wing.k_thrust, wing.k_steer
    d1, d2, d3 = wing.lever_roll, wing.lever_pitch, wing.lever_yaw

    even = mix(wing, [1.0, 1.0, 1.0, 1.0])
    assert even.thrust == pytest.approx(4 * kf)
    assert even.torque == pytest.approx([0.0, 0.0, 0.0], abs=1e-18)

    left_pair = mix(wing, [0.0, 0.0, 5.0, 5.0])
    assert left_pair.thrust == pytest.approx(2 * kf * 5.0)
    assert left_pair.torque[0] == pytest.approx(2 * kf * d1 * 5.0)
    assert left_pair.torque[1] == pytest.approx(0.0, abs=1e-18)
    assert left_pair.torque[2] == pytest.approx(0.0, abs=1e-18)

    diagonal = mix(wing, [7.0, 0.0, 0.0, 7.0])
    assert diagonal.thrust == pytest.approx(2 * kf * 7.0)
    assert diagonal.torque[0] == pytest.approx(0.0, abs=1e-18)
    assert diagonal.torque[1] == pytest.approx(0.0, abs=1e-18)
    assert diagonal.torque[2] == pytest.approx(2 * ks * d3 * 7.0)


def test_mix_agrees_with_matrix():
    wing = stock_wing()
    rng = np.random.default_rng(23)
    gamma = mixing_matrix(wing)
    for _ in range(200):
        v = rng.uniform(0.0, wing.v_max, size=4)
        assert wrench_vector(mix(wing, v)) == pytest.approx(gamma @ v, rel=1e-12)


def closed_form_inverse(wing: WingConfig) -> np.ndarray:
    """Independent inverse: the sign pattern is a Hadamard matrix H with
    H H^T = 4 I, so Gamma = D H gives Gamma^-1 = H^T D^-1 / 4."""
    h = np.array(
        [
            [1.0, 1.0, 1.0, 1.0],
            [-1.0, -1.0, 1.0, 1.0],
            [1.0, -1.0, 1.0, -1.0],
            [1.0, -1.0, -1.0, 1.0],
        ]
    )
    d = np.array(
        [
            wing.k_thrust,
            wing.k_thrust * wing.lever_roll,
            wing.k_thrust * wing.lever_pitch,
            wing.k_steer * wing.lever_yaw,
        ]
    )
    return h.T @ np.diag(1.0 / d) / 4.0


def test_inverse_against_closed_form():
    rng = np.random.default_rng(24)
    for _ in range(500):
        wing = stock_wing(
            k_thrust=rng.uniform(1e-7, 1e-5),
            k_steer=rng.uniform(1e-8, 1e-6),
            lever_roll=rng.uniform(1e-3, 2e-2),
            lever_pitch=rng.uniform(1e-3, 2e-2),
            lever_yaw=rng.uniform(1e-3, 2e-2),
        )
        gamma = mixing_matrix(wing)
        inv = np.linalg.inv(gamma)
        assert np.max(np.abs(inv - closed_form_inverse(wing))) / np.max(np.abs(inv)) < 1e-9
        assert np.max(np.abs(inv @ gamma - np.eye(4))) < 1e-12


def test_allocate_mix_round_trip():
    wing = stock_wing()
    rng = np.random.default_rng(25)
    for _ in range(500):
        v = rng.uniform(10.0, wing.v_max - 10.0, size=4)
        wrench = mix(wing, v)
        cmd = allocate(wing, wrench)
        assert not cmd.any_saturated
        assert np.max(np.abs(cmd.amplitudes - v)) < 1e-10


V_MAX = stock_wing().v_max
EPS = np.finfo(float).eps


@given(st.tuples(*[st.floats(0.0, V_MAX)] * 4))
# Wings at a bound whose unclamped solution rounds to just outside it.
@example((0.0, 106.2, 11.8, 12.7))
@example((130.0, 77.7, 0.0, 0.0))
@example((232.8, 226.8, 4.8, V_MAX))
def test_allocate_inverts_mix(v):
    """allocate(mix(v)) recovers any v in [0, v_max]^4 up to rounding and
    agrees with the dense inverse of the mixing matrix.  No wing is flagged,
    on the bounds neither: their round-off stays inside the tolerance."""
    wing = stock_wing()
    wrench = mix(wing, v)
    cmd = allocate(wing, wrench)
    dense = np.linalg.inv(mixing_matrix(wing)) @ wrench_vector(wrench)
    tol = 8.0 * EPS * V_MAX
    assert np.max(np.abs(cmd.amplitudes - np.array(v))) <= tol
    assert np.max(np.abs(cmd.amplitudes - np.clip(dense, 0.0, V_MAX))) <= tol
    assert not cmd.any_saturated


@pytest.mark.parametrize("edge, v1", [
    (0.0, -16.0 * EPS * V_MAX),
    (V_MAX, V_MAX + 16.0 * EPS * V_MAX),
])
def test_allocate_flags_a_solution_just_beyond_the_tolerance(edge, v1):
    """A wing whose solution lies 16 eps v_max outside the range, twice the
    8 eps v_max tolerance, is still flagged and clamped exactly to the
    bound; the wings inside the range are not flagged."""
    wing = stock_wing()
    cmd = allocate(wing, mix(wing, (v1, 100.0, 150.0, 200.0)))
    assert cmd.saturated == (True, False, False, False)
    assert cmd.amplitudes[0] == edge


def test_allocate_flags_an_infinite_solution_at_the_largest_v_max():
    """At the largest float v_max + tol is inf, yet an infinite solution is
    still flagged."""
    wing = stock_wing(v_max=sys.float_info.max)
    cmd = allocate(wing, Wrench(math.inf, (0.0, 0.0, 0.0)))
    assert cmd.saturated == (True,) * 4
    assert cmd.amplitudes == (sys.float_info.max,) * 4


def test_allocate_saturation_flags():
    wing = stock_wing()
    over = Wrench(thrust=8 * wing.k_thrust * wing.v_max, torque=np.zeros(3))
    cmd = allocate(wing, over)
    assert cmd.any_saturated
    assert np.all(cmd.saturated)
    assert np.all(np.asarray(cmd.amplitudes) == wing.v_max)

    negative = Wrench(thrust=-1e-3, torque=np.zeros(3))
    cmd = allocate(wing, negative)
    assert np.all(np.asarray(cmd.amplitudes) == 0.0)
    assert np.all(cmd.saturated)


def test_mix_works_where_allocation_is_singular():
    wing = stock_wing(k_steer=0.0)
    wrench = mix(wing, [10.0, 20.0, 30.0, 40.0])
    assert wrench.thrust == pytest.approx(wing.k_thrust * 100.0)
    assert wrench.torque[2] == 0.0
    with pytest.raises(ValueError, match="singular"):
        allocate(wing, wrench)
    for key in ("k_thrust", "lever_roll", "lever_pitch", "lever_yaw"):
        with pytest.raises(ValueError, match="singular"):
            allocate(stock_wing(**{key: 0.0}), wrench)


def test_actuator_command_default_flags():
    cmd = ActuatorCommand(amplitudes=np.zeros(4))
    assert not cmd.any_saturated


# Amplitudes on and next to the drive bounds, so that the unclamped solution
# of allocate(mix(v)) lands on, just inside or just outside them.
_bound_amplitude = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, V_MAX, math.nextafter(V_MAX, 0.0),
    math.nextafter(V_MAX, math.inf),
])
_signed_zero = st.sampled_from([0.0, -0.0])


@given(st.one_of(
    st.tuples(*[_bound_amplitude] * 4).map(lambda v: mix(stock_wing(), v)),
    st.builds(Wrench, st.floats(), st.tuples(*[_signed_zero] * 3)),
    st.builds(Wrench, st.floats(), st.tuples(*[st.floats()] * 3)),
))
@example(Wrench(4.0 * stock_wing().k_thrust * V_MAX, (0.0, -0.0, 0.0)))
@example(Wrench(0.0, (-0.0, -0.0, -0.0)))
@example(Wrench(-0.0, (0.0, 0.0, -0.0)))
def test_allocate_matches_the_generator_loop(wrench):
    """allocate's list-built tuples hold the loop oracle's bits, signed zeros
    and NaN included, and the same saturation flags, on the bounds too."""
    amplitudes, saturated = oracles.allocate(stock_wing(), wrench)
    cmd = allocate(stock_wing(), wrench)
    assert bits(cmd.amplitudes) == bits(amplitudes)
    assert cmd.saturated == saturated
    assert type(cmd.amplitudes) is tuple and type(cmd.saturated) is tuple


def test_wrench_and_command_are_tuples():
    """Wrench and ActuatorCommand compare equal to plain tuples; the command
    keeps its default flags and its any_saturated."""
    assert Wrench(1.0, (0.0, 0.0, 0.0)) == (1.0, (0.0, 0.0, 0.0))
    cmd = ActuatorCommand((1.0, 2.0, 3.0, 4.0))
    assert cmd == ((1.0, 2.0, 3.0, 4.0), (False, False, False, False))
    assert not cmd.any_saturated
    assert ActuatorCommand((0.0,) * 4, (False, True, False, False)).any_saturated
