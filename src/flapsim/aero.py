"""Cycle-averaged wing aerodynamics, wrench mixing and drive allocation.

The flapping cycle is much faster than the body dynamics, so each wing is
modelled by its stroke-averaged forces as functions of the flapping frequency
``nu`` [Hz], the per-quadrant stroke amplitude ``phi0`` [rad] and the wing
area.  Lumped coefficients absorb air density, mean chord and the spanwise
force distribution:

* lift        f_L = c_lift * nu^2 * phi0^2 * S
* damping     f_D = c_damp_rate * phi0 * nu * w * S
  (force opposing a body rotation at rate ``w`` about an axis in the stroke
  plane, per wing)
* steering    f_S = c_lift * S * sin(beta) * nu^2 * phi0^2, acting with moment
  arm ``steering_arm`` about the body z axis when a wing pair is driven
  asymmetrically; ``beta`` is the stroke-plane inclination.

Each wing is driven by a single voltage-like command amplitude v.  Around the
operating point the per-wing thrust is k_thrust * v and the per-wing steering
force is k_steer * v, which makes the body wrench linear in the four command
amplitudes.  Wing numbering, viewed from above with body x forward:

    1 front-right, 2 rear-right, 3 front-left, 4 rear-left

Wings 1 and 4 share one stroke-plane handedness and 2 and 3 the other, so the
diagonal pairs steer yaw in opposite senses.

:class:`Wrench` and :class:`ActuatorCommand` are named tuples, like
``Quaternion`` and ``VehicleState``: a closed-loop tick builds three of them,
and a tuple is cheaper to build than a frozen dataclass.  A ``Wrench``
therefore compares equal to the plain tuple ``(thrust, torque)``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "WingConfig",
    "Wrench",
    "ActuatorCommand",
    "cycle_avg_lift",
    "cycle_avg_damping",
    "yaw_damping_coefficient",
    "mix",
    "singular_entry",
    "allocate",
]

# allocate flags a wing only past this share of v_max beyond [0, v_max]: an
# achievable wrench solves back to within a few eps * v_max of the range.
_ROUND_OFF = 8.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class WingConfig:
    """Geometry, drive calibration and lumped coefficients for one wing.

    The same record also carries the lever arms of the four-wing layout used
    by the mixing matrix.  All values are SI.
    """

    area: float  # single-wing area [m^2]
    flap_amplitude: float  # per-quadrant stroke amplitude phi0 [rad]
    flap_frequency: float  # nu [Hz]
    stroke_inclination: float  # stroke-plane tilt beta [rad]
    c_lift: float  # lift coefficient [N s^2 / (rad^2 m^2)]
    c_damp_rate: float  # rate-damping coefficient
    k_thrust: float  # per-wing thrust per command unit [N/V]
    k_steer: float  # per-wing steering force per command unit [N/V]
    lever_roll: float  # d1, lateral offset of each wing pair [m]
    lever_pitch: float  # d2, longitudinal offset [m]
    lever_yaw: float  # d3, yaw moment arm of the steering force [m]
    steering_arm: float  # r_S, moment arm of f_S about body z [m]
    v_max: float  # drive amplitude limit [V]


class Wrench(NamedTuple):
    """Total thrust [N] along body z plus body torque [N m]."""

    thrust: float
    torque: tuple[float, float, float]


class ActuatorCommand(NamedTuple):
    """Per-wing drive amplitudes after clamping, with saturation flags."""

    amplitudes: tuple[float, float, float, float]  # [V], clamped to [0, v_max]
    saturated: tuple[bool, bool, bool, bool] = (False, False, False, False)

    @property
    def any_saturated(self) -> bool:
        return any(self.saturated)


def cycle_avg_lift(wing: WingConfig) -> float:
    """Stroke-averaged lift of a single wing [N]."""
    return (
        wing.c_lift
        * wing.flap_frequency**2
        * wing.flap_amplitude**2
        * wing.area
    )


def cycle_avg_damping(wing: WingConfig, body_rate: float) -> float:
    """Stroke-averaged damping force of one wing opposing a body rotation.

    ``body_rate`` [rad/s] is the component of the body angular velocity about
    the relevant axis; the force grows with the stroke speed phi0 * nu.
    """
    return (
        wing.c_damp_rate
        * wing.flap_amplitude
        * wing.flap_frequency
        * body_rate
        * wing.area
    )


def yaw_damping_coefficient(wing: WingConfig, n_wings: int) -> float:
    """Passive yaw damping constant b [N m s/rad] of an ``n_wings`` vehicle.

    Each wing opposes a yaw rate with its cycle-averaged damping force acting
    at the steering arm, so b is the per-unit-rate damping force summed over
    the wings times the arm.
    """
    return n_wings * cycle_avg_damping(wing, 1.0) * wing.steering_arm


def mix(wing: WingConfig, amplitudes) -> Wrench:
    """Body wrench u = [f, t1, t2, t3] produced by the four drive amplitudes.

        f  = k_f  * ( v1 + v2 + v3 + v4)
        t1 = k_f d1 * (-v1 - v2 + v3 + v4)
        t2 = k_f d2 * ( v1 - v2 + v3 - v4)
        t3 = k_s d3 * ( v1 - v2 - v3 + v4)

    Raising the left pair (3, 4) rolls positive about +x, raising the front
    pair (1, 3) pitches positive about +y, and driving one diagonal pair
    harder than the other yaws through the steering forces.  The map is
    evaluated directly, so it also works where it cannot be inverted (for
    example k_steer = 0 in open-loop drills).
    """
    v1, v2, v3, v4 = amplitudes
    kf = wing.k_thrust
    return Wrench(
        kf * (v1 + v2 + v3 + v4),
        (
            kf * wing.lever_roll * (-v1 - v2 + v3 + v4),
            kf * wing.lever_pitch * (v1 - v2 + v3 - v4),
            wing.k_steer * wing.lever_yaw * (v1 - v2 - v3 + v4),
        ),
    )


def singular_entry(wing: WingConfig) -> str | None:
    """The first zero entry of D = diag(k_f, k_f d1, k_f d2, k_s d3), named by
    its factors, or None when Gamma (see :func:`allocate`) can be inverted.
    The entries are tested, since non-zero factors can underflow to zero."""
    kf, ks = wing.k_thrust, wing.k_steer
    entries = (kf, kf * wing.lever_roll, kf * wing.lever_pitch, ks * wing.lever_yaw)
    names = ("k_thrust", "k_thrust * lever_roll", "k_thrust * lever_pitch",
             "k_steer * lever_yaw")
    return names[entries.index(0.0)] if 0.0 in entries else None


def allocate(wing: WingConfig, wrench: Wrench) -> ActuatorCommand:
    """Invert :func:`mix` and clamp the amplitudes to [0, v_max].

    The map of :func:`mix` is Gamma = D H with D = diag(k_f, k_f d1, k_f d2,
    k_s d3) and the sign pattern H a Hadamard matrix (H H^T = 4 I), so
    Gamma^-1 = H^T D^-1 / 4 in closed form.  A wing is flagged as saturated
    when its unclamped solution fell outside the drive range by more than
    round-off (8 eps v_max), so the wrench of amplitudes at 0 or v_max is not
    flagged; the returned amplitudes are clamped exactly to the limits.

    Raises ValueError when an entry of D is zero; see :func:`singular_entry`.
    The zero is found by the division it breaks, which raises only for
    Python floats: a numpy scalar divided by zero gives inf instead.
    """
    kf, ks = wing.k_thrust, wing.k_steer
    d1, d2, d3 = wing.lever_roll, wing.lever_pitch, wing.lever_yaw
    t1, t2, t3 = wrench.torque
    try:  # a float divided by 0.0 raises, so no entry is tested per call
        a = wrench.thrust / kf
        b = t1 / (kf * d1)
        c = t2 / (kf * d2)
        d = t3 / (ks * d3)
    except ZeroDivisionError:
        raise ValueError(
            f"mixing matrix is singular: {singular_entry(wing)} is zero"
        ) from None
    v1 = 0.25 * (a - b + c + d)
    v2 = 0.25 * (a - b - c - d)
    v3 = 0.25 * (a + b + c - d)
    v4 = 0.25 * (a + b - c + d)
    v_max = wing.v_max
    tol = _ROUND_OFF * v_max
    # v - v_max, not v > v_max + tol, which is inf for v_max near the float max.
    saturated = (
        -v1 > tol or v1 - v_max > tol,
        -v2 > tol or v2 - v_max > tol,
        -v3 > tol or v3 - v_max > tol,
        -v4 > tol or v4 - v_max > tol,
    )
    # Clamped by comparisons in min(max(v, 0.0), v_max)'s order, which keeps
    # its NaN and signed zeros.
    if 0.0 > v1:
        v1 = 0.0
    if v_max < v1:
        v1 = v_max
    if 0.0 > v2:
        v2 = 0.0
    if v_max < v2:
        v2 = v_max
    if 0.0 > v3:
        v3 = 0.0
    if v_max < v3:
        v3 = v_max
    if 0.0 > v4:
        v4 = 0.0
    if v_max < v4:
        v4 = v_max
    return ActuatorCommand((v1, v2, v3, v4), saturated)
