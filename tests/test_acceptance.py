"""End-to-end acceptance checks.

Each test prints one ``PASS``/``FAIL`` line (visible under ``pytest -s`` or
on failure) with the measured numbers, then asserts.  Budgets on wall time
are asserted where the check is meant to stay cheap.

Run with::

    pytest tests/test_acceptance.py -v -s
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import flapsim
from flapsim.aero import allocate, cycle_avg_damping, cycle_avg_lift, mix
from flapsim.config import bundled_config_path, config_from_dict, load_config
from flapsim.dynamics import InertialConfig, VehicleState, step
from flapsim.estimation import Estimator, FilterConfig, MocapSample
from flapsim.scenarios import run_scenario
from flapsim.spatial import Quaternion, _euler_zyx, rotmat_to_quat
from flapsim.aero import Wrench
from oracles import mixing_matrix, rotation_matrix

BUNDLED = (
    "hover.cfg",
    "ballistic.cfg",
    "yaw_damp.cfg",
    "position_hold.cfg",
    "position_sat.cfg",
    "two_wing.cfg",
)
# Behaviour pins: CSV digest and metric reprs of each bundled scenario.
# Regenerate with scripts/regen_golden.py when a change moves a float.
GOLDEN = Path(__file__).parent / "golden" / "bundled.json"


def report(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_lift_calibration():
    t0 = time.perf_counter()
    vehicle = config_from_dict({}).vehicle
    lift_err = abs(vehicle.total_lift - 1.4e-3) / 1.4e-3
    ltw = vehicle.lift_to_weight
    elapsed = time.perf_counter() - t0
    ok = lift_err < 1e-3 and abs(ltw - 1.50) <= 0.01 and elapsed < 1.0
    report(
        1,
        ok,
        f"total lift {vehicle.total_lift:.6e} N (rel err {lift_err:.2e}), "
        f"lift/weight {ltw:.4f}, {elapsed:.2f} s",
    )


def test_criterion_2_sqrt2_damping():
    t0 = time.perf_counter()
    wing4 = config_from_dict({}).vehicle.wing
    wing2 = replace(wing4, flap_frequency=wing4.flap_frequency * math.sqrt(2.0))
    lift_match = abs(2 * cycle_avg_lift(wing2) - 4 * cycle_avg_lift(wing4))
    analytic = (4 * cycle_avg_damping(wing4, 1.0)) / (2 * cycle_avg_damping(wing2, 1.0))
    analytic_err = abs(analytic - math.sqrt(2.0))

    record = run_scenario(load_config(bundled_config_path("yaw_damp.cfg")))
    ratio = record.extra_metrics["yaw_decay_tau_ratio"]
    sim_err = abs(ratio - 1.0 / math.sqrt(2.0)) * math.sqrt(2.0)
    elapsed = time.perf_counter() - t0
    ok = (
        lift_match < 1e-12
        and analytic_err < 1e-6
        and record.status == 0
        and sim_err < 0.02
        and elapsed < 10.0
    )
    report(
        2,
        ok,
        f"analytic damping ratio {analytic:.8f} (err {analytic_err:.2e}), "
        f"simulated tau ratio {ratio:.6f} (rel err {sim_err:.2e}), {elapsed:.2f} s",
    )


def test_criterion_3_hover_reproduction():
    t0 = time.perf_counter()
    record = run_scenario(load_config(bundled_config_path("hover.cfg")))
    rise = record.metrics["altitude_rise_time_s"]
    roll = math.degrees(record.metrics["max_abs_roll_rad"])
    pitch = math.degrees(record.metrics["max_abs_pitch_rad"])
    elapsed = time.perf_counter() - t0
    ok = (
        record.status == 0
        and not math.isnan(rise)
        and rise <= 1.0
        and roll <= 12.0
        and pitch <= 12.0
        and elapsed < 30.0
    )
    report(
        3,
        ok,
        f"rise {rise:.3f} s, max |roll| {roll:.2f} deg, "
        f"max |pitch| {pitch:.2f} deg over 5 s, {elapsed:.2f} s",
    )


def test_criterion_4_position_hold():
    t0 = time.perf_counter()
    hold = run_scenario(load_config(bundled_config_path("position_hold.cfg")))
    rms = hold.metrics["rms_position_error_final2s_m"]

    saturating = run_scenario(load_config(bundled_config_path("position_sat.cfg")))
    sat_ticks = saturating.metrics["saturated_ticks"]
    elapsed = time.perf_counter() - t0
    ok = (
        hold.status == 0
        and rms < 5e-3
        and saturating.status == 0
        and sat_ticks > 0
        and elapsed < 30.0
    )
    report(
        4,
        ok,
        f"steady RMS {rms * 1e3:.3f} mm, saturating run flags {int(sat_ticks)} "
        f"ticks and completes, {elapsed:.2f} s",
    )


def test_criterion_5_integrator_correctness():
    t0 = time.perf_counter()
    vehicle = config_from_dict({}).vehicle

    ballistic = run_scenario(load_config(bundled_config_path("ballistic.cfg")))
    z_err = abs(ballistic.column("pos_z_m")[-1] - (-0.04905))

    spin_cfg = InertialConfig(
        mass=vehicle.mass,
        inertia=vehicle.inertia,
        gravity=vehicle.gravity,
        yaw_damping=0.0,
    )
    tau3 = 2.0e-9
    state = VehicleState()
    for _ in range(1000):
        state = step(state, Wrench(0.0, np.array([0.0, 0.0, tau3])), spin_cfg, 5e-4)
    spin_expect = tau3 * state.t / spin_cfg.inertia[2]
    spin_err = abs(state.wz - spin_expect) / spin_expect

    tumble_cfg = InertialConfig(
        mass=vehicle.mass,
        inertia=[1.5e-9, 2.4e-9, 3.1e-9],
        gravity=vehicle.gravity,
        yaw_damping=0.0,
    )

    def tumble(dt):
        s = VehicleState(wx=3.0, wy=-2.0, wz=1.0)
        for _ in range(round(0.2 / dt)):
            s = step(s, Wrench(0.0, np.zeros(3)), tumble_cfg, dt)
        return np.array([*s[11:], *s[7:11]])

    reference = tumble(2.5e-4)
    order = math.log2(
        np.linalg.norm(tumble(2e-3) - reference) / np.linalg.norm(tumble(1e-3) - reference)
    )
    elapsed = time.perf_counter() - t0
    ok = z_err < 1e-9 and spin_err < 1e-6 and order >= 3.9 and elapsed < 5.0
    report(
        5,
        ok,
        f"ballistic error {z_err:.2e} m, spin-up rel err {spin_err:.2e}, "
        f"RK4 order {order:.2f}, {elapsed:.2f} s",
    )


def test_criterion_6_allocation_round_trip():
    rng = np.random.default_rng(606)
    worst_identity = 0.0
    worst_round_trip = 0.0
    for _ in range(1000):
        wing = replace(
            config_from_dict({}).vehicle.wing,
            k_thrust=rng.uniform(1e-7, 1e-5),
            k_steer=rng.uniform(1e-8, 1e-6),
            lever_roll=rng.uniform(1e-3, 2e-2),
            lever_pitch=rng.uniform(1e-3, 2e-2),
            lever_yaw=rng.uniform(1e-3, 2e-2),
        )
        gamma = mixing_matrix(wing)
        residual = np.max(np.abs(np.linalg.inv(gamma) @ gamma - np.eye(4)))
        worst_identity = max(worst_identity, residual)

        v = rng.uniform(5.0, wing.v_max - 5.0, size=4)
        cmd = allocate(wing, mix(wing, v))
        worst_round_trip = max(worst_round_trip, np.max(np.abs(cmd.amplitudes - v)))
        assert not cmd.any_saturated
    ok = worst_identity < 1e-12 and worst_round_trip < 1e-10
    report(
        6,
        ok,
        f"worst ||inv(G) G - I|| {worst_identity:.2e}, "
        f"worst allocate(mix(v)) error {worst_round_trip:.2e} over 1000 sets",
    )


def test_criterion_7_rate_estimator():
    dt = 1.0 / 500.0
    corner = 2.0 * math.pi * 30.0
    rate = 2.0

    estimator = Estimator(FilterConfig(corner, corner, dt))
    for k in range(500):
        q = Quaternion.from_yaw(rate * k * dt)
        sample = MocapSample(position=(0.0, 0.0, 0.0), attitude=q, t=k * dt)
        omega = estimator.tick(sample)[11:]
    rate_err = abs(omega[2] - rate) / rate

    # identical estimators, one receiving a sign-flipped suffix
    plain = Estimator(FilterConfig(corner, corner, dt))
    flipped = Estimator(FilterConfig(corner, corner, dt))
    jump = 0.0
    for k in range(400):
        q = Quaternion.from_yaw(rate * k * dt)
        qf = -q if k >= 200 else q
        a = plain.tick(MocapSample(position=np.zeros(3), attitude=q, t=k * dt))
        b = flipped.tick(MocapSample(position=np.zeros(3), attitude=qf, t=k * dt))
        jump = max(jump, float(np.max(np.abs(np.subtract(a[11:], b[11:])))))
    ok = rate_err < 0.02 and jump == 0.0
    report(
        7,
        ok,
        f"2 rad/s spin recovered with rel err {rate_err:.2e}, "
        f"flip-induced estimate discontinuity {jump:.1e}",
    )


def test_criterion_8_quaternion_properties():
    n = 10_000
    rng = np.random.default_rng(808)

    def random_quaternion():
        v = rng.standard_normal(4)
        norm = np.linalg.norm(v)
        if norm < 1e-3:
            return Quaternion()
        return Quaternion(*(v / norm).tolist())

    def rotate(q, v):
        return np.array((q * Quaternion(0.0, *v.tolist()) * q.conjugate())[1:])

    def rodrigues(axis, angle):
        k = axis / np.linalg.norm(axis)
        kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0.0]])
        return np.eye(3) + math.sin(angle) * kx + (1 - math.cos(angle)) * (kx @ kx)

    def prop_norm_and_inverse():
        for _ in range(n):
            p, q = random_quaternion(), random_quaternion()
            if abs((p * q).norm() - 1.0) > 1e-12:
                return False
            # For a unit q the conjugate is the inverse.
            e = np.array(q * q.conjugate())
            if np.max(np.abs(e - [1.0, 0, 0, 0])) > 1e-12:
                return False
        return True

    def prop_associativity():
        for _ in range(n):
            p, q, r = random_quaternion(), random_quaternion(), random_quaternion()
            d = np.array((p * q) * r) - np.array(p * (q * r))
            if np.max(np.abs(d)) > 1e-12:
                return False
        return True

    def prop_sandwich_matches_matrix():
        for _ in range(n):
            q = random_quaternion()
            v = rng.standard_normal(3)
            if np.max(np.abs(rotate(q, v) - rotation_matrix(q) @ v)) > 1e-12:
                return False
        return True

    def prop_rodrigues():
        for _ in range(n):
            axis = rng.standard_normal(3)
            if np.linalg.norm(axis) < 1e-3:
                continue
            angle = rng.uniform(-math.pi, math.pi)
            rotvec = angle * axis / np.linalg.norm(axis)
            got = rotation_matrix(Quaternion.from_rotation_vector(rotvec.tolist()))
            if np.max(np.abs(got - rodrigues(axis, angle))) > 1e-11:
                return False
        return True

    def prop_matrix_round_trip():
        for _ in range(n):
            q = random_quaternion()
            back = rotmat_to_quat(rotation_matrix(q))
            if back.w < 0.0 or abs(abs(back.dot(q)) - 1.0) > 1e-9:
                return False
        return True

    def prop_double_cover():
        for _ in range(n):
            q = random_quaternion()
            d = rotation_matrix(q) - rotation_matrix(-q)
            if np.max(np.abs(d)) > 1e-12:
                return False
        return True

    def prop_euler_round_trip():
        for _ in range(n):
            roll = rng.uniform(-math.pi, math.pi)
            pitch = rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3)
            yaw = rng.uniform(-math.pi, math.pi)
            r, p, y = _euler_zyx(*Quaternion.from_euler_zyx(roll, pitch, yaw))
            if max(abs(r - roll), abs(p - pitch), abs(y - yaw)) > 1e-9:
                return False
        return True

    def prop_rotation_isometry():
        for _ in range(n):
            q = random_quaternion()
            a, b = rng.standard_normal(3), rng.standard_normal(3)
            if abs(rotate(q, a) @ rotate(q, b) - a @ b) > 1e-10:
                return False
        return True

    properties = {
        "norm/inverse": prop_norm_and_inverse,
        "associativity": prop_associativity,
        "sandwich=matrix": prop_sandwich_matches_matrix,
        "rodrigues": prop_rodrigues,
        "matrix round trip": prop_matrix_round_trip,
        "double cover": prop_double_cover,
        "euler round trip": prop_euler_round_trip,
        "isometry": prop_rotation_isometry,
    }
    failures = [name for name, check in properties.items() if not check()]
    ok = not failures
    report(
        8,
        ok,
        f"{len(properties)} properties x {n} cases"
        + (f", failing: {', '.join(failures)}" if failures else ""),
    )


def pin(record, csv_path: Path) -> dict:
    """The pinned figures of one run: CSV sha256 and exact metric reprs."""
    return {
        "csv_sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest(),
        "metrics": {k: repr(v) for k, v in sorted(record.metrics.items())},
        "extra_metrics": {k: repr(v) for k, v in sorted(record.extra_metrics.items())},
    }


def bundled_pins() -> dict:
    """Run every bundled scenario once; its pins by scenario file name."""
    pins = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in BUNDLED:
            out = Path(tmp) / f"{name}.csv"
            config = load_config(bundled_config_path(name))
            record = run_scenario(config)
            record.write_csv(out)
            pins[name] = pin(record, out)
    return pins


def first_difference(got: dict, want: dict) -> str:
    """The first pinned field where a fresh run differs from the golden pin."""
    if got["csv_sha256"] != want["csv_sha256"]:
        return f"csv_sha256 {got['csv_sha256']} != golden {want['csv_sha256']}"
    for group in ("metrics", "extra_metrics"):
        for key in sorted(set(got[group]) | set(want[group])):
            value, pinned = got[group].get(key), want[group].get(key)
            if value != pinned:
                return f"{group}.{key} {value} != golden {pinned}"
    return "no field differs"


def test_criterion_9_determinism(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    mismatched, drifted = [], []
    for name in BUNDLED:
        config = load_config(bundled_config_path(name))
        a = tmp_path / f"{config.name}_a.csv"
        b = tmp_path / f"{config.name}_b.csv"
        record = run_scenario(config)
        record.write_csv(a)
        run_scenario(config).write_csv(b)
        if a.read_bytes() != b.read_bytes():
            mismatched.append(name)
        figures = pin(record, a)
        if figures != golden[name]:
            drifted.append(f"{name} ({first_difference(figures, golden[name])})")
    ok = not mismatched and not drifted
    report(
        9,
        ok,
        "byte-identical CSVs for all bundled scenarios, matching the golden pins"
        if ok
        else f"mismatched: {', '.join(mismatched)}; off the golden pins: "
        f"{', '.join(drifted)}",
    )


# OpenBLAS kernels forced in place of the one the CPU selects.  Each child
# process computes the pins under one of them; the variable is set in the
# child's environment only.
BLAS_KERNELS = ("Prescott", "Haswell")
_PINS_CHILD = """\
import ctypes, glob, json, os
import numpy
from test_acceptance import bundled_pins
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*"))
try:
    corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    kernel = corename().decode()
except (IndexError, OSError, AttributeError):
    kernel = "unknown"
print(json.dumps({"kernel": kernel, "pins": bundled_pins()}))
"""


def test_criterion_9_pins_hold_on_other_blas_kernels():
    golden = json.loads(GOLDEN.read_text())
    path = [str(Path(flapsim.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(path + [env.get("PYTHONPATH", "")])
    children = {
        kernel: subprocess.Popen(
            [sys.executable, "-c", _PINS_CHILD],
            env=dict(env, OPENBLAS_CORETYPE=kernel),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for kernel in BLAS_KERNELS
    }
    results, drifted = [], []
    for kernel, child in children.items():
        out, err = child.communicate(timeout=600)
        assert child.returncode == 0, f"OPENBLAS_CORETYPE={kernel}: {err}"
        got = json.loads(out.strip().splitlines()[-1])
        results.append(f"{kernel} (OpenBLAS core {got['kernel']})")
        for name in BUNDLED:
            if got["pins"][name] != golden[name]:
                difference = first_difference(got["pins"][name], golden[name])
                drifted.append(f"{kernel}: {name} ({difference})")
    report(
        9,
        not drifted,
        f"golden pins hold under OPENBLAS_CORETYPE {', '.join(results)}"
        if not drifted
        else f"off the golden pins: {'; '.join(drifted)}",
    )
