#!/usr/bin/env python3
"""Sweep controller gains and the vibration amplitude over bundled scenarios.

This is the tool the shipped defaults were tuned with.  It patches one knob
at a time in a bundled scenario, reruns it and prints the metrics that the
acceptance envelope cares about, so a retune after a vehicle change is a
matter of reading three tables.

    python scripts/tune_gains.py attitude    # K1/K2 scale on the hover run
    python scripts/tune_gains.py position    # z-axis PID on position hold
    python scripts/tune_gains.py vibration   # disturbance amplitude vs tilt
"""

import argparse
import copy
import math
import sys

from flapsim.config import bundled_config_path, config_from_dict, read_raw
from flapsim.scenarios import run_scenario


def load_raw(name: str) -> dict:
    return read_raw(bundled_config_path(name))


def run(raw: dict):
    record = run_scenario(config_from_dict(raw))
    m = record.metrics
    return {
        "status": record.status,
        "rise_s": m["altitude_rise_time_s"],
        "tilt_deg": math.degrees(max(m["max_abs_roll_rad"], m["max_abs_pitch_rad"])),
        "rms2s_mm": 1e3 * m["rms_position_error_final2s_m"],
        "sat": int(m["saturated_ticks"]),
    }


def sweep_attitude() -> None:
    base = load_raw("hover.cfg")
    k1 = [4.8e-6, 4.8e-6, 2.4e-6]
    k2 = [1.5e-8, 1.5e-8, 8.0e-9]
    print("scale  status  rise_s  tilt_deg  sat")
    for scale in (0.25, 0.5, 1.0, 2.0, 4.0):
        raw = copy.deepcopy(base)
        raw.setdefault("control", {})["attitude_k1_n_m"] = [scale * v for v in k1]
        raw["control"]["attitude_k2_n_m_s"] = [scale * v for v in k2]
        r = run(raw)
        print(
            f"{scale:5.2f}  {r['status']:6d}  {r['rise_s']:6.3f}  "
            f"{r['tilt_deg']:8.2f}  {r['sat']:4d}"
        )


def sweep_position() -> None:
    base = load_raw("position_hold.cfg")
    print("kp_z     ki_z     status  rise_s  rms2s_mm")
    for kp_z in (1.2e-3, 2.4e-3, 4.8e-3):
        for ki_z in (5e-4, 2e-3, 4e-3):
            raw = copy.deepcopy(base)
            raw.setdefault("control", {})["position_kp_n_per_m"] = [1.5e-3, 1.5e-3, kp_z]
            raw["control"]["position_ki_n_per_m_s"] = [2.0e-4, 2.0e-4, ki_z]
            r = run(raw)
            print(
                f"{kp_z:7.1e}  {ki_z:7.1e}  {r['status']:6d}  "
                f"{r['rise_s']:6.3f}  {r['rms2s_mm']:8.3f}"
            )


def sweep_vibration() -> None:
    base = load_raw("hover.cfg")
    print("amp_n_m   status  tilt_deg  rise_s")
    for amp in (0.0, 2.5e-5, 5e-5, 1.03e-4, 1.5e-4, 2e-4):
        raw = copy.deepcopy(base)
        raw.setdefault("disturbance", {})["vibration_amplitude_n_m"] = amp
        r = run(raw)
        print(f"{amp:8.2e}  {r['status']:6d}  {r['tilt_deg']:8.2f}  {r['rise_s']:6.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("knob", choices=("attitude", "position", "vibration"))
    args = parser.parse_args(argv)
    {"attitude": sweep_attitude, "position": sweep_position, "vibration": sweep_vibration}[
        args.knob
    ]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
