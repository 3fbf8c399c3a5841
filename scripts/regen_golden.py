#!/usr/bin/env python3
"""Regenerate the behaviour pins in ``tests/golden/bundled.json``.

Runs every bundled scenario once and records what
``test_criterion_9_determinism`` compares a fresh run against: the sha256 of
the CSV and the exact ``repr`` of each metric.  A change that moves any float
reruns this script and says in CHANGES.md why the pins moved and by how much.

    PYTHONPATH=src python scripts/regen_golden.py
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_acceptance import BUNDLED, GOLDEN, pin  # noqa: E402

from flapsim.config import bundled_config_path, load_config  # noqa: E402
from flapsim.scenarios import run_scenario  # noqa: E402


def main() -> None:
    pins = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in BUNDLED:
            out = Path(tmp) / f"{name}.csv"
            pins[name] = pin(run_scenario(load_config(bundled_config_path(name)), out=out), out)
    GOLDEN.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
