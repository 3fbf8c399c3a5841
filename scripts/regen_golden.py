#!/usr/bin/env python3
"""Regenerate the behaviour pins in ``tests/golden/bundled.json``.

Runs every bundled scenario once and records what
``test_criterion_9_determinism`` compares a fresh run against: the sha256 of
the CSV and the exact ``repr`` of each metric.  Before the file is
overwritten, every pin that moved is printed: a changed CSV digest as old and
new sha256, a changed metric as old repr, new repr and the absolute and
relative difference.  A change that moves any float reruns this script and
quotes that report in CHANGES.md.  With ``--check`` it prints the same report,
writes nothing, and exits with status 1 if any pin moved.

    PYTHONPATH=src python scripts/regen_golden.py [--check]

No pinned figure passes through BLAS or LAPACK: the simulation, controller
and metrics run on Python floats and numpy elementwise operations and
reductions, so the pins hold whichever OpenBLAS kernel the CPU selects
(``tests/test_acceptance.py`` reruns them under two of them).  What remains
platform-dependent is libm: ``math.sin``, ``math.cos``, ``math.atan2``,
``math.asin`` and ``math.log`` are not required to be correctly rounded, so
a platform whose libm rounds one of them differently can still move the pins.
"""

import argparse
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_acceptance import GOLDEN, bundled_pins  # noqa: E402


def drift_report(old: dict, new: dict) -> list[str]:
    """One line per pinned figure that differs between ``old`` and ``new``."""
    lines = []
    for name in sorted(set(old) | set(new)):
        was, now = old.get(name), new.get(name)
        if was is None or now is None:
            lines.append(f"{name}: {'added' if was is None else 'removed'}")
            continue
        if was["csv_sha256"] != now["csv_sha256"]:
            lines.append(f"{name}: csv_sha256 {was['csv_sha256']} -> {now['csv_sha256']}")
        for group in ("metrics", "extra_metrics"):
            for key in sorted(set(was[group]) | set(now[group])):
                a, b = was[group].get(key), now[group].get(key)
                if a == b:
                    continue
                line = f"{name}: {group}.{key} {a} -> {b}"
                if a is not None and b is not None:
                    x, y = float(a), float(b)
                    diff = abs(y - x)
                    rel = diff / abs(x) if x else math.inf
                    line += f"  abs {diff:.3e} rel {rel:.3e}"
                lines.append(line)
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help="report only; exit 1 if any pin moved"
    )
    args = parser.parse_args(argv)
    pins = bundled_pins()
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    lines = drift_report(old, pins)
    print("\n".join(lines) if lines else "no pinned figure moved")
    if args.check:
        return 1 if lines else 0
    GOLDEN.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
