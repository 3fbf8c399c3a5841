"""Scenario benchmark for flapsim.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload position_hold --seed 1 --seconds 30 --trace 0

One invocation runs one workload in this single process.  A *pass* is one
unit of the workload (one scenario run, or one seed ensemble); passes repeat
until the next one would overrun ``--seconds``.  Every run in a pass writes
its CSV, reads it back and is checked; the last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, which come
from wrapping flapsim's public entry points from outside the package.  A
per-run record (environment, CSV digests and exact metrics of every
(workload, seed), all figures) is written under ``perfbench/results/``.
See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import os

# Single-threaded numpy; must be set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import gc
import hashlib
import json
import math
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7  # measured fresh interpreters per run, after one warm-up
WARMUP_DURATION_S = 0.05  # scenario length of the untimed warm-up run

# Runs in a fresh interpreter: time `import flapsim` and `load_config`.
_SETUP_CHILD = """\
import json, sys, time
t0 = time.perf_counter()
import flapsim
t1 = time.perf_counter()
flapsim.load_config(sys.argv[1])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_config_s": t2 - t1}))
"""


# --------------------------------------------------------------------------
# Workloads and their design envelopes
# --------------------------------------------------------------------------


def _position_hold_envelope(record) -> str | None:
    err = record.metrics["rms_position_error_final2s_m"]
    return None if err < 5e-3 else f"rms_position_error_final2s_m {err!r} >= 5e-3"


def _yaw_damp_envelope(record) -> str | None:
    ratio = record.extra_metrics.get("yaw_decay_tau_ratio", math.nan)
    target = 1.0 / math.sqrt(2.0)
    if abs(ratio - target) <= 0.02 * target:
        return None
    return f"yaw_decay_tau_ratio {ratio!r} not within 2 % of 1/sqrt(2)"


def _hover_envelope(record) -> str | None:
    rise = record.metrics["altitude_rise_time_s"]
    tilt = max(record.metrics["max_abs_roll_rad"], record.metrics["max_abs_pitch_rad"])
    if not rise <= 1.0:
        return f"altitude_rise_time_s {rise!r} > 1.0"
    if not tilt <= math.radians(12.0):
        return f"max tilt {math.degrees(tilt)!r} deg > 12"
    return None


@dataclass(frozen=True)
class Workload:
    config: str  # bundled scenario file
    members: int  # runs per pass, each with its own seed
    duration: float | None  # scenario length override [s]; None keeps the config's
    envelope: Callable[[object], str | None]  # None when the run is inside it


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "position_hold": Workload("position_hold.cfg", 1, None, _position_hold_envelope),
    "yaw_damp": Workload("yaw_damp.cfg", 1, None, _yaw_damp_envelope),
    # Short members so a pass holds many seeds and many small CSVs; 1.0 s
    # still covers the 0.5 s vibration ramp and the ~0.55 s altitude rise.
    "hover_seeds": Workload("hover.cfg", 4, 1.0, _hover_envelope),
}


def member_seeds(workload: Workload, seed: int) -> list[int]:
    """Distinct scenario seeds derived from the workload seed."""
    return random.Random(seed).sample(range(2**31), workload.members)


# --------------------------------------------------------------------------
# Output checks
# --------------------------------------------------------------------------


def _same_metrics(a: dict, b: dict) -> bool:
    """Exact equality of two metric dicts; NaN equals NaN."""
    return a.keys() == b.keys() and all(repr(a[k]) == repr(b[k]) for k in a)


class Checker:
    """Checks every run and keeps the drift record of each (workload, seed)."""

    def __init__(self) -> None:
        self.runs = 0
        self.failures: list[str] = []
        self.drift: dict[str, dict] = {}
        self.csv_bytes = 0

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, workload: str, seed: int, record, csv_path: Path) -> None:
        """Check one run whose CSV has been written to ``csv_path``."""
        from flapsim import scenarios

        self.runs += 1
        problems = []
        if record.status != 0:
            problems.append(f"status {record.status}")
        try:
            rows = scenarios.read_csv(csv_path)
        except ValueError as exc:
            problems.append(f"CSV does not read back: {exc}")
        else:
            if not _same_metrics(scenarios.metrics_from_rows(rows), record.metrics):
                problems.append("metrics recomputed from the CSV differ from record.metrics")
        envelope = WORKLOADS[workload].envelope(record)
        if envelope is not None:
            problems.append(envelope)
        data = csv_path.read_bytes()
        self.csv_bytes += len(data)
        digest = hashlib.sha256(data).hexdigest()
        key = f"{workload}/{seed}"
        first = self.drift.setdefault(
            key,
            {
                "csv_sha256": digest,
                "metrics": {k: repr(v) for k, v in record.metrics.items()},
                "extra_metrics": {k: repr(v) for k, v in record.extra_metrics.items()},
            },
        )
        if first["csv_sha256"] != digest:
            problems.append("CSV differs from an earlier repeat of the same seed")
        if problems:
            self.failures.append(f"{key}: " + "; ".join(problems))


# --------------------------------------------------------------------------
# Tracing from outside the package
# --------------------------------------------------------------------------


class Tracer:
    """Spans around flapsim's public entry points, installed by patching.

    Each span's duration and self time (duration minus its direct child
    spans) are kept in memory per span name; counts sit beside them.
    """

    def __init__(self) -> None:
        self.durations: dict[str, array] = {}
        self.self_times: dict[str, array] = {}
        self.counts = {"control.tick.holds": 0, "aero.allocate.saturated": 0}
        self._stack: list[float] = []  # child time accumulated per open span
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn: Callable) -> Callable:
        durations = self.durations.setdefault(name, array("d"))
        self_times = self.self_times.setdefault(name, array("d"))
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                durations.append(dt)
                self_times.append(dt - child)

        return wrapper

    def install(self) -> None:
        from flapsim import control, estimation, scenarios

        span = self._span
        counts = self.counts
        tick = span("control.tick", control.FlightController.tick)
        allocate = span("aero.allocate", control.allocate)
        update = span("estimation.update", estimation.Estimator.tick)
        hold = span("estimation.hold", estimation.Estimator.tick)

        def traced_tick(controller, *args, **kwargs):
            before = controller.last_command
            command = tick(controller, *args, **kwargs)
            if command is before:  # ControlError swallowed, command held
                counts["control.tick.holds"] += 1
            return command

        def traced_allocate(*args, **kwargs):
            command = allocate(*args, **kwargs)
            if command.any_saturated:
                counts["aero.allocate.saturated"] += 1
            return command

        def traced_estimator_tick(estimator, sample):
            return (hold if sample is None else update)(estimator, sample)

        patches = [
            (scenarios, "run_scenario", span("scenarios.run_scenario", scenarios.run_scenario)),
            (scenarios, "step", span("dynamics.step", scenarios.step)),
            (scenarios, "mix", span("aero.mix", scenarios.mix)),
            (scenarios, "metrics_from_rows",
             span("scenarios.metrics_from_rows", scenarios.metrics_from_rows)),
            (scenarios, "read_csv", span("scenarios.read_csv", scenarios.read_csv)),
            (scenarios.RunRecord, "write_csv",
             span("scenarios.write_csv", scenarios.RunRecord.write_csv)),
            (control.FlightController, "tick", traced_tick),
            (control, "desired_attitude", span("control.desired_attitude", control.desired_attitude)),
            (control, "rotmat_to_quat", span("spatial.rotmat_to_quat", control.rotmat_to_quat)),
            (control, "allocate", traced_allocate),
            (estimation.MocapSensor, "sample", span("estimation.sample", estimation.MocapSensor.sample)),
            (estimation.Estimator, "tick", traced_estimator_tick),
        ]
        for owner, attr, wrapper in patches:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def total(self, name: str) -> float:
        return math.fsum(self.durations.get(name, ()))

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def us(self, name: str, q: float, self_time: bool = False) -> float:
        """Percentile ``q`` of a span's duration (or self time) in µs; 0 without calls."""
        import numpy as np

        values = (self.self_times if self_time else self.durations).get(name)
        if not values:
            return 0.0
        return float(np.percentile(np.asarray(values), q)) * 1e6


# --------------------------------------------------------------------------
# Measurement
# --------------------------------------------------------------------------


@dataclass
class Pass:
    wall_s: float  # whole pass: runs, CSV writes and read-back checks
    scenario_s: float  # inside run_scenario only
    rows: int
    traced: bool

    @property
    def ticks_per_s(self) -> float:
        return self.rows / self.scenario_s


def run_pass(name: str, config, seeds: list[int], workdir: Path, checker: Checker, traced: bool) -> Pass:
    from flapsim import scenarios

    workload = WORKLOADS[name]
    scenario_s = 0.0
    rows = 0
    gc.collect()
    start = time.perf_counter()
    for seed in seeds:
        t0 = time.perf_counter()
        record = scenarios.run_scenario(config, seed=seed, duration=workload.duration)
        scenario_s += time.perf_counter() - t0
        rows += len(record.rows)
        csv_path = workdir / f"{seed}.csv"
        record.write_csv(csv_path)
        checker.check(name, seed, record, csv_path)
    return Pass(time.perf_counter() - start, scenario_s, rows, traced)


def measure_setup(config_path: Path) -> list[dict]:
    """Import plus config load in fresh interpreters, one warm-up first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(config_path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples[1:]


def environment(seed: int, traced: bool) -> dict:
    import numpy
    import flapsim

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "flapsim": flapsim.__version__,
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "workload_seed": seed,
        "traced": traced,
    }


def end_to_end_metrics(passes: list[Pass], setup: list[dict]) -> dict:
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "ticks_per_s": (statistics.median(p.ticks_per_s for p in passes), "1/s"),
        "setup_s": (statistics.median(s["import_s"] + s["load_config_s"] for s in setup), "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }


def per_layer_metrics(tracer: Tracer, passes: list[Pass], setup: list[dict], csv_bytes_per_pass: int) -> dict:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    n = len(traced)
    scenario_total = tracer.total("scenarios.run_scenario")
    rows_per_pass = sum(p.rows for p in traced) // n
    t = tracer

    def share(*names: str) -> float:
        return math.fsum(t.total(x) for x in names) / scenario_total

    loop_self = math.fsum(t.self_times["scenarios.run_scenario"])
    return {
        "dynamics.step.calls": (t.calls("dynamics.step") // n, "count"),
        "dynamics.step.us_p50": (t.us("dynamics.step", 50), "us"),
        "dynamics.step.us_p99": (t.us("dynamics.step", 99), "us"),
        "dynamics.step.share": (share("dynamics.step"), "ratio"),
        "control.tick.calls": (t.calls("control.tick") // n, "count"),
        "control.tick.us_p50": (t.us("control.tick", 50), "us"),
        "control.tick.us_p99": (t.us("control.tick", 99), "us"),
        "control.tick.self_us_p50": (t.us("control.tick", 50, self_time=True), "us"),
        "control.tick.holds": (t.counts["control.tick.holds"] // n, "count"),
        "control.desired_attitude.us_p50": (t.us("control.desired_attitude", 50), "us"),
        "control.desired_attitude.us_p99": (t.us("control.desired_attitude", 99), "us"),
        "control.share": (share("control.tick"), "ratio"),
        "spatial.rotmat_to_quat.us_p50": (t.us("spatial.rotmat_to_quat", 50), "us"),
        "aero.allocate.us_p50": (t.us("aero.allocate", 50), "us"),
        "aero.allocate.us_p99": (t.us("aero.allocate", 99), "us"),
        "aero.allocate.saturated": (t.counts["aero.allocate.saturated"] // n, "count"),
        "aero.mix.us_p50": (t.us("aero.mix", 50), "us"),
        "estimation.sample.calls": (t.calls("estimation.sample") // n, "count"),
        "estimation.sample.us_p50": (t.us("estimation.sample", 50), "us"),
        "estimation.update.us_p50": (t.us("estimation.update", 50), "us"),
        "estimation.update.us_p99": (t.us("estimation.update", 99), "us"),
        "estimation.share": (
            share("estimation.sample", "estimation.update", "estimation.hold"), "ratio"),
        "scenarios.loop.rows": (rows_per_pass, "count"),
        "scenarios.loop.self_us_per_tick": (loop_self / (rows_per_pass * n) * 1e6, "us"),
        "scenarios.write_csv.s": (t.total("scenarios.write_csv") / n, "s"),
        "scenarios.write_csv.bytes": (csv_bytes_per_pass, "B"),
        "scenarios.read_csv.s": (t.total("scenarios.read_csv") / n, "s"),
        "scenarios.metrics_from_rows.us": (t.us("scenarios.metrics_from_rows", 50), "us"),
        "config.load_config.ms": (
            statistics.median(s["load_config_s"] for s in setup) * 1e3, "ms"),
        "setup.import_s": (statistics.median(s["import_s"] for s in setup), "s"),
        "trace.overhead": (
            statistics.median(p.ticks_per_s for p in traced)
            / statistics.median(p.ticks_per_s for p in untraced) - 1.0, "ratio"),
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the full result record."""
    import flapsim

    workload = WORKLOADS[name]
    config_path = flapsim.bundled_config_path(workload.config)
    setup = measure_setup(config_path)
    config = flapsim.load_config(config_path)
    seeds = member_seeds(workload, seed)
    checker = Checker()
    tracer = Tracer()
    workdir = BENCH_DIR / ".work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    passes: list[Pass] = []
    try:
        # Untimed warm-up so lazy imports and first-call costs are paid.
        warm = flapsim.run_scenario(config, seed=seeds[0], duration=WARMUP_DURATION_S)
        warm.write_csv(workdir / "warmup.csv")
        flapsim.metrics_from_rows(flapsim.read_csv(workdir / "warmup.csv"))

        start = time.perf_counter()
        min_passes = 2 if trace else 1
        while len(passes) < min_passes or (
            time.perf_counter() - start + statistics.median(p.wall_s for p in passes) <= seconds
        ):
            traced = trace and len(passes) % 2 == 1
            if traced:
                tracer.install()
            try:
                passes.append(run_pass(name, config, seeds, workdir, checker, traced))
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        bytes_per_pass = checker.csv_bytes // len(passes)
        metrics = per_layer_metrics(tracer, passes, setup, bytes_per_pass)
    else:
        metrics = end_to_end_metrics(passes, setup)
    return {
        "workload": name,
        "environment": environment(seed, trace),
        "runs": checker.runs,
        "runs_failed": checker.failed,
        "failures": checker.failures,
        "drift": checker.drift,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "passes": [vars(p) | {"ticks_per_s": p.ticks_per_s} for p in passes],
        "setup": setup,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flapsim" / "__init__.py").is_file():
        print(f"error: no flapsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))

    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(result['passes'])}")
    for key, m in result["metrics"].items():
        print(f"  {key:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'runs_failed':34s} {result['runs_failed']} of {result['runs']} runs")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    for key, d in result["drift"].items():
        print(f"  drift {key} csv_sha256 {d['csv_sha256']}")
    print(f"  full record: {out.relative_to(ROOT)}")

    correct = result["runs_failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["runs"],
        "failed": result["runs_failed"],
        "metrics": result["metrics"],
    }, allow_nan=False))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
