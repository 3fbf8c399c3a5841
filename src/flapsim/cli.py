"""Command-line harness: run, compare, validate and sweep scenarios.

Exit codes: 0 success, 1 configuration error, 2 diverged simulation.
"""

from __future__ import annotations

import argparse
import copy
import re
import sys
from pathlib import Path

from .config import (
    ConfigError,
    SimConfig,
    config_from_dict,
    load_config,
    parse_yaml,
    read_raw,
    validate_config,
)
from .scenarios import compare_variants, lift_report, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2


def _print_metrics(record) -> None:
    print(f"run: {record.name} mode={record.mode} seed={record.seed}")
    print(f"rows: {record.rows.shape[0]}")
    for key in sorted(record.metrics):
        print(f"{key} = {record.metrics[key]!r}")
    for key in sorted(record.extra_metrics):
        print(f"{key} = {record.extra_metrics[key]!r}")


def _config_errors(errors: list[str], label: str = "config error") -> int:
    for message in errors:
        print(f"{label}: {message}", file=sys.stderr)
    return EXIT_CONFIG


def _csv_name(stem: str) -> str:
    """CSV file name for ``stem``, with characters outside [\\w.+-] mapped to _."""
    return re.sub(r"[^\w.+-]", "_", stem) + ".csv"


def _with_overrides(raw, args: argparse.Namespace) -> SimConfig:
    """Validate ``raw`` with the --seed and --duration overrides set on it."""
    if isinstance(raw, dict):
        for key, value in (("seed", args.seed), ("duration_s", args.duration)):
            if value is not None:
                raw[key] = value
    return config_from_dict(raw)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _with_overrides(read_raw(args.config), args)
    out = args.out if args.out else _csv_name(f"{config.name}_run")
    # The CSV is written after the last tick; refuse a path that cannot take it.
    path = Path(out)
    if not path.parent.is_dir():
        raise ConfigError([f"--out: directory {path.parent} does not exist"])
    if path.is_dir():
        raise ConfigError([f"--out: {out} is a directory"])
    record = run_scenario(config, out=out)
    _print_metrics(record)
    print(f"csv: {out}")
    if record.status != 0:
        print("run diverged", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    errors = validate_config(args.config)
    if errors:
        return _config_errors(errors)
    print("ok")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    config_a = load_config(args.config_a)
    config_b = load_config(args.config_b)
    report = compare_variants(config_a, config_b)
    print(f"a: {config_a.name}    b: {config_b.name}")
    for metric, values in report.items():
        print(
            f"{metric}: a={values['a']!r} b={values['b']!r} "
            f"ratio={values['ratio']!r}"
        )
    print(f"note: {lift_report(config_a.vehicle)['note']}")
    return EXIT_OK


def _set_by_path(raw: dict, dotted: str, value) -> None:
    *sections, leaf = dotted.split(".")
    node = raw
    for key in sections:
        node = node.setdefault(key, {}) if isinstance(node, dict) else None
    if not isinstance(node, dict):
        raise ConfigError([f"{dotted}: path crosses a non-mapping node"])
    node[leaf] = value


def _cmd_sweep(args: argparse.Namespace) -> int:
    base_raw = read_raw(args.config)
    values = parse_yaml("[" + args.values + "]")
    if not values:
        raise ConfigError(["--values: no values given"])
    out_dir = Path(args.out) if args.out else Path(".")

    # Every value is checked, and every CSV name claimed, before any run.
    leaf = args.param.split(".")[-1]
    runs: dict[Path, tuple] = {}
    for value in values:
        raw = copy.deepcopy(base_raw)
        try:
            _set_by_path(raw, args.param, value)
            config = _with_overrides(raw, args)
        except ConfigError as exc:
            return _config_errors(exc.errors, f"config error ({value})")
        out = out_dir / _csv_name(f"{config.name}__{leaf}_{value}")
        if out in runs:
            raise ConfigError(
                [f"--values: {runs[out][0]} and {value} both write {out.name}"]
            )
        runs[out] = (value, config)

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError([f"--out: cannot make directory {out_dir}: {exc.strerror}"])
    worst = EXIT_OK
    for out, (value, config) in runs.items():
        record = run_scenario(config, out=out)
        summary = " ".join(
            f"{key}={record.metrics[key]!r}" for key in sorted(record.metrics)
        )
        status = "ok" if record.status == 0 else "diverged"
        print(f"{args.param}={value} [{status}] {summary}")
        if record.status != 0:
            worst = EXIT_DIVERGED
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="flapsim",
        description="Flight simulator for a four-winged flapping micro air vehicle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write its CSV")
    p_run.add_argument("config", help="scenario file")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="CSV output path")
    p_run.add_argument(
        "--duration", type=float, default=None, help="override the run duration [s]"
    )
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("config")
    p_val.set_defaults(func=_cmd_validate)

    p_cmp = sub.add_parser("compare", help="compare two vehicle variants")
    p_cmp.add_argument("config_a")
    p_cmp.add_argument("config_b")
    p_cmp.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser("sweep", help="run a scenario over a parameter sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument(
        "--param", required=True, help="dotted config path, e.g. control.altitude_kp_n_per_m"
    )
    p_sweep.add_argument(
        "--values", required=True, help="one YAML flow sequence: 90,110 or [1,2],[3,4]"
    )
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--duration", type=float, default=None)
    p_sweep.add_argument("--out", default=None, help="output directory for the CSVs")
    p_sweep.set_defaults(func=_cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _config_errors(exc.errors)


if __name__ == "__main__":
    sys.exit(main())
