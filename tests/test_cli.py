"""Command-line interface: exit codes and outputs."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from flapsim.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main
from flapsim.config import bundled_config_path, config_from_dict, load_config, read_raw
from flapsim.scenarios import read_csv, run_scenario

BALLISTIC = str(bundled_config_path("ballistic.cfg"))


def flapsim_process(args, cwd, timeout=120):
    """``python -m flapsim *args`` from the source checkout, run in ``cwd``."""
    root = Path(__file__).resolve().parents[1]
    path = [str(root / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, "-m", "flapsim", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
    )


def test_run_writes_csv_and_metrics(tmp_path, capsys):
    out = tmp_path / "b.csv"
    code = main(["run", BALLISTIC, "--out", str(out)])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert "rms_position_error_m" in captured.out
    assert f"csv: {out}" in captured.out
    assert read_csv(out).shape[0] == 201


def test_run_duration_and_seed_override(tmp_path):
    out = tmp_path / "short.csv"
    code = main(["run", BALLISTIC, "--out", str(out), "--duration", "0.05", "--seed", "9"])
    assert code == EXIT_OK
    assert read_csv(out).shape[0] == 101


def test_run_overrides_match_the_library_overrides(tmp_path):
    """``--seed``/``--duration`` and ``run_scenario(seed=, duration=)`` are one
    route: the same CSV bytes."""
    hover = bundled_config_path("hover.cfg")
    out = tmp_path / "cli.csv"
    code = main(["run", str(hover), "--seed", "5", "--duration", "0.05", "--out", str(out)])
    assert code == EXIT_OK
    run_scenario(load_config(hover), seed=5, duration=0.05).write_csv(tmp_path / "lib.csv")
    assert out.read_bytes() == (tmp_path / "lib.csv").read_bytes()


def test_run_reports_divergence(tmp_path, capsys):
    cfg = tmp_path / "fall.cfg"
    cfg.write_text("name: fall\nmode: open-loop\nduration_s: 3.0\n")
    code = main(["run", str(cfg), "--out", str(tmp_path / "fall.csv")])
    assert code == EXIT_DIVERGED
    assert "diverged" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scenario, key, value, extra",
    [
        ("hover.cfg", ("control", "attitude_k1_n_m"), [1.7e308] * 3, {}),
        ("position_hold.cfg", ("control", "attitude_k2_n_m_s"), [1e300] * 3, {}),
        (
            "ballistic.cfg",
            ("vehicle", "wing", "k_thrust_n_per_v"),
            1.7e308,
            {"open_loop": {"command_v": [130.0] * 4}},
        ),
    ],
    ids=["attitude-gain", "rate-gain", "open-loop-thrust-gain"],
)
def test_a_non_finite_wrench_ends_the_run_with_status_2(
    tmp_path, capsys, scenario, key, value, extra
):
    """A controller or a drive that gives a non-finite wrench ended in a
    ``non-finite wrench`` traceback from ``step``.  The run now stops at the
    last row recorded, exits 2 and its CSV reads back."""
    raw = read_raw(bundled_config_path(scenario))
    raw.update(extra)
    *sections, leaf = key
    node = raw
    for section in sections:
        node = node.setdefault(section, {})
    node[leaf] = value
    cfg, out = tmp_path / "big.cfg", tmp_path / "big.csv"
    cfg.write_text(yaml.safe_dump(raw))
    code = main(["run", str(cfg), "--out", str(out), "--duration", "0.05"])
    assert code == EXIT_DIVERGED
    assert "run diverged" in capsys.readouterr().err
    rows = read_csv(out)
    assert 1 <= len(rows) < 101
    assert np.isfinite(rows[:, :14]).all()


def test_a_huge_yaw_damping_exits_2_without_a_traceback(tmp_path):
    """``flapsim run`` ended in an OverflowError traceback from ``step``."""
    raw = read_raw(bundled_config_path("position_hold.cfg"))
    raw.setdefault("vehicle", {})["yaw_damping_n_m_s"] = 1e300
    (tmp_path / "damped.cfg").write_text(yaml.safe_dump(raw))
    proc = flapsim_process(
        ["run", "damped.cfg", "--out", "damped.csv", "--duration", "0.05"], tmp_path
    )
    assert proc.returncode == EXIT_DIVERGED, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "run diverged" in proc.stderr


def test_a_diverged_comparison_vehicle_exits_2(tmp_path, capsys):
    """A comparison vehicle whose weight overflows is a non-finite wrench:
    the run exits 2 and its CSV, the primary vehicle's, is complete."""
    cfg, out = tmp_path / "heavy.cfg", tmp_path / "heavy.csv"
    cfg.write_text(
        "mode: yaw-damping-compare\nduration_s: 0.05\n"
        "comparison_vehicle: {mass_mg: 1.0e+305, gravity_m_per_s2: 1.0e+10}\n"
    )
    code = main(["run", str(cfg), "--out", str(out)])
    assert code == EXIT_DIVERGED
    assert "run diverged" in capsys.readouterr().err
    assert len(read_csv(out)) == 101


def test_a_tiny_control_period_runs_without_a_traceback(tmp_path):
    """At 1e200 Hz every squared time offset of the yaw-decay fit
    underflows; ``flapsim run`` ended in a ZeroDivisionError traceback."""
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(
        "mode: open-loop\nduration_s: 2.0e-199\n"
        "rates: {control_hz: 1.0e+200, measurement_hz: 1.0e+200}\n"
        "initial: {omega_rad_per_s: [0.0, 0.0, 20.0]}\n"
    )
    code = main(["run", str(cfg), "--out", str(tmp_path / "fast.csv")])
    assert code in (EXIT_OK, EXIT_DIVERGED)


def test_run_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("name: bad\nmode: sideways\n")
    code = main(["run", str(cfg)])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_validate_ok(capsys):
    assert main(["validate", BALLISTIC]) == EXIT_OK
    assert "ok" in capsys.readouterr().out


def test_validate_lists_all_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("name: bad\nmode: sideways\nduration_s: -2.0\n")
    assert main(["validate", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "mode" in err and "duration_s" in err


def test_compare_output(capsys):
    hover = str(bundled_config_path("hover.cfg"))
    two = str(bundled_config_path("two_wing.cfg"))
    assert main(["compare", hover, two]) == EXIT_OK
    out = capsys.readouterr().out
    assert "wing_loading_n_per_m2" in out
    assert "ratio=" in out
    (note,) = [line for line in out.splitlines() if line.startswith("note: ")]
    assert "1.4" in note


def test_sweep_runs_each_value(tmp_path, capsys):
    code = main(
        [
            "sweep",
            BALLISTIC,
            "--param",
            "vehicle.wing.flap_frequency_hz",
            "--values",
            "90,110",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("[ok]") == 2
    csvs = sorted(tmp_path.glob("*.csv"))
    assert len(csvs) == 2
    assert "flap_frequency_hz_90" in csvs[1].name or "flap_frequency_hz_90" in csvs[0].name


def test_sweep_scalar_param(tmp_path, capsys):
    code = main(
        [
            "sweep",
            BALLISTIC,
            "--param",
            "vehicle.mass_mg",
            "--values",
            "80,95,110",
            "--out",
            str(tmp_path),
            "--duration",
            "0.05",
        ]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out.count("[ok]") == 3
    assert len(list(tmp_path.glob("*.csv"))) == 3


def test_sweep_invalid_value(tmp_path, capsys):
    code = main(
        [
            "sweep",
            BALLISTIC,
            "--param",
            "vehicle.mass_mg",
            "--values",
            "-5",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_run_and_compare_missing_file(tmp_path, capsys):
    missing = str(tmp_path / "missing.cfg")
    assert main(["run", missing, "--out", str(tmp_path / "m.csv")]) == EXIT_CONFIG
    assert main(["compare", BALLISTIC, missing]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("config error") == 2 and "missing.cfg" in err


def test_validate_non_utf8_file(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("name: café\n".encode("latin-1"))
    assert main(["validate", str(cfg)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_exponent_float_without_dot_loads(tmp_path):
    cfg = tmp_path / "short.cfg"
    cfg.write_text("name: short\nmode: open-loop\nduration_s: 5e-2\n")
    assert load_config(cfg).duration == 0.05


def test_sweep_exponent_values(tmp_path, capsys):
    code = main(
        [
            "sweep",
            BALLISTIC,
            "--param",
            "disturbance.vibration_ramp_s",
            "--values",
            "1e-3,2.0e-3",
            "--out",
            str(tmp_path),
            "--duration",
            "0.05",
        ]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out.count("[ok]") == 2
    assert len(list(tmp_path.glob("*.csv"))) == 2


def test_sweep_list_values(tmp_path, capsys):
    code = main(
        [
            "sweep",
            BALLISTIC,
            "--param",
            "control.attitude_k1_n_m",
            "--values",
            "[4.8e-6,4.8e-6,2.4e-6],[2.4e-6,2.4e-6,1.2e-6]",
            "--out",
            str(tmp_path),
            "--duration",
            "0.05",
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "control.attitude_k1_n_m=[2.4e-06, 2.4e-06, 1.2e-06] [ok]" in out
    assert out.count("[ok]") == 2
    assert len(list(tmp_path.glob("*.csv"))) == 2


def test_unsafe_names_make_safe_csv_names(tmp_path, monkeypatch, capsys):
    sweep_dir = tmp_path / "sweep"
    code = main(
        ["sweep", BALLISTIC, "--param", "name", "--values", "a/b", "--out", str(sweep_dir),
         "--duration", "0.05"]
    )
    assert code == EXIT_OK
    assert [p.name for p in sweep_dir.iterdir()] == ["a_b__name_a_b.csv"]
    cfg = tmp_path / "slash.cfg"
    cfg.write_text("name: x/y z\nmode: open-loop\nduration_s: 0.05\n")
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(cfg)]) == EXIT_OK
    assert (tmp_path / "x_y_z_run.csv").is_file()
    assert "csv: x_y_z_run.csv" in capsys.readouterr().out


def test_sweep_empty_values(tmp_path, capsys):
    code = main(["sweep", BALLISTIC, "--param", "seed", "--values", "", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "--values: no values given" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, message",
    [
        (["--duration", "-1"], "duration_s: must be positive"),
        (["--duration", "nan"], "duration_s: must be finite"),
        (["--seed", "-1"], "seed: must be a non-negative integer"),
    ],
)
def test_run_bad_overrides_are_config_errors(tmp_path, capsys, override, message):
    out = tmp_path / "b.csv"
    assert main(["run", BALLISTIC, "--out", str(out), *override]) == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "validate"])
def test_measurement_faster_than_control_is_a_config_error(tmp_path, capsys, command):
    """The ratio 1e-10 is within 1e-9 of the integer 0; it must not reach the
    run loop's ``k % every``."""
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("name: fast\nrates: {control_hz: 0.001, measurement_hz: 1.0e+7}\n")
    assert main([command, str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: rates: measurement_hz must not exceed control_hz" in err


def test_huge_attitude_noise_is_a_config_error(tmp_path, capsys):
    """1e300 deg overflowed in the first noisy sample of the run."""
    raw = read_raw(bundled_config_path("hover.cfg"))
    raw["estimation"]["attitude_noise_std_deg"] = 1e300
    cfg = tmp_path / "noisy.cfg"
    cfg.write_text(yaml.safe_dump(raw))
    assert main(["run", str(cfg), "--out", str(tmp_path / "noisy.csv")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: estimation.attitude_noise_std_deg: must lie in [0, 180] deg" in err


def test_huge_position_noise_is_a_config_error(tmp_path, capsys):
    """1.7e308 mm made the estimate inf or NaN: a 0.05 s hover run wrote 93
    such rows and still ended with status 0."""
    raw = read_raw(bundled_config_path("hover.cfg"))
    raw["estimation"]["position_noise_std_mm"] = 1.7e308
    cfg = tmp_path / "noisy.cfg"
    cfg.write_text(yaml.safe_dump(raw))
    out = tmp_path / "noisy.csv"
    assert main(["run", str(cfg), "--out", str(out), "--duration", "0.05"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: estimation.position_noise_std_mm: must lie in [0, 10000] mm" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, scenario, override",
    [
        ("validate", "fast.cfg", []),
        ("run", "fast.cfg", []),
        # The file's own 5 s at 1e308 Hz is refused, though 0.3 s would
        # still ask for 3e307 ticks.
        ("run", "fast.cfg", ["--duration", "0.3"]),
        ("run", "ballistic.cfg", ["--duration", "1e308"]),
    ],
    ids=["validate", "run", "run-duration-0.3", "run-duration-1e308"],
)
def test_an_unbounded_tick_count_is_a_config_error(tmp_path, command, scenario, override):
    """These ended in an OverflowError traceback, a run that did not end, or
    (validate) ``ok``; each now exits 1 before the first tick."""
    raw = read_raw(bundled_config_path("position_hold.cfg"))
    raw["rates"] = {"control_hz": 1e308, "measurement_hz": 1e308}
    (tmp_path / "fast.cfg").write_text(yaml.safe_dump(raw))
    cfg = tmp_path / scenario if scenario == "fast.cfg" else bundled_config_path(scenario)
    args = [command, str(cfg), *override]
    if command == "run":
        args += ["--out", str(tmp_path / "out.csv")]
    proc = flapsim_process(args, tmp_path, timeout=20)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    message = "config error: duration_s: must span at most 10000000 control ticks"
    assert proc.stderr.splitlines() == [message]
    assert not (tmp_path / "out.csv").exists()


def test_sweep_bad_duration_is_a_config_error(tmp_path, capsys):
    code = main(["sweep", BALLISTIC, "--param", "seed", "--values", "1,2",
                 "--duration", "-2", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "duration_s: must be positive" in err
    # The label names the override, not the swept value 1.
    assert "config error (--duration): duration_s: must be positive" in err
    assert "(1)" not in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_seed_override_wins_over_swept_seed(tmp_path):
    hover = str(bundled_config_path("hover.cfg"))
    sweep_dir = tmp_path / "sweep"
    code = main(["sweep", hover, "--param", "seed", "--values", "3", "--seed", "5",
                 "--duration", "0.01", "--out", str(sweep_dir)])
    assert code == EXIT_OK
    run_out = tmp_path / "run.csv"
    assert main(["run", hover, "--seed", "5", "--duration", "0.01", "--out", str(run_out)]) == EXIT_OK
    assert (sweep_dir / "hover__seed_3.csv").read_bytes() == run_out.read_bytes()


def test_sweep_checks_every_value_before_running(tmp_path, capsys):
    sweep_dir = tmp_path / "sweep"
    code = main(["sweep", BALLISTIC, "--param", "vehicle.mass_mg", "--values", "90,-5",
                 "--out", str(sweep_dir)])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error (-5): vehicle.mass_mg: must be positive" in captured.err
    assert "[ok]" not in captured.out
    assert not sweep_dir.exists()


@pytest.mark.parametrize(
    "param, values, message",
    [
        ("seed", "1,1", "--values: 1 and 1 both write ballistic__seed_1.csv"),
        ("name", "a/b,a_b", "--values: a/b and a_b both write a_b__name_a_b.csv"),
    ],
)
def test_sweep_refuses_colliding_csv_names(tmp_path, capsys, param, values, message):
    sweep_dir = tmp_path / "sweep"
    code = main(["sweep", BALLISTIC, "--param", param, "--values", values,
                 "--duration", "0.05", "--out", str(sweep_dir)])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"config error: {message}" in captured.err
    assert "[ok]" not in captured.out
    assert not sweep_dir.exists()


def test_sweep_mapping_value_replaces_the_section(tmp_path):
    """A mapping swept into ``control`` is the whole section: keys it omits
    take their defaults, not the base file's values."""
    raw = read_raw(bundled_config_path("hover.cfg"))
    raw.update(duration_s=0.05, control={"altitude_kp_n_per_m": 3.0e-3})
    base = tmp_path / "base.cfg"
    base.write_text(yaml.safe_dump(raw))
    code = main(["sweep", str(base), "--param", "control", "--values",
                 "{attitude_k1_n_m: [2.4e-6,2.4e-6,1.2e-6]}", "--out", str(tmp_path)])
    assert code == EXIT_OK
    [swept] = tmp_path.glob("*.csv")
    for control, same in (({"attitude_k1_n_m": [2.4e-6, 2.4e-6, 1.2e-6]}, True),
                          ({"attitude_k1_n_m": [2.4e-6, 2.4e-6, 1.2e-6],
                            "altitude_kp_n_per_m": 3.0e-3}, False)):
        raw["control"] = control
        run_scenario(config_from_dict(raw)).write_csv(tmp_path / "direct.out")
        assert (swept.read_bytes() == (tmp_path / "direct.out").read_bytes()) is same


def test_sweep_non_mapping_root_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "list.cfg"
    cfg.write_text("- 1\n- 2\n")
    code = main(["sweep", str(cfg), "--param", "seed", "--values", "1", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "seed: path crosses a non-mapping node" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["missing/x.csv", "."])
def test_run_refuses_an_unwritable_out_before_running(tmp_path, monkeypatch, capsys, target):
    monkeypatch.setattr("flapsim.cli.run_scenario", pytest.fail)
    out = tmp_path / target
    assert main(["run", BALLISTIC, "--out", str(out)]) == EXIT_CONFIG
    assert "config error: --out: " in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


def test_sweep_refuses_an_out_that_is_a_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("flapsim.cli.run_scenario", pytest.fail)
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    code = main(["sweep", BALLISTIC, "--param", "seed", "--values", "1,2", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert f"config error: --out: cannot make directory {out}: " in capsys.readouterr().err
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize(
    "name, code, out",
    [("hover.cfg", EXIT_OK, "ok\n"), ("missing.cfg", EXIT_CONFIG, "")],
)
def test_python_m_flapsim_runs_the_cli(tmp_path, name, code, out):
    """``python -m flapsim`` from a source checkout exits with the CLI's status."""
    cfg = bundled_config_path(name) if name == "hover.cfg" else tmp_path / name
    proc = flapsim_process(["validate", str(cfg)], tmp_path)
    assert (proc.returncode, proc.stdout) == (code, out), proc.stderr
