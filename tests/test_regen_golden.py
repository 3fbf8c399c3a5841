"""The drift report of ``scripts/regen_golden.py`` and its ``--check`` mode."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "regen_golden.py"
_spec = importlib.util.spec_from_file_location("regen_golden", _SCRIPT)
regen_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen_golden)

PIN = {
    "csv_sha256": "aa",
    "metrics": {"rms_m": "0.001", "tau_s": "0.23"},
    "extra_metrics": {"tilt_deg": "4.0"},
}


def test_drift_report_lists_each_moved_pin():
    moved = copy.deepcopy(PIN)
    moved["csv_sha256"] = "bb"
    moved["metrics"]["tau_s"] = "0.25"
    del moved["extra_metrics"]["tilt_deg"]
    old = {"a.cfg": PIN, "gone.cfg": PIN}
    new = {"a.cfg": moved, "new.cfg": PIN}
    assert regen_golden.drift_report(old, new) == [
        "a.cfg: csv_sha256 aa -> bb",
        "a.cfg: metrics.tau_s 0.23 -> 0.25  abs 2.000e-02 rel 8.696e-02",
        "a.cfg: extra_metrics.tilt_deg 4.0 -> None",
        "gone.cfg: removed",
        "new.cfg: added",
    ]
    assert regen_golden.drift_report(old, copy.deepcopy(old)) == []


@pytest.mark.parametrize("moves, status", [(False, 0), (True, 1)])
def test_check_reports_and_writes_nothing(tmp_path, monkeypatch, capsys, moves, status):
    golden = tmp_path / "bundled.json"
    text = json.dumps({"a.cfg": PIN}, indent=2, sort_keys=True) + "\n"
    golden.write_text(text)
    fresh = copy.deepcopy(PIN)
    if moves:
        fresh["csv_sha256"] = "bb"
    monkeypatch.setattr(regen_golden, "GOLDEN", golden)
    monkeypatch.setattr(regen_golden, "bundled_pins", lambda: {"a.cfg": fresh})
    assert regen_golden.main(["--check"]) == status
    out = capsys.readouterr().out
    assert out == ("a.cfg: csv_sha256 aa -> bb\n" if moves else "no pinned figure moved\n")
    assert golden.read_text() == text
