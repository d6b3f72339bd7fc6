"""Smoke tests: the demo scripts run on small inputs and write their outputs."""

import os
import subprocess
import sys
from pathlib import Path

import dcakit
from dcakit import parse_report

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GOLDEN_DIR = Path(__file__).parent / "data" / "golden"


def run_script(name, *args):
    env = dict(os.environ)
    package_root = str(Path(dcakit.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_run_d0_example(tmp_path):
    result = run_script("run_d0_example.py", "--replicates", "20", "--out-dir", str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert "n=10 events=4" in result.stdout
    for name in ("report.json", "report.csv", "decision.svg", "ppv.svg", "calibration.svg"):
        assert (tmp_path / name).stat().st_size > 0
    doc = parse_report((tmp_path / "report.json").read_bytes())
    assert doc.bands["m1"].spec.replicates == 20


def test_miscalibration_demo(tmp_path):
    result = run_script("miscalibration_demo.py", "--shifts", "-1", "1", "--n", "2000",
                        "--grid", "0.05:0.5:0.05", "--svg-dir", str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert "worse than treat-none" in result.stdout
    assert "-1.0" in result.stdout and "+1.0" in result.stdout
    for shift in ("-1", "+1"):
        for panel in ("decision", "ppv", "calibration"):
            assert (tmp_path / f"shift{shift}-{panel}.svg").stat().st_size > 0


def test_miscalibration_demo_regions_come_from_exact_verdicts():
    # Everyone is selected at t = 0.21 (empty below group) in the first cohort;
    # the second ties treat-all exactly at t = 0.25 and t = 0.50.
    result = run_script("miscalibration_demo.py", "--shifts", "3", "--n", "11", "--seed", "0",
                        "--distribution", "uniform")
    assert result.returncode == 0, result.stderr
    assert "[0.47, 0.49] (3/50 pts)" in result.stdout
    result = run_script("miscalibration_demo.py", "--shifts", "-1", "--n", "12", "--seed", "0",
                        "--distribution", "uniform")
    assert result.returncode == 0, result.stderr
    # t = 0.25-0.30 is not a loss: two ranges, not one that spans the gap.
    assert "[0.12, 0.24], [0.31, 0.42] (25/50 pts)" in result.stdout
    assert "spared-group event rate 0.500 > t=0.37" in result.stdout


def test_miscalibration_demo_transcript_matches_golden():
    result = run_script("miscalibration_demo.py")
    assert result.returncode == 0, result.stderr
    assert result.stdout.encode("utf-8") == (GOLDEN_DIR / "miscalibration_demo.txt").read_bytes()
