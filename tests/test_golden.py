"""Golden report bytes: every serializer must reproduce its fixture exactly.

The fixtures under tests/data/golden were written by the CLI from the d0
fixture (and the d0 / d0-degraded pair for compare) on the exact dyadic grid
0.125:0.5:0.125, so they pin the report layout and number rendering, not the
grid. The ``*-edges`` fixtures use the grid 0.05:0.95:0.05, where every
0.1k point except 0.5 ties a risk, everyone is positive at t = 0.05 (empty
below group) and nobody is positive at t = 0.95 (empty above group), so they
pin the rendering of the fields that are undefined on an empty group.
Inputs are passed by their bare file name from tests/data, so the
recorded ``input`` metadata does not depend on where the checkout lives.
The ``demo-miscalibration*.txt`` fixtures are the demo's stdout; at
``--n 20 --seed 6`` the float net benefits tie treat-all's at t = 0.30,
where the exact sign alone would list a loss.
"""

from pathlib import Path

import pytest

from dcakit import emit_report, parse_report
from dcakit.cli import cli_main

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = DATA_DIR / "golden"
GRID = "0.125:0.5:0.125"
EDGE_GRID = "0.05:0.95:0.05"

_D0 = ["--input", "d0.csv", "--outcome", "y", "--models", "m1"]
_D0_PAIR = ["--input", "d0_pair.csv", "--outcome", "y", "--models", "d0", "d0_degraded"]
_CURVES = [*_D0, "--grid", GRID]
_PAIR = [*_D0_PAIR, "--grid", GRID]
_BOUNDS = {
    "positive": ["--nb", "0.1", "--prevalence", "0.4", "--t", "0.3"],
    "zero": ["--nb", "0", "--prevalence", "0.4", "--t", "0.3"],
    "negative": ["--nb", "-0.05", "--prevalence", "0.4", "--t", "0.3"],
}

CASES = {}
for fmt in ("json", "csv"):
    CASES[f"curves.{fmt}"] = ["curves", *_CURVES, "--format", fmt]
    CASES[f"compare.{fmt}"] = ["compare", *_PAIR, "--format", fmt]
    CASES[f"curves-edges.{fmt}"] = ["curves", *_D0, "--grid", EDGE_GRID, "--format", fmt]
    CASES[f"compare-edges.{fmt}"] = ["compare", *_D0_PAIR, "--grid", EDGE_GRID, "--format", fmt]
    CASES[f"bootstrap.{fmt}"] = ["bootstrap", *_CURVES, "--replicates", "50", "--seed", "1",
                                 "--format", fmt]
    for sign, args in _BOUNDS.items():
        CASES[f"bounds-{sign}.{fmt}"] = ["bounds", *args, "--format", fmt]


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(DATA_DIR)
    out = tmp_path / name
    assert cli_main([*CASES[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("stem", ["curves", "compare", "curves-edges", "compare-edges",
                                  "bootstrap"])
def test_parsed_report_emits_golden_bytes(stem):
    doc = parse_report((GOLDEN_DIR / f"{stem}.json").read_bytes())
    for fmt in ("json", "csv"):
        assert emit_report(doc, fmt) == (GOLDEN_DIR / f"{stem}.{fmt}").read_bytes()


DEMO_CASES = {
    "demo-miscalibration.txt": [],
    "demo-miscalibration-n12-uniform-shift-1.txt": [
        "--n", "12", "--seed", "0", "--distribution", "uniform", "--shift", "-1"],
    "demo-miscalibration-n20-seed6-uniform-shift-1.txt": [
        "--n", "20", "--seed", "6", "--distribution", "uniform", "--shift", "-1"],
}


@pytest.mark.parametrize("name", sorted(DEMO_CASES))
def test_demo_transcript_matches_golden(name, capsys):
    assert cli_main(["demo-miscalibration", *DEMO_CASES[name]]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN_DIR / name).read_bytes()
