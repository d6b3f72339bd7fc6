import hashlib
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import dcakit
from dcakit import curves, metrics, parse_report
from dcakit.cli import build_parser, cli_main

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def two_model_csv(tmp_path, d0, d0_degraded):
    path = tmp_path / "two.csv"
    lines = ["y,m1,m2"]
    for y, r1, r2 in zip(d0.outcomes, d0.risks, d0_degraded.risks):
        lines.append(f"{y},{r1},{r2}")
    path.write_text("\n".join(lines) + "\n")
    return path


class TestCurvesCommand:
    def test_single_threshold_report(self, d0_csv_path, capsys):
        code = cli_main([
            "curves", "--input", str(d0_csv_path), "--outcome", "y",
            "--models", "m1", "--grid", "0.5:0.5:0.01",
        ])
        assert code == 0
        doc = parse_report(capsys.readouterr().out.encode())
        (model,) = doc.models
        (point,) = model.points
        assert point.nb_model == pytest.approx(0.1, abs=1e-12)
        assert point.ppv == pytest.approx(0.6, abs=1e-12)
        assert doc.metadata["input_digest"]

    def test_out_file_and_digest_tracking(self, d0_csv_path, tmp_path):
        out = tmp_path / "report.json"
        args = ["curves", "--input", str(d0_csv_path), "--outcome", "y",
                "--models", "m1", "--grid", "0.1:0.2:0.1", "--out", str(out)]
        assert cli_main(args) == 0
        first = json.loads(out.read_text())
        assert cli_main(args) == 0
        assert json.loads(out.read_text()) == first

        copy = tmp_path / "copy.csv"
        copy.write_text(d0_csv_path.read_text().replace("0.9", "0.91"))
        args_copy = ["curves", "--input", str(copy), "--outcome", "y",
                     "--models", "m1", "--grid", "0.1:0.2:0.1", "--out", str(out)]
        assert cli_main(args_copy) == 0
        assert json.loads(out.read_text())["metadata"]["input_digest"] != (
            first["metadata"]["input_digest"]
        )

    def test_csv_format_row_count(self, d0_csv_path, capsys):
        code = cli_main([
            "curves", "--input", str(d0_csv_path), "--outcome", "y",
            "--models", "m1", "--grid", "0.1:0.5:0.1", "--format", "csv",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 1 + 5  # header + one row per t

    def test_svg_outputs(self, d0_csv_path, tmp_path, capsys):
        prefix = tmp_path / "charts"
        code = cli_main([
            "curves", "--input", str(d0_csv_path), "--outcome", "y", "--models", "m1",
            "--grid", "0.1:0.5:0.1", "--out", str(tmp_path / "r.json"),
            "--svg", str(prefix),
        ])
        assert code == 0
        for panel in ("decision", "ppv", "calibration"):
            text = (tmp_path / f"charts-{panel}.svg").read_text()
            assert text.startswith("<svg ")

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_written_files_follow_umask(self, d0_csv_path, tmp_path, umask, mode):
        # The mode a plain open() would give, not the temporary file's 0600.
        previous = os.umask(umask)
        try:
            code = cli_main([
                "curves", "--input", str(d0_csv_path), "--outcome", "y", "--models", "m1",
                "--grid", "0.1:0.5:0.1", "--out", str(tmp_path / "r.json"),
                "--svg", str(tmp_path / "charts"),
            ])
        finally:
            os.umask(previous)
        assert code == 0
        for name in ("r.json", "charts-decision.svg", "charts-ppv.svg", "charts-calibration.svg"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode


class TestCompareCommand:
    def test_pairwise_verdicts(self, two_model_csv, capsys):
        code = cli_main([
            "compare", "--input", str(two_model_csv), "--outcome", "y",
            "--models", "m1", "m2", "--grid", "0.5:0.5:0.01",
        ])
        assert code == 0
        doc = parse_report(capsys.readouterr().out.encode())
        (section,) = doc.comparisons
        assert (section.model1, section.model2) == ("m1", "m2")
        (verdict,) = section.verdicts
        assert verdict.winner == "model1"
        assert verdict.nb2 == pytest.approx(-0.1, abs=1e-12)

    def test_requires_exactly_two_models(self, two_model_csv):
        code = cli_main([
            "compare", "--input", str(two_model_csv), "--outcome", "y",
            "--models", "m1",
        ])
        assert code == 1


class TestBoundsCommand:
    def test_zero_nb_two_point_set(self, capsys):
        code = cli_main(["bounds", "--nb", "0", "--prevalence", "0.4", "--t", "0.3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "zero_nb_two_point"
        assert (payload["lower"], payload["upper"]) == (0.0, 0.3)

    def test_infeasible_exits_2(self, capsys):
        code = cli_main(["bounds", "--nb", "0.9", "--prevalence", "0.4", "--t", "0.3"])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_nan_nb_exits_2(self, capsys):
        code = cli_main(["bounds", "--nb", "nan", "--prevalence", "0.4", "--t", "0.3"])
        assert code == 2
        assert "data error: net benefit nan unattainable" in capsys.readouterr().err

    def test_csv_format(self, capsys):
        code = cli_main(["bounds", "--nb", "0.1", "--prevalence", "0.4", "--t", "0.5",
                         "--format", "csv"])
        assert code == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        assert header.startswith("t,nb,prevalence")
        assert row.split(",")[5] == "positive_nb"


class TestBootstrapCommand:
    def test_bands_present_and_deterministic(self, d0_csv_path, capsys):
        args = ["bootstrap", "--input", str(d0_csv_path), "--outcome", "y",
                "--models", "m1", "--grid", "0.2:0.5:0.1",
                "--replicates", "200", "--seed", "42", "--level", "0.95"]
        assert cli_main(args) == 0
        first = capsys.readouterr().out
        assert cli_main(args) == 0
        second = capsys.readouterr().out
        assert first == second  # byte identical
        doc = parse_report(first.encode())
        band = doc.bands["m1"]
        assert band.spec.replicates == 200
        assert len(band.nb_lower) == 4

    def test_invalid_level_exits_2(self, d0_csv_path):
        code = cli_main(["bootstrap", "--input", str(d0_csv_path), "--outcome", "y",
                         "--models", "m1", "--level", "1.5", "--replicates", "10"])
        assert code == 2


class TestDemoCommand:
    def test_overestimation_flags_high_threshold_region(self, capsys):
        code = cli_main(["demo-miscalibration", "--shift", "1.0", "--n", "20000",
                         "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "worse than treat-none" in out
        assert "region:" in out
        # the flagged region sits above the observed prevalence
        prevalence = float(out.split("observed prevalence:")[1].split()[0])
        region_line = next(l for l in out.splitlines() if "region:" in l)
        lo = float(region_line.split("region:")[1].split()[0])
        assert lo > prevalence

    def test_underestimation_flags_low_threshold_region(self, capsys):
        code = cli_main(["demo-miscalibration", "--shift", "-1.0", "--n", "20000",
                         "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "worse than treat-all" in out
        assert "spared group is not actually low risk" in out

    @staticmethod
    def listed(out, default):
        """The thresholds listed as worse than ``default``."""
        section = out.split(f"worse than {default}")[1].split("\n\n")[0]
        return [line.split()[0] for line in section.splitlines() if line.startswith("  t=")]

    def test_region_lists_each_run_of_losses(self, capsys):
        # Losses to treat-all at t = 0.12-0.24 and 0.31-0.42, not in between.
        code = cli_main(["demo-miscalibration", "--n", "12", "--seed", "0",
                         "--distribution", "uniform", "--shift", "-1"])
        assert code == 0
        out = capsys.readouterr().out
        listed = self.listed(out, "treat-all")
        assert listed == [f"t={k / 100:.2f}" for k in [*range(12, 25), *range(31, 43)]]
        assert ("  region: 0.12 <= t <= 0.24, 0.31 <= t <= 0.42 "
                "(spared group is not actually low risk)\n") in out
        assert "event rate below t=0.2500 > t\n" in out

    def test_everyone_selected_is_not_worse_than_treat_all(self, capsys):
        # Everyone is selected at t = 0.21, where the below group is empty.
        code = cli_main(["demo-miscalibration", "--n", "11", "--seed", "0",
                         "--distribution", "uniform", "--shift", "3"])
        assert code == 0
        assert self.listed(capsys.readouterr().out, "treat-all") == [
            "t=0.47", "t=0.48", "t=0.49"]

    def test_exact_tie_with_treat_all_is_not_listed(self, capsys):
        # At t = 0.25 and t = 0.50 the below-group event rate equals t exactly
        # (fn=1 of 4 and fn=4 of 8), so the model ties treat-all there.
        code = cli_main(["demo-miscalibration", "--n", "12", "--seed", "0",
                         "--distribution", "uniform", "--shift", "-1"])
        assert code == 0
        listed = self.listed(capsys.readouterr().out, "treat-all")
        assert "t=0.24" in listed
        assert "t=0.25" not in listed and "t=0.50" not in listed

    def test_thresholds_print_with_the_grid_decimals(self, capsys):
        # On a 0.005 grid two decimals would print t = 0.01 twice and merge
        # region ends; t prints with the three decimals lo and step have.
        code = cli_main(["demo-miscalibration", "--shift", "-1.5", "--n", "2000",
                         "--grid", "0.005:0.2:0.005"])
        assert code == 0
        out = capsys.readouterr().out
        assert self.listed(out, "treat-all") == [f"t={k / 1000:.3f}" for k in range(10, 205, 5)]
        assert "  region: 0.010 <= t <= 0.200 (spared group is not actually low risk)\n" in out

    def test_demo_builds_no_default_models_and_sweeps_once(self, monkeypatch, capsys):
        # The defaults are counts, not constant-risk models: only the truth
        # and the reported model are built, and only the reported model is
        # swept, once for both its curve and its losses.
        built, swept = [], []
        validate, count_below = metrics.PredictionSet.__post_init__, metrics._count_below

        def counted_validate(self):
            built.append(self.name)
            validate(self)

        def counted_count_below(data, thresholds):
            swept.append(data.name)
            return count_below(data, thresholds)

        monkeypatch.setattr(metrics.PredictionSet, "__post_init__", counted_validate)
        monkeypatch.setattr(metrics, "_count_below", counted_count_below)
        assert cli_main(["demo-miscalibration", "--n", "200"]) == 0
        assert built == ["miscalibration-demo-truth", "miscalibration-demo"]
        assert swept == ["miscalibration-demo"]

    def test_cohort_over_the_cap_is_data_error(self, monkeypatch, capsys):
        monkeypatch.setattr(curves, "MAX_SYNTHETIC_RECORDS", 10)
        assert cli_main(["demo-miscalibration", "--n", "10", "--seed", "0"]) == 0
        assert cli_main(["demo-miscalibration", "--n", "11", "--seed", "0"]) == 2
        assert "n must be at most 10, got 11" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self):
        assert cli_main(["frobnicate"]) == 1

    def test_missing_required_flag_is_usage_error(self):
        assert cli_main(["curves", "--outcome", "y", "--models", "m1"]) == 1

    def test_bad_grid_is_usage_error(self, d0_csv_path):
        assert cli_main(["curves", "--input", str(d0_csv_path), "--outcome", "y",
                         "--models", "m1", "--grid", "nope"]) == 1

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = cli_main(["curves", "--input", str(tmp_path / "ghost.csv"),
                         "--outcome", "y", "--models", "m1"])
        assert code == 2

    def test_bad_risk_cites_row(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y,m1\n1,0.8\n0,0.3\n1,1.2\n")
        code = cli_main(["curves", "--input", str(path), "--outcome", "y",
                         "--models", "m1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "row 3" in err and "m1" in err

    def test_non_utf8_input_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"y,m1\n1,0.5\n0,0.\xff\n")
        code = cli_main(["curves", "--input", str(path), "--outcome", "y", "--models", "m1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "not UTF-8" in err and "0xff at offset 15" in err

    def test_repeated_model_column_is_data_error(self, d0_csv_path, capsys):
        code = cli_main(["curves", "--input", str(d0_csv_path), "--outcome", "y",
                         "--models", "m1", "m1"])
        assert code == 2
        assert "model column 'm1' is given more than once" in capsys.readouterr().err

    def test_bom_header_finds_first_column(self, tmp_path, capsys):
        path = tmp_path / "excel.csv"
        path.write_bytes(b"\xef\xbb\xbfy,m1\r\n1,0.8\r\n0,0.3\r\n")
        code = cli_main(["curves", "--input", str(path), "--outcome", "y", "--models", "m1",
                         "--grid", "0.5:0.5:0.1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["metadata"]["input_digest"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert report["models"][0]["points"][0]["s_t"] == 0.5

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "curves" in capsys.readouterr().out

    def test_version_exits_zero(self, capsys):
        assert cli_main(["--version"]) == 0

    def test_internal_invariant_violation_exits_3(self, d0_csv_path, capsys, monkeypatch):
        from dcakit import RouteDisagreementError
        from dcakit import cli as cli_module

        def explode(*args, **kwargs):
            raise RouteDisagreementError("synthetic failure for the exit-code contract")

        monkeypatch.setattr(cli_module, "curve_columns", explode)
        code = cli_main(["curves", "--input", str(d0_csv_path), "--outcome", "y",
                         "--models", "m1"])
        assert code == 3
        assert "internal invariant violation" in capsys.readouterr().err


class TestParserBuiltOnce:
    def test_runs_in_one_process_write_identical_bytes(self, two_model_csv, tmp_path, capsys):
        outputs = []
        for run in range(2):
            for command, fmt in (("curves", "csv"), ("compare", "json")):
                out = tmp_path / f"{command}-{run}.{fmt}"
                assert cli_main([command, "--input", str(two_model_csv), "--outcome", "y",
                                 "--models", "m1", "m2", "--format", fmt,
                                 "--out", str(out)]) == 0
                outputs.append(out.read_bytes())
        assert outputs[:2] == outputs[2:]
        assert build_parser() is build_parser()

    def test_help_and_version_exit_zero_after_a_run(self, two_model_csv, capsys):
        assert cli_main(["curves", "--input", str(two_model_csv), "--outcome", "y",
                         "--models", "m1"]) == 0
        for _ in range(2):
            assert cli_main(["--help"]) == 0
            assert "curves" in capsys.readouterr().out
            assert cli_main(["--version"]) == 0
            assert cli_main(["curves", "--outcome", "y"]) == 1  # nothing kept from the last run


def _python(*args, stdin=None):
    """A fresh interpreter run from tests/data with ``args``, importing this
    checkout's dcakit; ``stdin``, if given, is written to a pipe on its stdin."""
    env = dict(os.environ)
    package_root = str(Path(dcakit.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=DATA_DIR, env=env, capture_output=True,
                          input=stdin, timeout=120)


class TestFreshInterpreter:
    CURVES = ["-m", "dcakit.cli", "curves", "--input", "d0.csv", "--outcome", "y",
              "--grid", "0.125:0.5:0.125", "--format", "csv"]

    def test_module_entry_point_writes_golden_bytes(self):
        result = _python(*self.CURVES, "--models", "m1")
        assert result.returncode == 0, result.stderr
        assert result.stdout == (DATA_DIR / "golden" / "curves.csv").read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_piped_input_writes_golden_bytes(self):
        """A pipe has no size and gives its bytes once: its report is the
        file's, byte for byte."""
        args = [arg if arg != "d0.csv" else "/dev/stdin" for arg in self.CURVES]
        result = _python(*args, "--models", "m1", stdin=(DATA_DIR / "d0.csv").read_bytes())
        assert result.returncode == 0, result.stderr
        assert result.stdout == (DATA_DIR / "golden" / "curves.csv").read_bytes()

    def test_module_entry_point_exit_codes(self):
        assert _python(*self.CURVES).returncode == 1  # --models is required
        assert _python(*self.CURVES, "--models", "m1", "--input", "missing.csv").returncode == 2

    def test_cli_import_leaves_bootstrap_modules_unloaded(self):
        """resampling.py imports fractions and concurrent.futures only when
        bands are computed."""
        result = _python("-c", "import sys, dcakit.cli; print(sorted({'fractions', "
                               "'concurrent.futures'} & set(sys.modules)))")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == b"[]"

    def test_no_submodule_shadows_a_public_name(self):
        """With every submodule imported, each name dcakit exports is still
        what it bound, not a module of the same name: dcakit.ingest stays
        the function."""
        result = _python("-c", "import importlib, inspect, pkgutil, dcakit\n"
                               "for m in pkgutil.iter_modules(dcakit.__path__):\n"
                               "    importlib.import_module('dcakit.' + m.name)\n"
                               "assert inspect.isfunction(dcakit.ingest)\n"
                               "print([n for n in dcakit.__all__ "
                               "if inspect.ismodule(getattr(dcakit, n))])")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == b"[]"
