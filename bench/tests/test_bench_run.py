"""The benchmark command end to end, as a separate process."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "finegrid-50k", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_run_reports_every_per_layer_metric():
    proc = _run(ROOT, "--workload", "finegrid-50k", "--seed", "4", "--seconds", "0.1",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["comparison.calls"] == 999
    assert values["curves.points"] == 2 * 999
    assert values["resampling.replicates"] == 0
    assert details["input"]["rows"] == 50_000 and len(details["input"]["sha256"]) == 64
    assert not list((ROOT / "bench").glob(".work-*"))


def test_missing_output_is_a_failed_job(run_small):
    workload, ctx, codes, err = run_small("finegrid-50k", 200)
    checker = run.Checker(workload, ctx)
    assert checker(codes, err) == []
    os.remove(ctx.out("compare.csv"))
    problems = checker(codes, err)
    assert len(problems) == 1 and problems[0].startswith("unreadable output")


def test_crash_is_a_failed_job():
    def crash(argv):
        raise TypeError("boom")

    job = run.run_job(crash, [["curves"], ["compare"]],
                      check=lambda codes, err: [(codes, "TypeError: boom" in err)])
    assert job.problems == [([None], True)]
