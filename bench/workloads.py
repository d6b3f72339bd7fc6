"""The benchmark's workloads: their inputs, their jobs, their output checks,
and the spans the traced run records around dcakit's layers.

A job is one or more in-process ``dcakit.cli.cli_main`` calls, each
writing its report to a file with ``--out``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import oracles
from inputs import FULL_PRECISION, THOUSANDTHS, InputFile, write_input
from tracer import LayerTime, Target, Tracer, layer_times

DEFAULT_GRID = (0.01, 0.01, 50)  # lo, step, count of dcakit's default 0.01:0.50:0.01
FINE_GRID_TEXT = "0.001:0.999:0.001"
FINE_GRID = (0.001, 0.001, 999)
REPLICATES = 1000
LEVEL = 0.95  # dcakit's default band level
SVG_PANELS = ("decision", "ppv", "calibration")
BAD_OUTCOME = "1.0"  # not the literal 1 the input format requires


@dataclass
class Context:
    """What a workload's jobs and checks need: input, output directory, seed."""

    input: InputFile
    outdir: str
    seed: int

    def out(self, name: str) -> str:
        return os.path.join(self.outdir, name)

    def read(self, name: str) -> str:
        with open(self.out(name), encoding="utf-8") as handle:
            return handle.read()

    @cached_property
    def counts(self) -> oracles.CohortCounts:
        return oracles.CohortCounts(self.input.cohort)

    def input_args(self, *models: str) -> list:
        return ["--input", self.input.path, "--outcome", "y", "--models", *models]


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    style: str
    calls: Callable  # Context -> list of argv lists, run in order as one job
    check: Callable  # (Context, exit codes, stderr text) -> list of problems
    bad_last_outcome: str | None = None

    def make_input(self, directory: str, seed: int) -> InputFile:
        return write_input(os.path.join(directory, f"{self.name}.csv"), self.rows, seed,
                           self.style, self.bad_last_outcome)


def _exit_problems(codes) -> list:
    return [f"exit code {code}, expected 0" for code in codes if code != 0]


def _curves_1m_calls(ctx):
    return [["curves", *ctx.input_args("m1", "m2"), "--svg", ctx.out("chart"),
             "--out", ctx.out("curves.json")]]


def _curves_1m_check(ctx, codes, stderr):
    if problems := _exit_problems(codes):
        return problems
    points = oracles.json_curve_points(json.loads(ctx.read("curves.json")))
    problems = oracles.check_curves(points, ctx.counts, ("m1", "m2"), *DEFAULT_GRID)
    for panel in SVG_PANELS:
        problems += oracles.check_svg(ctx.read(f"chart-{panel}.svg"), f"{panel} panel")
    return problems


def _bootstrap_calls(ctx):
    return [["bootstrap", *ctx.input_args("m1"), "--replicates", str(REPLICATES),
             "--seed", str(ctx.seed), "--level", repr(LEVEL),
             "--out", ctx.out("bootstrap.json")]]


def _bootstrap_check(ctx, codes, stderr):
    if problems := _exit_problems(codes):
        return problems
    report = json.loads(ctx.read("bootstrap.json"))
    problems = oracles.check_curves(oracles.json_curve_points(report), ctx.counts, ("m1",),
                                    *DEFAULT_GRID)
    if sorted(report.get("bands", {})) != ["m1"]:
        return problems + [f"bands for {sorted(report.get('bands', {}))}, expected ['m1']"]
    return problems + oracles.check_band(report["bands"]["m1"], ctx.input.cohort, "m1",
                                         REPLICATES, ctx.seed, LEVEL)


def _finegrid_calls(ctx):
    return [
        ["curves", *ctx.input_args("m1", "m2"), "--grid", FINE_GRID_TEXT,
         "--format", "csv", "--out", ctx.out("curves.csv")],
        ["compare", *ctx.input_args("m1", "m2"), "--grid", FINE_GRID_TEXT,
         "--format", "csv", "--out", ctx.out("compare.csv")],
    ]


def _finegrid_check(ctx, codes, stderr):
    if problems := _exit_problems(codes):
        return problems
    points = oracles.csv_curve_points(ctx.read("curves.csv"))
    problems = oracles.check_curves(points, ctx.counts, ("m1", "m2"), *FINE_GRID)
    rows = oracles.csv_compare_rows(ctx.read("compare.csv"))
    return problems + oracles.check_compare(rows, ctx.counts, "m1", "m2", *FINE_GRID)


def _reject_calls(ctx):
    return [["curves", *ctx.input_args("m1", "m2"), "--out", ctx.out("curves.json")]]


def _reject_check(ctx, codes, stderr):
    problems = oracles.check_reject(codes[0], stderr, ctx.input.rows, "y")
    if os.path.exists(ctx.out("curves.json")):
        problems.append("a report was written for a rejected input")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("curves-1m", 1_000_000, FULL_PRECISION, _curves_1m_calls, _curves_1m_check),
        Workload("bootstrap-100k", 100_000, FULL_PRECISION, _bootstrap_calls,
                 _bootstrap_check),
        Workload("finegrid-50k", 50_000, THOUSANDTHS, _finegrid_calls, _finegrid_check),
        Workload("reject-500k", 500_000, FULL_PRECISION, _reject_calls, _reject_check,
                 bad_last_outcome=BAD_OUTCOME),
    )
}


def _ingest_rows(args, result, error):
    if error is not None:
        return {"report.ingest_rows": getattr(error, "row", None) or 0}
    return {"report.ingest_rows": result[0].n}


def _digest_bytes(args, result, error):
    return {} if error else {"report.digest_bytes": os.path.getsize(args[0])}


def _points(args, result, error):
    return {} if error else {"curves.points": len(result)}


def _replicates(args, result, error):
    return {} if error else {"resampling.replicates": args[2].replicates}


def _report_bytes(args, result, error):
    return {} if error else {"report.output_bytes": len(result)}


def _svg_bytes(args, result, error):
    return {} if error else {"svg.output_bytes": len(result.encode("utf-8"))}


# Public names that dcakit.cli, dcakit.curves, dcakit.equivalences and
# dcakit.comparison import, each recorded as the span of the layer it enters.
TRACE_TARGETS = (
    Target("dcakit.cli", "ingest", "report.ingest", _ingest_rows),
    Target("dcakit.cli", "file_digest", "report.file_digest", _digest_bytes),
    Target("dcakit.cli", "decision_curve", "curves.decision_curve", _points),
    Target("dcakit.cli", "compare_models", "comparison.compare_models"),
    Target("dcakit.cli", "bootstrap_bands", "resampling.bootstrap_bands", _replicates),
    Target("dcakit.cli", "emit_report", "report.emit_report", _report_bytes),
    Target("dcakit.cli", "render_svg", "svg.render_svg", _svg_bytes),
    Target("dcakit.curves", "verdict_vs_defaults", "equivalences.verdict_vs_defaults"),
    Target("dcakit.curves", "threshold_calibration", "calibration.threshold_calibration"),
    Target("dcakit.equivalences", "classify_at_threshold", "metrics.classify_at_threshold"),
    Target("dcakit.comparison", "classify_at_threshold", "metrics.classify_at_threshold"),
)
ROOT_SPAN = "cli"  # one span around each whole job

# Metrics that partition a traced job: they sum to trace.job_s.
SELF_TIME_METRICS = (
    "report.ingest_s", "report.file_digest_s", "curves.decision_curve.self_s",
    "calibration.threshold_calibration_s", "equivalences.verdict_vs_defaults.self_s",
    "metrics.classify_at_threshold_s", "comparison.compare_models.self_s",
    "resampling.bootstrap_bands_s", "report.emit_report_s", "svg.render_svg_s",
    "cli.self_s",
)


def per_layer_metrics(tracer: Tracer, untraced_job_s: float) -> dict:
    """Per-layer figures of one traced job, by metric name."""
    times = layer_times(tracer.spans)

    def span(name: str) -> LayerTime:
        return times.get(name, LayerTime())

    counts, calls = tracer.counts, tracer.calls
    replicates = counts["resampling.replicates"]
    bootstrap_s = span("resampling.bootstrap_bands").total
    job_s = span(ROOT_SPAN).total
    return {
        "report.ingest_s": span("report.ingest").total,
        "report.ingest_rows": counts["report.ingest_rows"],
        "report.file_digest_s": span("report.file_digest").total,
        "report.digest_bytes": counts["report.digest_bytes"],
        "curves.decision_curve_s": span("curves.decision_curve").total,
        "curves.decision_curve.self_s": span("curves.decision_curve").own,
        "curves.points": counts["curves.points"],
        "calibration.threshold_calibration_s": span("calibration.threshold_calibration").total,
        "calibration.calls": calls["calibration.threshold_calibration"],
        "equivalences.verdict_vs_defaults_s": span("equivalences.verdict_vs_defaults").total,
        "equivalences.verdict_vs_defaults.self_s": span("equivalences.verdict_vs_defaults").own,
        "equivalences.calls": calls["equivalences.verdict_vs_defaults"],
        "metrics.classify_at_threshold_s": span("metrics.classify_at_threshold").total,
        "metrics.calls": calls["metrics.classify_at_threshold"],
        "comparison.compare_models_s": span("comparison.compare_models").total,
        "comparison.compare_models.self_s": span("comparison.compare_models").own,
        "comparison.calls": calls["comparison.compare_models"],
        "resampling.bootstrap_bands_s": bootstrap_s,
        "resampling.replicate_ms": 1000.0 * bootstrap_s / replicates if replicates else 0.0,
        "resampling.replicates": replicates,
        "report.emit_report_s": span("report.emit_report").total,
        "report.output_bytes": counts["report.output_bytes"],
        "svg.render_svg_s": span("svg.render_svg").total,
        "svg.output_bytes": counts["svg.output_bytes"],
        "cli.self_s": span(ROOT_SPAN).own,
        "trace.job_s": job_s,
        "trace.overhead_s": job_s - untraced_job_s,
    }
