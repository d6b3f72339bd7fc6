import contextlib
import importlib
import io
import json
from pathlib import Path

import pytest

import dcakit.cli
import workloads
from inputs import FULL_PRECISION, write_input
from tracer import Span, Target, Tracer, layer_times, self_times

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("leaf", 2.0, 3.0, 1),
        Span("b", 3.5, 6.0, 0),  # overlaps a: covered time is a union
        Span("a", 7.0, 11.0, 0),  # runs past its parent: clipped to 7..10
    ]
    assert self_times(spans) == pytest.approx([10.0 - 8.0, 2.0, 1.0, 2.5, 4.0])
    times = layer_times(spans)
    assert times["a"].total == pytest.approx(7.0)
    assert times["a"].own == pytest.approx(6.0)
    assert times["root"].own == pytest.approx(2.0)


def test_spans_nest_with_parents_and_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    double = tracer.wrap(lambda x: 2 * x, "double", lambda args, r, e: {"doubled": r})
    with tracer.span("outer"):
        assert double(3) == 6
        assert double(4) == 8
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("outer", 0.0, 5.0, None), ("double", 1.0, 2.0, 0), ("double", 3.0, 4.0, 0)]
    assert tracer.calls == {"outer": 1, "double": 2}
    assert tracer.counts == {"doubled": 14}


def _originals():
    return {(t.module, t.attr): getattr(importlib.import_module(t.module), t.attr)
            for t in workloads.TRACE_TARGETS}


def _traced_job(tmp_path, tracer, calls):
    with tracer.installed(workloads.TRACE_TARGETS), tracer.span(workloads.ROOT_SPAN), \
            contextlib.redirect_stderr(io.StringIO()):
        return [dcakit.cli.cli_main(argv) for argv in calls]


def test_tracer_leaves_dcakit_unpatched(tmp_path):
    before = _originals()
    made = write_input(str(tmp_path / "x.csv"), 400, 1, FULL_PRECISION)
    io_args = ["--input", made.path, "--outcome", "y", "--models", "m1", "m2"]
    tracer = Tracer()
    codes = _traced_job(tmp_path, tracer, [
        ["curves", *io_args, "--out", str(tmp_path / "c.json")],
        ["compare", *io_args, "--out", str(tmp_path / "k.json")],
    ])
    assert codes == [0, 0]
    assert tracer.missing == []
    assert tracer.calls["report.ingest"] == 2
    assert tracer.calls["metrics.classify_at_threshold"] == 4 * 50
    assert _originals() == before

    with pytest.raises(ZeroDivisionError), Tracer().installed(workloads.TRACE_TARGETS):
        1 / 0
    assert _originals() == before


def test_missing_names_report_zero_calls():
    tracer = Tracer()
    targets = (Target("dcakit.cli", "no_such_function", "gone"),
               Target("dcakit.no_such_module", "f", "gone"))
    with tracer.installed(targets):
        pass
    assert tracer.missing == ["dcakit.cli.no_such_function", "dcakit.no_such_module.f"]
    assert tracer.calls["gone"] == 0


def test_per_layer_metrics_cover_the_job(tmp_path):
    made = write_input(str(tmp_path / "x.csv"), 300, 2, FULL_PRECISION)
    tracer = Tracer()
    _traced_job(tmp_path, tracer, [
        ["bootstrap", "--input", made.path, "--outcome", "y", "--models", "m1",
         "--replicates", "20", "--out", str(tmp_path / "b.json")],
    ])
    values = workloads.per_layer_metrics(tracer, untraced_job_s=0.0)
    assert sorted(values) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert values["resampling.replicates"] == 20
    assert values["report.ingest_rows"] == 300
    assert values["curves.points"] == 50
    assert values["comparison.calls"] == 0
    parts = sum(values[name] for name in workloads.SELF_TIME_METRICS)
    assert parts == pytest.approx(values["trace.job_s"], abs=1e-9)
    assert values["trace.overhead_s"] == values["trace.job_s"]
