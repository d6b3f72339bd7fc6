"""Each workload's check passes dcakit's real output and flags a corrupted one."""

import csv
import io
import json

import numpy as np
import pytest

import oracles
from inputs import Cohort


def _edit_json(ctx, name, edit):
    path = ctx.out(name)
    report = json.loads(ctx.read(name))
    edit(report)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)


def test_perturbed_nb_model_is_flagged(run_small):
    workload, ctx, codes, err = run_small("curves-1m", 3000)

    def perturb(report):
        report["models"][1]["points"][7]["nb_model"] += 1e-9

    _edit_json(ctx, "curves.json", perturb)
    problems = workload.check(ctx, codes, err)
    assert len(problems) == 1 and "m2" in problems[0] and "nb_model" in problems[0]


def test_truncated_svg_is_flagged(run_small):
    workload, ctx, codes, err = run_small("curves-1m", 500)
    path = ctx.out("chart-ppv.svg")
    text = ctx.read("chart-ppv.svg")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text[: len(text) // 2])
    assert workload.check(ctx, codes, err) == ["ppv panel is not a complete SVG document"]


def test_flipped_winner_is_flagged(run_small):
    workload, ctx, codes, err = run_small("finegrid-50k", 3000)
    rows = list(csv.reader(io.StringIO(ctx.read("compare.csv"))))
    col = rows[0].index("winner")
    flipped = next(r for r in rows[1:] if r[col] in ("model1", "model2"))
    flipped[col] = "model2" if flipped[col] == "model1" else "model1"
    with open(ctx.out("compare.csv"), "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    problems = workload.check(ctx, codes, err)
    assert len(problems) == 1 and "winner" in problems[0]


@pytest.mark.parametrize("key, delta", [("nb_lower", 1e-6), ("ppv_upper", -1e-6),
                                        ("ppv_replicates", 1)])
def test_altered_band_value_is_flagged(run_small, key, delta):
    workload, ctx, codes, err = run_small("bootstrap-100k", 2000)

    def alter(report):
        report["bands"]["m1"][key][20] += delta

    _edit_json(ctx, "bootstrap.json", alter)
    problems = workload.check(ctx, codes, err)
    assert len(problems) == 1 and f"{key}[20]" in problems[0]


def test_reject_needs_exit_2_and_the_row_and_column(run_small):
    workload, ctx, codes, err = run_small("reject-500k", 300)
    assert codes == [2] and "row 300" in err
    assert workload.check(ctx, [0], err)
    assert workload.check(ctx, codes, err.replace("row 300", "row 299"))
    assert workload.check(ctx, codes, err.replace("'y'", "'m1'"))
    with open(ctx.out("curves.json"), "w", encoding="utf-8") as handle:
        handle.write("{}")
    assert workload.check(ctx, codes, err) == ["a report was written for a rejected input"]


def test_ties_count_positive():
    cohort = Cohort(outcomes=np.array([True, False, True, False]),
                    risks={"m": np.array([0.2, 0.15, 0.15, 0.1])})
    tp, fp = oracles.CohortCounts(cohort).at("m", [0.15, 0.15000000000000002, 0.3])
    assert tp.tolist() == [2, 1, 0] and fp.tolist() == [1, 0, 0]


def test_missing_model_is_flagged():
    cohort = Cohort(outcomes=np.array([True, False]), risks={"m1": np.array([0.4, 0.2])})
    counts = oracles.CohortCounts(cohort)
    points = {"m1": [{"t": 0.01, "nb_model": 0.5 - 0.5 / 99, "s_t": 1.0, "ppv": 0.5}]}
    assert oracles.check_curves(points, counts, ("m1",), 0.01, 0.01, 1) == []
    assert oracles.check_curves(points, counts, ("m1", "m2"), 0.01, 0.01, 1)
    assert oracles.check_curves(points, counts, ("m1",), 0.01, 0.01, 2)
