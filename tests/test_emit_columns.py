"""Reports hold curves and verdicts as columns, from the sweep to the bytes.

``ModelCurve`` and ``ComparisonSection`` keep the kernels' columns, whether
they are given rows or columns, and build rows only when they are read.
The CSV writer reads only the columns; both formats must give the bytes
of the row-by-row writer in tests/rows_report.py, and a parsed report
must give its own bytes back.
"""

from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcakit import (
    BandSpec,
    CalibrationSummary,
    ComparisonSection,
    ComparisonVerdict,
    CurvePoint,
    ModelCurve,
    PredictionSet,
    ReportDocument,
    ThresholdGrid,
    bootstrap_bands,
    compare_curve,
    decision_curve,
    emit_report,
    parse_report,
)
from dcakit.cli import cli_main
from dcakit.comparison import compare_columns
from dcakit.curves import curve_columns
from rows_report import rows_csv, rows_json

DATA_DIR = Path(__file__).parent / "data"

# Names csv must quote (a comma, a double quote, a newline), non-ASCII ones
# and a plain one.
NAMES = ["risk, v2", 'the "new" model', "two\nlines", "modèle ü", "名前", "plain", ""]
# The second grid leaves the below group empty at its first threshold and
# the above group empty at its last, for most cohorts.
GRIDS = [ThresholdGrid(0.1, 0.5, 0.1), ThresholdGrid(0.05, 0.95, 0.05),
         ThresholdGrid(0.001, 0.999, 0.049)]
METADATA = {"tool": "dcakit", "options": {"note": "ü"}}


@st.composite
def cohorts(draw, n_models):
    grid = draw(st.sampled_from(GRIDS))
    n = draw(st.integers(2, 25))
    risk = st.sampled_from(grid.points) | st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    outcomes = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    names = draw(st.lists(st.sampled_from(NAMES), min_size=n_models, max_size=n_models,
                          unique=True))
    sets = [PredictionSet(risks=np.array(draw(st.lists(risk, min_size=n, max_size=n))),
                          outcomes=outcomes, name=name) for name in names]
    return grid, sets


def _blank_some(draw, rows):
    """``rows`` with some group-tied fields None, as a hand-edited report has."""
    def blank(obj):
        tied = [f.name for f in fields(obj) if "group" in f.metadata]
        return replace(obj, **{name: None for name in tied if draw(st.booleans())})

    edited = []
    for row in rows:
        if draw(st.booleans()):
            row = (replace(row, ppv_all_ref=None, calibration=blank(row.calibration))
                   if isinstance(row, CurvePoint) else blank(row))
        edited.append(row)
    return edited


@settings(max_examples=40, deadline=None)
@given(case=cohorts(3), banded=st.lists(st.booleans(), min_size=3, max_size=3),
       edited=st.booleans(), data=st.data())
def test_curves_match_the_row_writer(case, banded, edited, data):
    grid, sets = case
    rows = [decision_curve(d, grid) for d in sets]
    if edited:
        rows = [_blank_some(data.draw, points) for points in rows]
        models = [ModelCurve(d.name, points) for d, points in zip(sets, rows)]
    else:
        models = [ModelCurve(d.name, curve_columns(d, grid)) for d in sets]
    bands = {d.name: bootstrap_bands(d, grid, BandSpec(replicates=7, seed=1))
             for d, on in zip(sets, banded) if on}
    doc = ReportDocument(metadata=METADATA, models=models, bands=bands)
    named = [(d.name, points) for d, points in zip(sets, rows)]
    assert emit_report(doc, "csv") == rows_csv(named, bands)
    assert emit_report(doc, "json") == rows_json(METADATA, named, bands)


@settings(max_examples=40, deadline=None)
@given(case=cohorts(3), edited=st.booleans(), data=st.data())
def test_comparisons_match_the_row_writer(case, edited, data):
    grid, (d1, d2, d3) = case
    pairs = [(d1, d2), (d2, d3), (d3, d1)]
    rows = [compare_curve(a, b, grid) for a, b in pairs]
    if edited:
        rows = [_blank_some(data.draw, verdicts) for verdicts in rows]
        sections = [ComparisonSection(a.name, b.name, verdicts)
                    for (a, b), verdicts in zip(pairs, rows)]
    else:
        sections = [ComparisonSection(a.name, b.name, compare_columns(a, b, grid))
                    for a, b in pairs]
    doc = ReportDocument(metadata=METADATA, comparisons=sections)
    named = [(a.name, b.name, verdicts) for (a, b), verdicts in zip(pairs, rows)]
    assert emit_report(doc, "csv") == rows_csv(comparisons=named)
    assert emit_report(doc, "json") == rows_json(METADATA, comparisons=named)


@settings(max_examples=30, deadline=None)
@given(case=cohorts(2), banded=st.booleans(), edited=st.booleans(), data=st.data())
def test_parsed_report_emits_its_bytes(case, banded, edited, data):
    grid, (d1, d2) = case
    rows = decision_curve(d1, grid)
    verdicts = compare_curve(d1, d2, grid)
    if edited:
        rows, verdicts = _blank_some(data.draw, rows), _blank_some(data.draw, verdicts)
    doc = ReportDocument(
        metadata=METADATA,
        models=(ModelCurve(d1.name, rows), ModelCurve(d2.name, curve_columns(d2, grid))),
        bands={d1.name: bootstrap_bands(d1, grid, BandSpec(replicates=5))} if banded else {},
        comparisons=(ComparisonSection(d1.name, d2.name, verdicts),
                     ComparisonSection(d2.name, d1.name, compare_columns(d2, d1, grid))))
    text = emit_report(doc, "json")
    parsed = parse_report(text)
    assert parsed == doc
    assert emit_report(parsed, "json") == text
    assert emit_report(parsed, "csv") == emit_report(doc, "csv")
    sections_only = replace(parsed, models=(), bands={})
    assert emit_report(sections_only, "csv") == emit_report(replace(doc, models=(), bands={}),
                                                            "csv")


def test_rows_are_built_on_first_read(d0):
    columns = curve_columns(d0, GRIDS[1])
    model = ModelCurve("d0", columns)
    assert model.columns is columns and "points" not in vars(model)
    assert model.points == tuple(decision_curve(d0, GRIDS[1]))
    assert model.points is model.points


def test_a_curve_given_rows_keeps_columns(d0):
    model = ModelCurve("d0", decision_curve(d0, GRIDS[1]))
    column, present = model.columns.column("calibration.y_below")
    assert isinstance(column, np.ndarray) and column.dtype == np.float64
    assert present.tolist() == [p.calibration.y_below is not None for p in model.points]


@pytest.fixture
def rows_refused(monkeypatch):
    """Constructing a CurvePoint, CalibrationSummary or ComparisonVerdict for
    one threshold raises; holders of columns, whose t is an array, pass."""
    for cls in (CurvePoint, CalibrationSummary, ComparisonVerdict):
        def refuse(self, t, *args, __init__=cls.__init__, **kwargs):
            if not isinstance(t, np.ndarray):
                raise AssertionError(f"{type(self).__name__} built for one threshold")
            __init__(self, t, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", refuse)


@pytest.mark.parametrize("command, sections", [("curves", 2), ("compare", 1)])
def test_csv_reports_build_no_row(command, sections, rows_refused, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert cli_main([command, "--input", str(DATA_DIR / "d0_pair.csv"), "--outcome", "y",
                     "--models", "d0", "d0_degraded", "--grid", "0.05:0.95:0.05",
                     "--format", "csv", "--out", str(out)]) == 0, capsys.readouterr().err
    assert out.read_bytes().count(b"\n") == 1 + 19 * sections
    with pytest.raises(AssertionError, match="built for one threshold"):
        decision_curve(PredictionSet(np.array([0.3]), np.array([1])), GRIDS[0])
