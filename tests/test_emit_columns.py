"""Reports hold curves and verdicts as columns, from the sweep to the bytes.

``ModelCurve`` and ``ComparisonSection`` keep the kernels' columns, whether
they are given rows or columns, and build rows only when they are read.
The CSV writer reads only the columns; both formats must give the bytes
of the row-by-row writer in tests/rows_report.py, and a parsed report
must give its own bytes back.
"""

import json
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcakit import (
    BandSpec,
    CalibrationSummary,
    CurveBand,
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
from dcakit.calibration import calibration_columns
from dcakit.cli import cli_main
from dcakit.comparison import compare_columns
from dcakit.curves import curve_columns
from dcakit.equivalences import defaults_columns
from dcakit.errors import DataError, UsageError
from dcakit.metrics import group_masks, sweep_counts
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


def _edit_band(draw, band, empty):
    """``band`` with some PPV entries None, as where no replicate selects
    anyone, and with no entries at all where ``empty``."""
    band = replace(band, **{name: tuple(None if draw(st.booleans()) else v
                                        for v in getattr(band, name))
                            for name in ("ppv_lower", "ppv_upper")})
    return replace(band, **{f.name: () for f in fields(band) if f.name != "spec"}) if empty \
        else band


THREE = st.lists(st.booleans(), min_size=3, max_size=3)


@settings(max_examples=40, deadline=None)
@given(case=cohorts(3), banded=THREE, edited=st.booleans(), empty=THREE, data=st.data())
def test_curves_match_the_row_writer(case, banded, edited, empty, data):
    """Some models have no band, some PPV band entries are None, and some
    curves have no rows."""
    grid, sets = case
    rows = [[] if cut else decision_curve(d, grid) for d, cut in zip(sets, empty)]
    if edited:
        rows = [_blank_some(data.draw, points) for points in rows]
    models = [ModelCurve(d.name, points if edited or cut else
                         curve_columns(sweep_counts(d, grid.points)))
              for d, points, cut in zip(sets, rows, empty)]
    bands = {d.name: _edit_band(data.draw, bootstrap_bands(d, grid, BandSpec(7, seed=1)), cut)
             for d, on, cut in zip(sets, banded, empty) if on}
    doc = ReportDocument(metadata=METADATA, models=models, bands=bands)
    named = [(d.name, points) for d, points in zip(sets, rows)]
    assert emit_report(doc, "csv") == rows_csv(named, bands)
    text = emit_report(doc, "json")
    assert text == rows_json(METADATA, named, bands)
    assert emit_report(parse_report(text), "json") == text


@settings(max_examples=40, deadline=None)
@given(case=cohorts(3), edited=st.booleans(), empty=THREE, data=st.data())
def test_comparisons_match_the_row_writer(case, edited, empty, data):
    """Some sections have no rows."""
    grid, (d1, d2, d3) = case
    pairs = [(d1, d2), (d2, d3), (d3, d1)]
    rows = [[] if cut else compare_curve(a, b, grid) for (a, b), cut in zip(pairs, empty)]
    if edited:
        rows = [_blank_some(data.draw, verdicts) for verdicts in rows]
    sections = [ComparisonSection(a.name, b.name, verdicts if edited or cut else
                                  compare_columns(a, b, grid))
                for (a, b), verdicts, cut in zip(pairs, rows, empty)]
    doc = ReportDocument(metadata=METADATA, comparisons=sections)
    named = [(a.name, b.name, verdicts) for (a, b), verdicts in zip(pairs, rows)]
    assert emit_report(doc, "csv") == rows_csv(comparisons=named)
    text = emit_report(doc, "json")
    assert text == rows_json(METADATA, comparisons=named)
    assert emit_report(parse_report(text), "json") == text


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
        models=(ModelCurve(d1.name, rows),
                ModelCurve(d2.name, curve_columns(sweep_counts(d2, grid.points)))),
        bands={d1.name: bootstrap_bands(d1, grid, BandSpec(replicates=5))} if banded else {},
        comparisons=(ComparisonSection(d1.name, d2.name, verdicts),
                     ComparisonSection(d2.name, d1.name, compare_columns(d2, d1, grid))))
    text = emit_report(doc, "json")
    parsed = parse_report(text)
    assert parsed == doc
    assert emit_report(parsed, "json") == text
    # CSV holds one table: curves and comparisons together are refused.
    with pytest.raises(UsageError, match="CSV report holds"):
        emit_report(parsed, "csv")
    curves_only = replace(parsed, comparisons=())
    assert emit_report(curves_only, "csv") == emit_report(replace(doc, comparisons=()), "csv")
    sections_only = replace(parsed, models=(), bands={})
    assert emit_report(sections_only, "csv") == emit_report(replace(doc, models=(), bands={}),
                                                            "csv")


def test_csv_refuses_a_report_it_cannot_hold_whole(d0, d0_degraded):
    """A CSV report is one table, so a report it would cut short raises
    instead of dropping its comparisons or printing nothing for its bands."""
    grid = GRIDS[0]
    curves = (ModelCurve("d0", curve_columns(sweep_counts(d0, grid.points))),)
    bands = {"d0": bootstrap_bands(d0, grid, BandSpec(replicates=5))}
    sections = (ComparisonSection("d0", "d0-degraded", compare_columns(d0, d0_degraded, grid)),)
    for doc in (ReportDocument(METADATA, curves, comparisons=sections),
                ReportDocument(METADATA, curves, bands, sections),
                ReportDocument(METADATA, bands=bands),
                ReportDocument(METADATA, bands=bands, comparisons=sections)):
        with pytest.raises(UsageError, match="CSV report holds"):
            emit_report(doc, "csv")
        assert parse_report(emit_report(doc, "json")) == doc
    for doc in (ReportDocument(METADATA, curves, bands), ReportDocument(METADATA, curves),
                ReportDocument(METADATA, comparisons=sections)):
        assert emit_report(doc, "csv").count(b"\n") == 1 + len(grid.points)
    assert emit_report(ReportDocument(METADATA), "csv") == b""


def test_rows_are_built_on_first_read(d0):
    columns = curve_columns(sweep_counts(d0, GRIDS[1].points))
    model = ModelCurve("d0", columns)
    assert model.columns is columns and "points" not in vars(model)
    assert model.points == tuple(decision_curve(d0, GRIDS[1]))
    assert model.points is model.points


def test_a_curve_given_rows_keeps_columns(d0):
    model = ModelCurve("d0", decision_curve(d0, GRIDS[1]))
    column = model.columns.calibration.y_below
    assert isinstance(column, np.ndarray) and column.dtype == np.float64
    assert np.isnan(column).tolist() == [p.calibration.y_below is None for p in model.points]


def _float_columns(columns):
    """(field, column) for every float column of ``columns``, nested ones too."""
    for f in fields(columns):
        column = getattr(columns, f.name)
        if is_dataclass(column):
            yield from _float_columns(column)
        elif column.dtype.kind == "f":
            yield f, column


@settings(max_examples=60, deadline=None)
@given(case=cohorts(2))
def test_nan_marks_exactly_the_empty_groups(case):
    """NaN is the only mark of an empty group: a group-tied column is NaN
    exactly where group_masks finds its group empty, and every other float
    column is finite."""
    grid, (d1, d2) = case
    c1, c2 = sweep_counts(d1, grid.points), sweep_counts(d2, grid.points)
    (above1, below1), (above2, below2) = group_masks(c1), group_masks(c2)
    own = {"above": above1, "below": below1}
    kernels = [
        (curve_columns(c1), own),
        (defaults_columns(c1), own),
        (calibration_columns(c1), own),
        (compare_columns(d1, d2, grid),
         {"above1": above1, "below1": below1, "above2": above2, "below2": below2}),
    ]
    for columns, present in kernels:
        for f, column in _float_columns(columns):
            if "group" in f.metadata:
                assert np.isnan(column).tolist() == (~present[f.metadata["group"]]).tolist(), \
                    f.name
            else:
                assert np.isfinite(column).all(), f.name


def test_a_nan_in_a_group_tied_field_is_refused(d0, d0_degraded):
    """NaN in a group-tied column means the group is empty, so a row that
    gives NaN there is refused rather than read back as None."""
    nan = float("nan")
    points = decision_curve(d0, GRIDS[1])
    with pytest.raises(DataError, match=r"CurvePoint\.ppv_all_ref is NaN in row 3"):
        ModelCurve("d0", [*points[:3], replace(points[3], ppv_all_ref=nan), *points[4:]])
    edited = replace(points[0], calibration=replace(points[0].calibration, y_below=nan))
    with pytest.raises(DataError, match=r"CalibrationSummary\.y_below is NaN in row 0"):
        ModelCurve("d0", [edited, *points[1:]])
    verdicts = compare_curve(d0, d0_degraded, GRIDS[1])
    with pytest.raises(DataError, match=r"ComparisonVerdict\.margin_below_2 is NaN"):
        ComparisonSection("d0", "d0-degraded",
                          [replace(verdicts[0], margin_below_2=nan), *verdicts[1:]])

    payload = json.loads(emit_report(ReportDocument(METADATA, (ModelCurve("d0", points),))))
    for key, edit in [("ppv_all_ref", lambda p: p.__setitem__("ppv_all_ref", nan)),
                      ("y_below", lambda p: p["calibration"].__setitem__("y_below", nan))]:
        copy = json.loads(json.dumps(payload))
        edit(copy["models"][0]["points"][2])
        text = json.dumps(copy).encode()
        assert b"NaN" in text
        with pytest.raises(DataError, match=f"{key} is NaN in row 2"):
            parse_report(text)


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


def test_bootstrap_csv_builds_no_row(rows_refused, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert cli_main(["bootstrap", "--input", str(DATA_DIR / "d0_pair.csv"), "--outcome", "y",
                     "--models", "d0", "d0_degraded", "--grid", "0.05:0.95:0.05",
                     "--replicates", "20", "--format", "csv", "--out", str(out)]) == 0, \
        capsys.readouterr().err
    assert out.read_bytes().count(b"\n") == 1 + 19 * 2


def test_fine_grid_csv_matches_the_row_writer():
    """Curves and a comparison on the 999-point grid over a seeded
    5,000-row cohort: one model's risks tie the grid's points, the other's
    are full precision, so every cell kind the formatter meets is here."""
    rng = np.random.default_rng(15)
    truth = rng.beta(2.0, 5.0, 5000)
    outcomes = (rng.random(5000) < truth).astype(np.int64)
    rounded = PredictionSet(np.round(truth, 3), outcomes, name="rounded")
    shifted = PredictionSet(np.clip(truth * 1.3 + rng.normal(0, 0.05, 5000), 0.0, 1.0),
                            outcomes, name="shifted")
    grid = ThresholdGrid(0.001, 0.999, 0.001)
    doc = ReportDocument(metadata=METADATA, models=tuple(
        ModelCurve(d.name, curve_columns(sweep_counts(d, grid.points)))
        for d in (rounded, shifted)))
    named = [(d.name, decision_curve(d, grid)) for d in (rounded, shifted)]
    assert emit_report(doc, "csv") == rows_csv(named)
    doc = ReportDocument(metadata=METADATA, comparisons=(
        ComparisonSection(rounded.name, shifted.name, compare_columns(rounded, shifted, grid)),))
    named = [(rounded.name, shifted.name, compare_curve(rounded, shifted, grid))]
    assert emit_report(doc, "csv") == rows_csv(comparisons=named)


def _with(columns, name, row, value):
    """A copy of ``columns`` whose field ``name``, nested ones too, holds
    ``value`` at ``row``."""
    edits = {}
    for f in fields(columns):
        column = getattr(columns, f.name)
        if is_dataclass(column):
            edits[f.name] = _with(column, name, row, value)
        elif f.name == name:
            edits[f.name] = column.copy()
            edits[f.name][row] = value
    return replace(columns, **edits)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_emit_refuses_what_json_cannot_hold(value, d0, d0_degraded):
    """Emit writes nothing parse_report refuses: a NaN, except in a
    group-tied field, where it marks an empty group, or an infinity in
    any float field or in metadata raises DataError in both formats,
    naming the field and row. Every t is refused when the report is
    built, and so is a NaN s_t, which differs from its calibration's."""
    grid = GRIDS[1]
    curve = curve_columns(sweep_counts(d0, grid.points))
    band = bootstrap_bands(d0, grid, BandSpec(replicates=5))
    sections = [(curve, lambda c: ReportDocument(METADATA, (ModelCurve("d0", c),), {"d0": band})),
                (compare_columns(d0, d0_degraded, grid),
                 lambda c: ReportDocument(METADATA, comparisons=(
                     ComparisonSection("d0", "d0-degraded", c),)))]
    docs = []
    for columns, build in sections:
        for name, f in {f.name: f for f, _ in _float_columns(columns)}.items():
            if name == "t" or value != value and "group" in f.metadata:
                continue
            if value != value and name == "s_t":
                with pytest.raises(DataError, match="s_t must equal the point's"):
                    build(_with(columns, name, 2, value))
                continue
            docs.append((name, [build(_with(columns, name, 2, value))]))
    for f in fields(CurveBand)[2:]:
        if value != value and "group" in f.metadata or f.name == "ppv_replicates":
            continue
        cells = list(getattr(band, f.name))
        cells[2] = value
        edited = replace(band, **{f.name: tuple(cells)})
        docs.append((f.name, [ReportDocument(METADATA, (ModelCurve("d0", curve),), {"d0": edited}),
                              ReportDocument(METADATA, bands={"d0": edited})]))
    assert len(docs) == (10 if value != value else 26)
    for name, (doc, *json_only) in docs:
        for emitted, format in [(doc, "csv"), (doc, "json"), *((d, "json") for d in json_only)]:
            with pytest.raises(DataError, match=rf"^{name} is {value} in row 2;"):
                emit_report(emitted, format)
    doc = ReportDocument({"options": {"level": value}}, (ModelCurve("d0", curve),))
    for format in ("csv", "json"):
        with pytest.raises(DataError, match="ReportDocument.metadata must hold only finite"):
            emit_report(doc, format)
