import csv
import io
import json
import re
from dataclasses import fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest

from dcakit import (
    BandSpec,
    CalibrationSummary,
    ComparisonSection,
    ComparisonVerdict,
    CurveBand,
    CurvePoint,
    DataError,
    DefaultsVerdict,
    IngestionError,
    IngestionSpec,
    ModelCurve,
    ReportDocument,
    ThresholdGrid,
    UsageError,
    bootstrap_bands,
    compare_curve,
    compare_models,
    decision_curve,
    emit_report,
    file_digest,
    ingest,
    parse_report,
)
from dcakit.report import csv_value

GRID = ThresholdGrid(0.1, 0.5, 0.1)


def build_doc(d0, with_bands=False):
    models = (ModelCurve(name=d0.name, points=tuple(decision_curve(d0, GRID))),)
    bands = {}
    if with_bands:
        bands = {d0.name: bootstrap_bands(d0, GRID, BandSpec(replicates=50, seed=1))}
    metadata = {
        "tool": "dcakit",
        "version": "0.1.0",
        "grid": {"lo": GRID.lo, "hi": GRID.hi, "step": GRID.step},
        "options": {},
    }
    return ReportDocument(metadata=metadata, models=models, bands=bands)


class TestIngest:
    def test_d0_fixture(self, d0_csv_path, d0):
        (data,) = ingest(IngestionSpec(path=str(d0_csv_path), outcome_column="y",
                                       model_columns=("m1",)))
        assert data.n == 10
        assert data.prevalence == 0.4
        assert data.name == "m1"
        assert np.array_equal(data.risks, d0.risks)  # row order preserved
        assert np.array_equal(data.outcomes, d0.outcomes)

    def test_two_model_columns_share_outcomes(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("y,m1,m2\n1,0.8,0.6\n0,0.3,0.4\n1,0.7,0.2\n")
        first, second = ingest(IngestionSpec(path=str(path), outcome_column="y",
                                             model_columns=("m1", "m2")))
        assert np.array_equal(first.outcomes, second.outcomes)
        assert first.name == "m1" and second.name == "m2"
        assert list(second.risks) == [0.6, 0.4, 0.2]

    def test_missing_column(self, d0_csv_path):
        with pytest.raises(IngestionError, match="'m9' not found"):
            ingest(IngestionSpec(path=str(d0_csv_path), outcome_column="y",
                                 model_columns=("m9",)))

    def test_risk_out_of_range_cites_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,m1\n1,0.8\n0,0.3\n1,1.2\n")
        with pytest.raises(IngestionError, match=r"row 3.*'m1'"):
            ingest(IngestionSpec(path=str(path), outcome_column="y",
                                 model_columns=("m1",)))

    def test_non_binary_outcome_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,m1\n2,0.8\n")
        with pytest.raises(IngestionError, match="row 1"):
            ingest(IngestionSpec(path=str(path), outcome_column="y",
                                 model_columns=("m1",)))

    def test_outcome_must_be_literal(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,m1\n1.0,0.8\n")
        with pytest.raises(IngestionError, match="literal 0 or 1"):
            ingest(IngestionSpec(path=str(path), outcome_column="y",
                                 model_columns=("m1",)))

    def test_missing_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,m1\n1,0.8\n0,\n")
        with pytest.raises(IngestionError, match=r"missing risk.*row 2"):
            ingest(IngestionSpec(path=str(path), outcome_column="y",
                                 model_columns=("m1",)))

    def test_non_numeric_risk_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,m1\n1,high\n")
        with pytest.raises(IngestionError, match="not a number"):
            ingest(IngestionSpec(path=str(path), outcome_column="y",
                                 model_columns=("m1",)))

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,m1\n1,0.8\n0\n")
        with pytest.raises(IngestionError, match="row 2"):
            ingest(IngestionSpec(path=str(path), outcome_column="y",
                                 model_columns=("m1",)))

    def test_headerless_indexing(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1,0.8\n0,0.3\n")
        (data,) = ingest(IngestionSpec(path=str(path), outcome_column="0",
                                       model_columns=("1",), header=False))
        assert data.n == 2
        assert list(data.risks) == [0.8, 0.3]

    def test_alternate_delimiter(self, tmp_path):
        path = tmp_path / "semi.csv"
        path.write_text("y;m1\n1;0.8\n0;0.3\n")
        (data,) = ingest(IngestionSpec(path=str(path), outcome_column="y",
                                       model_columns=("m1",), delimiter=";"))
        assert data.n == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError, match="cannot read"):
            ingest(IngestionSpec(path=str(tmp_path / "nope.csv"), outcome_column="y",
                                 model_columns=("m1",)))


class TestDigest:
    def test_changes_iff_bytes_change(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("y,m1\n1,0.5\n")
        first = file_digest(str(path))
        assert file_digest(str(path)) == first
        path.write_text("y,m1\n1,0.6\n")
        assert file_digest(str(path)) != first


class TestSerialization:
    def test_json_round_trip_lossless(self, d0):
        doc = build_doc(d0, with_bands=True)
        assert parse_report(emit_report(doc, format="json")) == doc

    def test_json_round_trip_with_comparisons(self, d0, d0_degraded):
        verdicts = tuple(compare_models(d0, d0_degraded, t) for t in GRID.points)
        doc = ReportDocument(
            metadata={"tool": "dcakit"},
            comparisons=(ComparisonSection("d0", "d0-degraded", verdicts),),
        )
        assert parse_report(emit_report(doc, format="json")) == doc

    def test_empty_sections_omitted(self, d0):
        payload = emit_report(build_doc(d0), format="json").decode()
        assert '"bands"' not in payload
        assert '"comparisons"' not in payload

    def test_csv_and_json_numerically_identical(self, d0):
        doc = build_doc(d0, with_bands=True)
        parsed = parse_report(emit_report(doc, format="json"))
        rows = list(csv.DictReader(io.StringIO(emit_report(doc, format="csv").decode())))
        assert len(rows) == len(GRID.points)
        for row, point in zip(rows, parsed.models[0].points):
            assert float(row["t"]) == point.t
            assert float(row["nb_model"]) == point.nb_model
            assert float(row["ppv"]) == point.ppv
            assert float(row["s_t"]) == point.s_t
            if point.ppv_all_ref is None:
                assert row["ppv_all_ref"] == ""
            else:
                assert float(row["ppv_all_ref"]) == point.ppv_all_ref
            band = parsed.bands[d0.name]
            j = GRID.points.index(point.t)
            assert float(row["nb_lower"]) == band.nb_lower[j]
            assert float(row["nb_upper"]) == band.nb_upper[j]

    def test_csv_d0_single_threshold_row(self, d0):
        models = (ModelCurve(name="d0",
                             points=tuple(decision_curve(d0, ThresholdGrid(0.5, 0.5, 0.1)))),)
        doc = ReportDocument(metadata={}, models=models)
        text = emit_report(doc, format="csv").decode()
        (row,) = list(csv.DictReader(io.StringIO(text)))
        assert float(row["nb_model"]) == pytest.approx(0.1, abs=1e-12)
        assert float(row["ppv"]) == 0.6

    def test_csv_comparison_rows(self, d0, d0_degraded):
        verdict = compare_models(d0, d0_degraded, 0.5)
        doc = ReportDocument(
            metadata={},
            comparisons=(ComparisonSection("d0", "d0-degraded", (verdict,)),),
        )
        (row,) = list(csv.DictReader(io.StringIO(emit_report(doc, format="csv").decode())))
        assert row["winner"] == "model1"
        assert float(row["nb1"]) == verdict.nb1

    def test_unknown_format_rejected(self, d0):
        with pytest.raises(UsageError):
            emit_report(build_doc(d0), format="xml")

    def test_seventeen_digit_rendering(self, d0):
        doc = build_doc(d0)
        text = emit_report(doc, format="csv").decode()
        # 0.1 survives the trip through text exactly
        value = doc.models[0].points[-1].nb_model
        assert f"{value:.17g}" in text


@pytest.mark.parametrize("cls", [CalibrationSummary, DefaultsVerdict, CurvePoint,
                                 ComparisonVerdict])
def test_group_tied_fields_are_the_fields_that_admit_none(cls):
    tied = {f.name for f in fields(cls) if "group" in f.metadata}
    admit_none = {name for name, hint in get_type_hints(cls).items()
                  if type(None) in get_args(hint)}
    assert tied and tied == admit_none


def _names(cls, *skip):
    return [f.name for f in fields(cls) if f.name not in skip]


def per_cell_csv(doc):
    """The CSV export written row by row: one csv_value per cell, csv.writer
    quoting every row."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if doc.models:
        point_names = _names(CurvePoint, "calibration")
        calibration_names = _names(CalibrationSummary, "t", "s_t")
        band_names = _names(CurveBand, "spec", "thresholds") if doc.bands else []
        writer.writerow(["model", *point_names, *calibration_names, *band_names])
        for model in doc.models:
            band = doc.bands.get(model.name)
            for j, point in enumerate(model.points):
                writer.writerow([csv_value(v) for v in (
                    model.name,
                    *(getattr(point, name) for name in point_names),
                    *(getattr(point.calibration, name) for name in calibration_names),
                    *(getattr(band, name)[j] if band else None for name in band_names))])
    else:
        verdict_names = _names(ComparisonVerdict, "ppv_route_available")
        writer.writerow(["model1", "model2", *verdict_names])
        for section in doc.comparisons:
            for verdict in section.verdicts:
                writer.writerow([csv_value(v) for v in (
                    section.model1, section.model2,
                    *(getattr(verdict, name) for name in verdict_names))])
    return out.getvalue().encode("utf-8")


# Model names csv must quote: a comma, a double quote and a newline; and one
# it must not.
AWKWARD_NAMES = ["risk, v2", 'the "new" model', "two\nlines", "plain"]


class TestCsvColumns:
    """The column-at-a-time CSV writer against the row-by-row one."""

    def test_curves_with_awkward_names(self, d0):
        grid = ThresholdGrid(0.05, 0.95, 0.05)  # both kinds of empty group
        models = tuple(ModelCurve(name=name, points=tuple(decision_curve(d0, grid)))
                       for name in AWKWARD_NAMES)
        # A band for some models only: the others get empty band cells.
        band = bootstrap_bands(d0, grid, BandSpec(replicates=20, seed=3))
        doc = ReportDocument(metadata={}, models=models,
                             bands={name: band for name in AWKWARD_NAMES[::2]})
        assert emit_report(doc, format="csv") == per_cell_csv(doc)
        assert emit_report(replace(doc, bands={}), format="csv") == per_cell_csv(
            replace(doc, bands={}))

    def test_compare_with_awkward_names(self, d0, d0_degraded):
        grid = ThresholdGrid(0.05, 0.95, 0.05)
        verdicts = tuple(compare_curve(d0, d0_degraded, grid))
        sections = tuple(ComparisonSection(a, b, verdicts)
                         for a, b in zip(AWKWARD_NAMES, AWKWARD_NAMES[1:] + [""]))
        doc = ReportDocument(metadata={}, comparisons=sections)
        assert emit_report(doc, format="csv") == per_cell_csv(doc)

    def test_text_cells_of_every_kind(self):
        cells = [None, True, False, 0.1, 3, "a,b"]
        assert [csv_value(v) for v in cells] == ["", "true", "false",
                                                 "0.10000000000000001", "3", "a,b"]


class TestParseMalformed:
    @pytest.fixture
    def payload(self, d0, d0_degraded):
        doc = build_doc(d0, with_bands=True)
        verdicts = (compare_models(d0, d0_degraded, 0.5),)
        doc = ReportDocument(metadata=doc.metadata, models=doc.models, bands=doc.bands,
                             comparisons=(ComparisonSection("d0", "d0-degraded", verdicts),))
        return json.loads(emit_report(doc, format="json"))

    @staticmethod
    def parse(payload):
        return parse_report(json.dumps(payload).encode("utf-8"))

    def test_empty_object_missing_metadata(self):
        with pytest.raises(DataError, match="missing \\['metadata'\\]"):
            parse_report(b"{}")

    @pytest.mark.parametrize("text", [b"[]", b"3", b"null", b'"report"'])
    def test_top_level_must_be_object(self, text):
        with pytest.raises(DataError, match="must be a JSON object"):
            parse_report(text)

    @pytest.mark.parametrize("key", ["t", "ppv_all_ref", "calibration"])
    def test_point_missing_field(self, payload, key):
        del payload["models"][0]["points"][0][key]
        with pytest.raises(DataError, match=f"CurvePoint.*missing \\['{key}'\\]"):
            self.parse(payload)

    def test_calibration_missing_field(self, payload):
        del payload["models"][0]["points"][1]["calibration"]["y_below"]
        with pytest.raises(DataError, match="CalibrationSummary.*'y_below'"):
            self.parse(payload)

    def test_point_extra_field(self, payload):
        payload["models"][0]["points"][0]["nb_extra"] = 0.0
        with pytest.raises(DataError, match="unexpected \\['nb_extra'\\]"):
            self.parse(payload)

    def test_document_extra_field(self, payload):
        payload["notes"] = "hand edited"
        with pytest.raises(DataError, match="ReportDocument.*unexpected \\['notes'\\]"):
            self.parse(payload)

    def test_band_spec_missing_field(self, payload):
        del payload["bands"]["d0"]["spec"]["seed"]
        with pytest.raises(DataError, match="BandSpec.*'seed'"):
            self.parse(payload)

    def test_verdict_missing_field(self, payload):
        del payload["comparisons"][0]["verdicts"][0]["winner"]
        with pytest.raises(DataError, match="ComparisonVerdict.*'winner'"):
            self.parse(payload)

    @pytest.mark.parametrize("path, wrong", [
        (("models",), {}),
        (("models", 0), []),
        (("models", 0, "points"), {}),
        (("models", 0, "points", 0), [0.5]),
        (("models", 0, "points", 0, "calibration"), None),
        (("bands",), []),
        (("bands", "d0", "nb_lower"), 0.1),
        (("bands", "d0", "spec"), "percentile"),
        (("comparisons",), {}),
        (("comparisons", 0, "verdicts"), "none"),
        (("metadata",), []),
    ])
    def test_wrong_container_type(self, payload, path, wrong):
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = wrong
        with pytest.raises(DataError, match="must be a JSON"):
            self.parse(payload)

    @pytest.mark.parametrize("path, wrong, message", [
        (("models", 0, "name"), 3, "ModelCurve.name must be str, got 3"),
        (("bands", "d0", "thresholds"), ["a"], r"CurveBand.thresholds\[0\] must be float"),
        (("models", 0, "points", 0, "t"), "zero point two five", "CurvePoint.t must be float"),
        (("models", 0, "points", 0, "nb_model"), None, "CurvePoint.nb_model must be float"),
        (("models", 0, "points", 0, "s_t"), True, "CurvePoint.s_t must be float, got True"),
        (("models", 0, "points", 0, "calibration", "y_above"), "0.5",
         r"CalibrationSummary.y_above must be float \| None"),
        (("bands", "d0", "nb_lower"), [None], r"CurveBand.nb_lower\[0\] must be float"),
        (("bands", "d0", "ppv_replicates"), [1.5], r"CurveBand.ppv_replicates\[0\] must be int"),
        (("bands", "d0", "spec", "replicates"), True, "BandSpec.replicates must be int"),
        (("bands", "d0", "spec", "method"), None, "BandSpec.method must be str"),
        (("comparisons", 0, "verdicts", 0, "ppv_route_available"), 1,
         "ComparisonVerdict.ppv_route_available must be bool"),
        (("comparisons", 0, "model1"), ["d0"], "ComparisonSection.model1 must be str"),
    ])
    def test_wrong_value_type(self, payload, path, wrong, message):
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = wrong
        with pytest.raises(DataError, match=message):
            self.parse(payload)

    @pytest.mark.parametrize("path, value, message", [
        (("models", 0, "points", 0, "nb_model"), float("nan"),
         r"CurvePoint.nb_model must be float, got Decimal\('NaN'\)"),
        (("models", 0, "points", 1, "t"), float("inf"),
         r"CurvePoint.t must be float, got Decimal\('Infinity'\)"),
        (("models", 0, "points", 0, "calibration", "y_above"), -float("inf"),
         r"CalibrationSummary.y_above must be float \| None, got Decimal\('-Infinity'\)"),
        (("bands", "d0", "nb_upper"), [float("nan")], r"CurveBand.nb_upper\[0\] must be float"),
        (("comparisons", 0, "verdicts", 0, "nb1"), float("inf"),
         "ComparisonVerdict.nb1 must be float"),
        (("metadata", "grid", "lo"), float("nan"),
         r"ReportDocument.metadata must hold only JSON values, got Decimal\('NaN'\)"),
    ])
    def test_non_finite_tokens_are_refused(self, payload, path, value, message):
        # json.dumps writes NaN, Infinity and -Infinity, which JSON does not have.
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(DataError, match=message):
            self.parse(payload)

    def test_golden_report_with_non_finite_tokens_is_refused(self):
        text = (Path(__file__).parent / "data" / "golden" / "curves.json").read_text()
        assert "NaN" not in text and "Infinity" not in text
        for field, token in (("nb_model", "NaN"), ("t", "Infinity")):
            edited = re.sub(rf'"{field}": [^,\n]+', f'"{field}": {token}', text, count=1)
            with pytest.raises(DataError, match=f"CurvePoint.{field} must be float"):
                parse_report(edited.encode())

    def test_int_fits_float_and_null_fits_optional(self, payload):
        point = payload["models"][0]["points"][0]
        point["t"], point["ppv_all_ref"] = 1, None
        payload["bands"]["d0"]["ppv_lower"][0] = None
        doc = self.parse(payload)
        assert doc.models[0].points[0].t == 1 and doc.models[0].points[0].ppv_all_ref is None
        assert doc.bands["d0"].ppv_lower[0] is None

    def test_well_formed_payload_parses(self, payload):
        doc = self.parse(payload)
        assert len(doc.models[0].points) == len(GRID.points)
        assert doc.bands["d0"].spec == BandSpec(replicates=50, seed=1)
