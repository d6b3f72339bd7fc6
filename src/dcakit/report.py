"""Data ingestion and report serialization.

Input files are delimited UTF-8 text with a header row by default: one
binary outcome column (literal 0/1) and one or more risk columns with
decimal values in [0, 1]. Reports serialize to JSON (self-describing,
lossless round trip) or CSV (flat, one row per model and threshold);
CSV numbers are rendered with 17 significant digits so parsed values
are bit-identical to the JSON ones.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cache
from itertools import repeat
from operator import attrgetter
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .calibration import CalibrationSummary
from .comparison import ComparisonVerdict
from .curves import CurvePoint
from .errors import DataError, IngestionError, UsageError
from .metrics import PredictionSet
from .resampling import BandSpec, CurveBand

__all__ = [
    "IngestionSpec",
    "ModelCurve",
    "ComparisonSection",
    "ReportDocument",
    "ingest",
    "file_digest",
    "emit_report",
    "parse_report",
]

FORMATS = ("json", "csv")

_BOM = b"\xef\xbb\xbf"
_NEWLINE = ord("\n")
_SCAN_BLOCK = 1 << 18  # bytes per block of the fast path's separator scan

@dataclass(frozen=True)
class IngestionSpec:
    """Where and how to read predictions.

    With ``header=False`` columns are addressed by 0-based index given
    as strings ("0", "1", ...).
    """

    path: str
    outcome_column: str
    model_columns: tuple[str, ...]
    delimiter: str = ","
    header: bool = True

    def __post_init__(self):
        object.__setattr__(self, "model_columns", tuple(self.model_columns))
        if not self.model_columns:
            raise DataError("at least one model column is required")
        for i, name in enumerate(self.model_columns):
            if name in self.model_columns[:i]:
                raise DataError(f"model column {name!r} is given more than once")
        if len(self.delimiter) != 1:
            raise DataError(f"delimiter must be a single character, got {self.delimiter!r}")


def file_digest(path: str) -> str:
    """SHA-256 of the raw file bytes; changes iff the bytes change."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        digest.update(handle.read())
    return digest.hexdigest()


def _parse_outcome(text: str, row: int, column: str) -> int:
    value = text.strip()
    if value == "0":
        return 0
    if value == "1":
        return 1
    if value == "":
        raise IngestionError("missing outcome value", row=row, column=column)
    raise IngestionError(f"outcome must be literal 0 or 1, got {text!r}", row=row, column=column)


def _parse_risk(text: str, row: int, column: str) -> float:
    value = text.strip()
    if value == "":
        raise IngestionError("missing risk value", row=row, column=column)
    try:
        risk = float(value)
    except ValueError:
        raise IngestionError(f"risk is not a number: {text!r}", row=row, column=column) from None
    if not 0.0 <= risk <= 1.0:
        raise IngestionError(f"risk outside [0, 1]: {text!r}", row=row, column=column)
    return risk


def _column_index(names: list[str]) -> dict[str, int]:
    """Each column name's position; a repeated name means its first column."""
    index = {}
    for i, name in enumerate(names):
        index.setdefault(name, i)
    return index


def _parse_rows(data: bytes, spec: IngestionSpec) -> tuple[np.ndarray, list[np.ndarray]]:
    """The validating row-by-row parser: any delimited UTF-8 file, and the
    exact row and column of the first bad cell."""
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IngestionError(
                f"{spec.path!r} is not UTF-8 text: byte {data[exc.start]:#04x} "
                f"at offset {exc.start}"
            ) from None
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
    rows = []
    try:
        for row in csv.reader(text, delimiter=spec.delimiter):
            rows.append(row)
    except csv.Error as exc:
        row_number = len(rows) if spec.header else len(rows) + 1
        raise IngestionError(f"malformed CSV: {exc}", row=row_number) from None
    if not rows:
        raise IngestionError(f"{spec.path!r} is empty")

    if spec.header:
        names = [name.strip() for name in rows[0]]
        data_rows = rows[1:]
    else:
        names = [str(i) for i in range(len(rows[0]))]
        data_rows = rows
    if not data_rows:
        raise IngestionError(f"{spec.path!r} has no data rows")

    index = _column_index(names)
    wanted = (spec.outcome_column, *spec.model_columns)
    for name in wanted:
        if name not in index:
            raise IngestionError(
                f"column {name!r} not found; available: {', '.join(map(repr, names))}"
            )

    outcomes = []
    risks = {name: [] for name in spec.model_columns}
    for row_number, row in enumerate(data_rows, start=1):
        if len(row) != len(names):
            raise IngestionError(
                f"expected {len(names)} fields, found {len(row)}", row=row_number
            )
        outcomes.append(_parse_outcome(row[index[spec.outcome_column]], row_number,
                                       spec.outcome_column))
        for name in spec.model_columns:
            risks[name].append(_parse_risk(row[index[name]], row_number, name))

    return (np.array(outcomes, dtype=np.int64),
            [np.array(risks[name], dtype=np.float64) for name in spec.model_columns])


def _separator_positions(body: np.ndarray, delimiter: int) -> np.ndarray:
    """Positions of the delimiter and newline bytes in ``body``, found block by
    block so that the comparison masks stay small next to the file."""
    found = []
    for start in range(0, body.size, _SCAN_BLOCK):
        block = body[start:start + _SCAN_BLOCK]
        hits = block == delimiter
        hits |= block == _NEWLINE
        found.append(np.flatnonzero(hits) + start)
    return np.concatenate(found)


def _scan_outcomes(body: np.ndarray, fields: int, column: int,
                   delimiter: int) -> np.ndarray | None:
    """The outcome column of a body whose every row has ``fields`` fields,
    no line is longer than csv's field size limit and every outcome cell is
    the single byte 0 or 1; None when any of that fails."""
    sep = _separator_positions(body, delimiter)
    if body[-1] != _NEWLINE:
        sep = np.append(sep, body.size)  # the last row ends at the end of the file
    rows, extra = divmod(sep.size, fields)
    kinds = body[sep[:-1]]  # the last separator always ends the last row
    if (extra or (kinds[fields - 1::fields] != _NEWLINE).any()
            or np.count_nonzero(kinds == _NEWLINE) != rows - 1):
        return None
    ends = sep[fields - 1::fields]
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    if (ends - starts).max() > csv.field_size_limit():
        return None
    cell_start = starts if column == 0 else sep[column - 1::fields] + 1
    if (sep[column::fields] - cell_start != 1).any():
        return None
    cells = body[cell_start]
    outcomes = cells == ord("1")
    if not (outcomes | (cells == ord("0"))).all():
        return None
    return outcomes.astype(np.int64)


def _parse_fast(data: bytes,
                spec: IngestionSpec) -> tuple[np.ndarray, list[np.ndarray]] | None:
    """numpy's C parser on a plain file; None when the file needs the row parser.

    A file is plain when every row provably reads as in ``_parse_rows``: a
    UTF-8 header and an ASCII body without quotes or lone CRs, the header's
    field count on every row, no line longer than csv's field size limit,
    outcome cells that are the single byte 0 or 1, and risks that
    ``np.loadtxt`` parses and finds in [0, 1]. Anything else, every error
    included, is left to the row parser.
    """
    wanted = (spec.outcome_column, *spec.model_columns)
    delimiter = spec.delimiter
    if (spec.outcome_column in spec.model_columns or not delimiter.isascii()
            or delimiter in '\r\n"'):
        return None
    data = data.removeprefix(_BOM)
    if b'"' in data:
        return None
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
        if b"\r" in data:
            return None
    first_end = data.find(b"\n")
    if first_end == -1:
        first_end = len(data)
    if not 0 < first_end <= csv.field_size_limit():
        return None
    try:
        cells = data[:first_end].decode("utf-8").split(delimiter)
    except UnicodeDecodeError:
        return None
    if spec.header:
        names = [name.strip() for name in cells]
        body_start = first_end + 1
    else:
        names = [str(i) for i in range(len(cells))]
        body_start = 0
    index = _column_index(names)
    if not all(name in index for name in wanted):
        return None
    columns = [index[name] for name in wanted]
    body = np.frombuffer(data, dtype=np.uint8)[body_start:]
    if body.size == 0 or body.max() >= 0x80:
        return None
    outcomes = _scan_outcomes(body, len(names), columns[0], ord(delimiter))
    if outcomes is None:
        return None
    try:
        risks = np.loadtxt(spec.path, dtype=np.float64, delimiter=delimiter, comments=None,
                           quotechar=None, skiprows=int(spec.header), usecols=columns[1:],
                           ndmin=2, encoding="utf-8-sig")
    except (OSError, ValueError):
        return None
    if (risks.shape != (outcomes.size, len(spec.model_columns))
            or not ((risks >= 0.0) & (risks <= 1.0)).all()):
        return None
    return outcomes, list(risks.T)


def ingest(spec: IngestionSpec) -> list[PredictionSet]:
    """Read one PredictionSet per model column, all sharing the outcome vector.

    Row order is preserved; rows are numbered from 1 (header excluded)
    in error messages. One leading UTF-8 byte order mark is skipped. A
    plain file goes through numpy's C parser, any other file through the
    row parser; both give the same arrays, and every error comes from the
    row parser.
    """
    try:
        with open(spec.path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise IngestionError(f"cannot read {spec.path!r}: {exc}") from exc
    outcomes, risks = _parse_fast(data, spec) or _parse_rows(data, spec)
    return [
        PredictionSet(risks=column, outcomes=outcomes, name=name)
        for name, column in zip(spec.model_columns, risks)
    ]


@dataclass(frozen=True)
class ModelCurve:
    """One model's curve points, in grid order."""

    name: str
    points: tuple[CurvePoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))


@dataclass(frozen=True)
class ComparisonSection:
    """Pairwise verdicts for one ordered model pair."""

    model1: str
    model2: str
    verdicts: tuple[ComparisonVerdict, ...]

    def __post_init__(self):
        object.__setattr__(self, "verdicts", tuple(self.verdicts))


@dataclass(frozen=True)
class ReportDocument:
    """Self-describing analysis report: metadata, curves, bands, comparisons."""

    metadata: dict
    models: tuple[ModelCurve, ...] = ()
    bands: dict = field(default_factory=dict)  # model name -> CurveBand
    comparisons: tuple[ComparisonSection, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "comparisons", tuple(self.comparisons))


def _fields(obj) -> dict:
    """A dataclass instance as its field -> value mapping, one level deep."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _names(cls, *skip: str) -> tuple[str, ...]:
    """The field names of ``cls`` except ``skip``."""
    return tuple(f.name for f in fields(cls) if f.name not in skip)


# CSV columns, in dataclass field order. A curve row flattens a point and its
# calibration summary, whose t and s_t repeat the point's.
_POINT_COLUMNS = _names(CurvePoint, "calibration")
_CALIBRATION_COLUMNS = _names(CalibrationSummary, "t", "s_t")
_BAND_CELLS = _names(CurveBand, "spec", "thresholds")
_PAIR_COLUMNS = _names(ComparisonSection, "verdicts")
_VERDICT_COLUMNS = _names(ComparisonVerdict, "ppv_route_available")


def _document_to_dict(doc: ReportDocument) -> dict:
    payload = _fields(doc)
    for name in ("bands", "comparisons"):
        if not payload[name]:
            del payload[name]
    return payload


def csv_cells(values) -> list[str]:
    """One CSV cell per value: 17 significant digits for floats, so a parsed
    value is bit-identical to the JSON one; empty for an absent value;
    true/false for a bool. A whole column is formatted in one pass."""
    return ["" if v is None else format(v, ".17g") if isinstance(v, float)
            else ("true" if v else "false") if isinstance(v, bool) else str(v)
            for v in values]


def csv_value(value) -> str:
    """One CSV cell, by the rule of csv_cells."""
    return csv_cells((value,))[0]


def _quoted(texts) -> list[str]:
    """Text cells as csv.writer writes them inside a row, each distinct text
    quoted once."""
    quoted = {}
    for text in set(texts):
        out = io.StringIO()
        # A second, empty field: a row of one empty field would be written "".
        csv.writer(out, lineterminator="\n").writerow((text, ""))
        quoted[text] = out.getvalue()[:-2]
    return [quoted[text] for text in texts]


def _column(cls, objects: list, name: str) -> list[str]:
    """The CSV cells of field ``name`` over ``objects``, instances of ``cls``.
    Only a text field goes through csv quoting: a number, an empty cell or
    true/false never needs it."""
    cells = csv_cells(map(attrgetter(name), objects))
    return _quoted(cells) if _field_hints(cls)[name] is str else cells


def _emit_csv(doc: ReportDocument) -> str:
    """The flat export, built a column at a time: each column's cells are
    formatted in one pass, then every row is joined with commas."""
    columns = []
    if doc.models:
        band_cells = _BAND_CELLS if doc.bands else ()
        header = ("model",) + _POINT_COLUMNS + _CALIBRATION_COLUMNS + band_cells
        for model in doc.models:
            points = model.points
            calibrations = [p.calibration for p in points]
            band = doc.bands.get(model.name)
            (name_cell,) = _quoted(csv_cells([model.name]))
            columns.append([
                repeat(name_cell),
                *(_column(CurvePoint, points, name) for name in _POINT_COLUMNS),
                *(_column(CalibrationSummary, calibrations, name)
                  for name in _CALIBRATION_COLUMNS),
                *(repeat("") if band is None else csv_cells(getattr(band, name))
                  for name in band_cells),
            ])
    elif doc.comparisons:
        header = _PAIR_COLUMNS + _VERDICT_COLUMNS
        for section in doc.comparisons:
            verdicts = section.verdicts
            pair = _quoted(csv_cells(getattr(section, name) for name in _PAIR_COLUMNS))
            columns.append([*map(repeat, pair),
                            *(_column(ComparisonVerdict, verdicts, name)
                              for name in _VERDICT_COLUMNS)])
    else:
        return ""
    lines = [",".join(_quoted(list(header)))]
    for section in columns:
        lines.extend(map(",".join, zip(*section)))
    return "\n".join(lines) + "\n"


def emit_report(doc: ReportDocument, format: str = "json") -> bytes:
    """Serialize a report; JSON is lossless, CSV is the flat per-row export."""
    if format == "json":
        text = json.dumps(_document_to_dict(doc), indent=2, default=_fields)
        return (text + "\n").encode("utf-8")
    if format == "csv":
        return _emit_csv(doc).encode("utf-8")
    raise UsageError(f"unknown report format {format!r}; expected one of {FORMATS}")


def _expect(value, kind: type, what: str):
    if not isinstance(value, kind):
        expected = "array" if kind is list else "object"
        raise DataError(f"{what} must be a JSON {expected}, got {type(value).__name__}")
    return value


def _is_json(value, kind) -> bool:
    """Whether a JSON scalar fits a field type: an int fits float, a bool fits
    only bool, and null fits only NoneType."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def _check_json(value, hint, what: str) -> None:
    """Raise DataError unless the JSON ``value`` fits the type hint ``hint``.

    A tuple is a JSON array, and a dict or dataclass a JSON object whose own
    fields its builder checks.
    """
    if get_origin(hint) is tuple:
        for i, item in enumerate(_expect(value, list, what)):
            _check_json(item, get_args(hint)[0], f"{what}[{i}]")
    elif hint is dict or is_dataclass(hint):
        _expect(value, dict, what)
    elif not any(_is_json(value, kind) for kind in get_args(hint) or (hint,)):
        name = hint.__name__ if isinstance(hint, type) else str(hint)
        raise DataError(f"{what} must be {name}, got {value!r}")


@cache
def _field_hints(cls) -> dict:
    return get_type_hints(cls)


def _keys_of(cls, data, optional: tuple[str, ...] = ()) -> dict:
    """``data`` as a JSON object holding exactly the fields of ``cls``, each
    of its field's type; only the ``optional`` ones may be absent."""
    _expect(data, dict, cls.__name__)
    names = {f.name for f in fields(cls)}
    missing = names.difference(data, optional)
    extra = set(data).difference(names)
    if missing or extra:
        raise DataError(
            f"{cls.__name__} keys do not match its fields: missing {sorted(missing)}, "
            f"unexpected {sorted(extra)}"
        )
    for name, value in data.items():
        _check_json(value, _field_hints(cls)[name], f"{cls.__name__}.{name}")
    return data


def _point_from_dict(data) -> CurvePoint:
    data = _keys_of(CurvePoint, data)
    calibration = CalibrationSummary(**_keys_of(CalibrationSummary, data["calibration"]))
    return CurvePoint(**{**data, "calibration": calibration})


def _band_from_dict(data) -> CurveBand:
    data = _keys_of(CurveBand, data)
    spec = BandSpec(**_keys_of(BandSpec, data["spec"]))
    sequences = {name: tuple(value) for name, value in data.items() if name != "spec"}
    return CurveBand(spec=spec, **sequences)


def _model_from_dict(data) -> ModelCurve:
    data = _keys_of(ModelCurve, data)
    return ModelCurve(**{**data, "points": [_point_from_dict(p) for p in data["points"]]})


def _section_from_dict(data) -> ComparisonSection:
    data = _keys_of(ComparisonSection, data)
    verdicts = [ComparisonVerdict(**_keys_of(ComparisonVerdict, v)) for v in data["verdicts"]]
    return ComparisonSection(**{**data, "verdicts": verdicts})


def parse_report(data: bytes) -> ReportDocument:
    """Rebuild a ReportDocument from its JSON serialization.

    A missing or unexpected key, or a value that does not fit its field's
    type, raises DataError.
    """
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"not a valid JSON report: {exc}") from exc
    payload = _keys_of(ReportDocument, payload, optional=("models", "bands", "comparisons"))
    return ReportDocument(
        metadata=payload["metadata"],
        models=[_model_from_dict(m) for m in payload.get("models", [])],
        bands={name: _band_from_dict(b) for name, b in payload.get("bands", {}).items()},
        comparisons=[_section_from_dict(c) for c in payload.get("comparisons", [])],
    )
