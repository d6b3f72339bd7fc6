"""Report documents and their serialization.

Reports serialize to JSON (self-describing, lossless round trip) or CSV
(flat, one row per model and threshold); CSV numbers are rendered with
17 significant digits so parsed values are bit-identical to the JSON
ones.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from decimal import Decimal
from functools import cache, partial
from itertools import repeat
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .comparison import ComparisonVerdict
from .curves import CurvePoint
from .digits import _CELL, _float_cells
from .errors import DataError, UsageError
from .metrics import check_threshold, column_rows, first_failure
from .resampling import CurveBand

__all__ = ["ModelCurve", "ComparisonSection", "ReportDocument", "emit_report", "parse_report"]

FORMATS = ("json", "csv")


def _columns_of(cls, rows: list):
    """An instance of ``cls`` holding the fields of ``rows``, instances of
    ``cls``, as columns. A group-tied field (a float or None) has NaN where
    it is None; a NaN given there is refused, since it would read as None."""
    hints, columns = _field_hints(cls), {}
    for f in fields(cls):
        cells = [getattr(row, f.name) for row in rows]
        if is_dataclass(hints[f.name]):
            columns[f.name] = _columns_of(hints[f.name], cells)
        elif "group" in f.metadata:
            bad = next((i for i, c in enumerate(cells) if c is not None and c != c), None)
            if bad is not None:
                raise DataError(f"{cls.__name__}.{f.name} is NaN in row {bad}; "
                                f"an empty group's value is None")
            columns[f.name] = np.array([np.nan if c is None else c for c in cells], dtype=float)
        else:
            columns[f.name] = np.array(cells)
    return cls(**columns)


class _Rows:
    """A dataclass field of rows of ``cls``, given as rows or as one ``cls``
    of columns (whose t is an array), NaN where a group is empty: the owner
    keeps the columns, as its ``columns``, and the field reads as a tuple of
    rows, built from them on first read unless rows were given."""

    def __init__(self, cls):
        self.cls = cls

    def __get__(self, instance, owner=None):
        if instance is None:
            raise AttributeError("no default")  # so the dataclass field has none
        if "rows" not in instance.__dict__:
            instance.__dict__["rows"] = tuple(column_rows(self.cls, instance.columns))
        return instance.__dict__["rows"]

    def __set__(self, instance, value):
        if not isinstance(getattr(value, "t", None), np.ndarray):  # rows: the rows read
            rows = instance.__dict__["rows"] = tuple(value)
            value = _columns_of(self.cls, rows)
        instance.__dict__["columns"] = value


@dataclass(frozen=True)
class ModelCurve:
    """One model's curve points, in grid order, kept as columns (_Rows).
    Each t lies in (0, 1), and each calibration's t and s_t, which the CSV
    does not repeat, are its point's, or DataError is raised."""

    name: str
    points: tuple[CurvePoint, ...] = _Rows(CurvePoint)

    def __post_init__(self):
        points = self.columns
        check_threshold(points.t)
        same = (points.calibration.t == points.t) & (points.calibration.s_t == points.s_t)
        bad = first_failure(np.arange(len(points.t)), same)
        if bad is not None:
            raise DataError(f"model {self.name!r} point {bad}: calibration t and s_t "
                            f"must equal the point's")


@dataclass(frozen=True)
class ComparisonSection:
    """Pairwise verdicts for one ordered model pair, kept as columns (_Rows);
    each t lies in (0, 1), or ThresholdError is raised."""

    model1: str
    model2: str
    verdicts: tuple[ComparisonVerdict, ...] = _Rows(ComparisonVerdict)

    def __post_init__(self):
        check_threshold(self.columns.t)


@dataclass(frozen=True)
class ReportDocument:
    """Self-describing analysis report: metadata, curves, bands, comparisons.
    With curves, each band names a model and holds one entry per threshold
    of its curve; without, each band's thresholds lie in (0, 1). Else
    DataError is raised. Only JSON holds curves and comparisons together,
    or bands without curves."""

    metadata: dict
    models: tuple[ModelCurve, ...] = ()
    bands: dict[str, CurveBand] = field(default_factory=dict)  # by model name
    comparisons: tuple[ComparisonSection, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "comparisons", tuple(self.comparisons))
        curves = {model.name: model.columns.t for model in self.models}
        for name, band in self.bands.items():
            t = curves.get(name) if curves else check_threshold(np.array(band.thresholds, float))
            if t is None or not (np.array_equal(band.thresholds, t) and all(
                    len(column) == len(t) for _, column, _ in _walk(band))):
                raise DataError(f"band {name!r} must name a model and hold one entry per "
                                f"threshold of its curve, at its thresholds")


def _fields(obj) -> dict:
    """A dataclass instance as its field -> value mapping, one level deep."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


# What the CSV leaves out, in every section: a nested field whose name an
# earlier field has (a calibration's t and s_t, which are its point's),
# ppv_route_available (an empty ppv_superiority_ref shows it), and a band's
# spec and thresholds (its model's t). JSON writes every field.
_OMITTED = {"ppv_route_available", "spec", "thresholds"}


def _walk(columns, names=None):
    """(name, column, tied) for each CSV column of ``columns``, a dataclass
    of columns, in field order, a nested dataclass's columns in its place;
    ``tied`` when the field is group-tied, so NaN in it marks an empty group."""
    names = set() if names is None else names
    for f in fields(columns):
        if f.name in names or f.name in _OMITTED:
            continue
        names.add(f.name)
        column = getattr(columns, f.name)
        if is_dataclass(column):
            yield from _walk(column, names)
        else:
            yield f.name, column, "group" in f.metadata


def _band_columns(band: CurveBand | None, n: int) -> CurveBand:
    """A model's band as columns of its n rows, NaN where an entry is None;
    empty text where the model has no band."""
    if band is None:
        return CurveBand(*repeat(np.full(n, ""), len(fields(CurveBand))))
    return CurveBand(**{name: value if is_dataclass(value) else
                        np.array([np.nan if v is None else v for v in value])
                        for name, value in _fields(band).items()})


def _sections(doc: ReportDocument):
    """Each section of ``doc``: the names and texts of its leading cells,
    then its walk. A model's walk holds its band's after its points' where
    the report has bands; a band without curves, which only JSON holds, is
    a section of its own."""
    for model in doc.models:
        walked = [*_walk(model.columns)]
        if doc.bands:
            walked += _walk(_band_columns(doc.bands.get(model.name), len(model.columns.t)))
        yield ("model",), (model.name,), walked
    for name, band in ({} if doc.models else doc.bands).items():
        yield ("model",), (name,), [*_walk(_band_columns(band, len(band.thresholds)))]
    for section in doc.comparisons:
        yield ("model1", "model2"), (section.model1, section.model2), [*_walk(section.columns)]


def _quoted(texts) -> list[bytes]:
    """Text cells as csv.writer writes them inside a row, encoded, each
    distinct text quoted once."""
    quoted = {}
    for text in set(texts):
        out = io.StringIO()
        # A second, empty field: a row of one empty field would be written "".
        csv.writer(out, lineterminator="\n").writerow((text, ""))
        quoted[text] = out.getvalue()[:-2].encode("utf-8")
    return [quoted[text] for text in texts]


def _section_cells(walked: list) -> list[list[bytes]]:
    """The CSV cells of a section's walk, one list per column. Every float
    cell with a value is formatted by one _float_cells call, and a
    group-tied NaN is empty; any other NaN, or an infinity, raises
    DataError naming its field and row. Text goes through csv quoting,
    each distinct text once, and an int is written as str writes it."""
    floats = [(name, column, tied) for name, column, tied in walked if column.dtype.kind == "f"]
    values = np.array([column for _, column, _ in floats])  # a row per float field
    empty = np.isnan(values) & np.array([[tied] for *_, tied in floats])
    bad = np.argwhere(~(np.isfinite(values) | empty))
    if bad.size:
        at, row = bad[0].tolist()
        raise DataError(f"{floats[at][0]} is {values[at, row].item()} in row {row}; a report "
                        f"holds finite numbers, and None where a group is empty")
    formatted = np.zeros(values.shape, dtype=f"S{_CELL}")  # empty where absent
    formatted[~empty] = _float_cells(values[~empty])
    formatted = iter(formatted.tolist())
    return [next(formatted) if column.dtype.kind == "f"
            else _quoted(column.tolist()) if column.dtype.kind == "U"
            else column.astype("S").tolist() for _, column, _ in walked]


def _emit_csv(doc: ReportDocument) -> bytes:
    """The flat export, built from the columns: each section's cells are
    formatted a column at a time, then every row is joined with commas.
    It holds one table, curves with their bands or comparisons, so a
    report that has both, or bands without curves, raises UsageError."""
    if doc.models and doc.comparisons or doc.bands and not doc.models:
        raise UsageError("a CSV report holds curves (with their bands) or comparisons, "
                         "not both and not bands alone; emit this report as JSON")
    header, rows = (), []
    for names, texts, walked in _sections(doc):
        header = (*names, *(name for name, *_ in walked))
        rows += zip(*map(repeat, _quoted(texts)), *_section_cells(walked))
    if not header:
        return b""
    return b"\n".join(map(b",".join, [_quoted(header), *rows])) + b"\n"


def emit_report(doc: ReportDocument, format: str = "json") -> bytes:
    """Serialize a report; JSON is lossless, CSV is the flat per-row export.
    A NaN, except where a group-tied field's group is empty, or an infinity
    raises DataError in either format, naming its field (and its row), as
    JSON has neither."""
    if format not in FORMATS:
        raise UsageError(f"unknown report format {format!r}; expected one of {FORMATS}")
    try:
        json.dumps(doc.metadata, allow_nan=False, default=repr)
    except ValueError as exc:
        raise DataError(f"ReportDocument.metadata must hold only finite numbers: {exc}") from None
    if format == "csv":
        return _emit_csv(doc)
    payload = {name: value for name, value in _fields(doc).items()
               if value or name in ("metadata", "models")}
    try:
        text = json.dumps(payload, indent=2, default=_fields, allow_nan=False)
    except ValueError:
        for *_, walked in _sections(doc):
            _section_cells(walked)  # raises, naming the field and row
        raise
    return (text + "\n").encode("utf-8")


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


@cache
def _field_hints(cls) -> dict:
    return get_type_hints(cls)


def _absent_allowed(f) -> bool:
    """Whether a JSON object may leave out field ``f``: only when its default
    is an empty container."""
    default = f.default if f.default_factory is MISSING else f.default_factory()
    return isinstance(default, (tuple, dict)) and not default


def _build(hint, value, what: str):
    """The parsed JSON ``value`` as the type hint ``hint`` describes it, or
    DataError naming ``what`` where it does not fit. A dataclass is a JSON
    object holding exactly its fields, ``tuple[X, ...]`` an array,
    ``dict[str, X]`` an object (a bare dict holds any JSON), and a scalar
    must fit one of the hint's types."""
    if is_dataclass(hint):
        data = _expect(value, dict, what)
        names = {f.name for f in fields(hint)}
        missing = {f.name for f in fields(hint) if not _absent_allowed(f)}.difference(data)
        extra = set(data).difference(names)
        if missing or extra:
            raise DataError(
                f"{hint.__name__} keys do not match its fields: missing {sorted(missing)}, "
                f"unexpected {sorted(extra)}"
            )
        hints = _field_hints(hint)
        for f in fields(hint):  # a group-tied NaN is refused by _columns_of, naming its row
            token = data.get(f.name)
            if "group" in f.metadata and isinstance(token, Decimal) and token.is_nan():
                data[f.name] = float("nan")
        return hint(**{name: _build(hints[name], item, f"{hint.__name__}.{name}")
                       for name, item in data.items()})
    if get_origin(hint) is tuple:
        return tuple(_build(get_args(hint)[0], item, f"{what}[{i}]")
                     for i, item in enumerate(_expect(value, list, what)))
    if hint is dict or get_origin(hint) is dict:
        data = _expect(value, dict, what)
        if hint is dict:  # any JSON: json.dumps refuses a Decimal anywhere in it
            json.dumps(data, default=partial(_refuse, what))
            return data
        return {key: _build(get_args(hint)[1], item, f"{what}[{key!r}]")
                for key, item in data.items()}
    if not any(_is_json(value, kind) for kind in get_args(hint) or (hint,)):
        name = hint.__name__ if isinstance(hint, type) else str(hint)
        raise DataError(f"{what} must be {name}, got {value!r}")
    return value


def _refuse(what: str, value):
    raise DataError(f"{what} must hold only JSON values, got {value!r}")


def parse_report(data: bytes) -> ReportDocument:
    """Rebuild a ReportDocument from its JSON serialization.

    A missing or unexpected key, a value that does not fit its field's
    type, or a NaN, Infinity or -Infinity token raises DataError.
    """
    try:  # NaN, Infinity and -Infinity, not JSON, read as Decimals, which fit no field
        payload = json.loads(data.decode("utf-8"), parse_constant=Decimal)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"not a valid JSON report: {exc}") from exc
    return _build(ReportDocument, payload, "ReportDocument")
