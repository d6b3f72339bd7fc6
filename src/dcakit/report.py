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
import os
import stat
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache, partial
from itertools import repeat
from operator import attrgetter
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .calibration import CalibrationSummary
from .comparison import ComparisonVerdict
from .curves import CurvePoint
from .errors import DataError, IngestionError, UsageError
from .metrics import PredictionSet
from .resampling import CurveBand

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

# Largest input file ingest reads, checked from the file's size before the
# read, so that a hostile size fails with a DataError instead of running out
# of memory. Ingest needs about 1.2 times the file's size.
MAX_INPUT_BYTES = 2 << 30

_BOM = b"\xef\xbb\xbf"
_NEWLINE = ord("\n")
_SCAN_BLOCK = 1 << 18  # bytes per block of the fast path's row scan
_DIGEST_BLOCK = 1 << 20  # bytes per read of file_digest


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
    """SHA-256 of the raw file bytes; changes iff the bytes change. The file
    is read a block at a time, so memory stays small whatever its size."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(partial(handle.read, _DIGEST_BLOCK), b""):
            digest.update(block)
    return digest.hexdigest()


def _read_input(path: str) -> tuple[bytes, os.stat_result]:
    """A file's bytes and its status at the read. A file over
    MAX_INPUT_BYTES is refused from its status, before any byte is read."""
    try:
        with open(path, "rb") as handle:
            status = os.fstat(handle.fileno())
            if status.st_size > MAX_INPUT_BYTES:
                raise DataError(f"{path!r} is {status.st_size} bytes, over the "
                                f"{MAX_INPUT_BYTES}-byte input limit")
            return handle.read(), status
    except OSError as exc:
        raise IngestionError(f"cannot read {path!r}: {exc}") from exc


def _identity(status: os.stat_result) -> tuple[int, int, int, int]:
    return status.st_dev, status.st_ino, status.st_size, status.st_mtime_ns


class _InputFile:
    """An input file read once: its bytes, their SHA-256 digest, and the
    file's identity (device, inode, size and mtime) at that read.

    ``release`` drops the bytes, so that a parser reading the path itself
    does not hold the file twice. ``check_unchanged`` and ``read`` then make
    sure the path still names the file that was read and digested; the
    digest must name the bytes that were parsed.
    """

    def __init__(self, path: str):
        self.path = path
        self.data, status = _read_input(path)
        self.digest = hashlib.sha256(self.data).hexdigest()
        self.identity = _identity(status)
        # Only a regular file reads the same bytes a second time: a pipe
        # gives them once.
        self.rereadable = stat.S_ISREG(status.st_mode)

    def release(self) -> None:
        self.data = None

    def _changed(self) -> IngestionError:
        return IngestionError(f"{self.path!r} changed while being read")

    def check_unchanged(self) -> None:
        try:
            identity = _identity(os.stat(self.path))
        except OSError:
            raise self._changed() from None
        if identity != self.identity:
            raise self._changed()

    def read(self) -> bytes:
        """The bytes read; once released, the file read again, which must
        be the same file with the same bytes."""
        if self.data is not None:
            return self.data
        data, status = _read_input(self.path)
        if (_identity(status) != self.identity
                or hashlib.sha256(data).hexdigest() != self.digest):
            raise self._changed()
        return data


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


def _block_outcomes(block: np.ndarray, fields: int, column: int, delimiter: int,
                    limit: int) -> np.ndarray | None:
    """The outcome cells of ``block``, whole rows that end in a newline except
    perhaps the file's last: None unless every row has ``fields`` fields, no
    line is longer than ``limit`` and every outcome cell is the single byte
    0 or 1."""
    hits = block == delimiter
    hits |= block == _NEWLINE
    sep = np.flatnonzero(hits)
    if block[-1] != _NEWLINE:
        sep = np.append(sep, block.size)  # the last row ends at the end of the file
    rows, extra = divmod(sep.size, fields)
    kinds = block[sep[:-1]]  # the last separator always ends the last row
    if (extra or (kinds[fields - 1::fields] != _NEWLINE).any()
            or np.count_nonzero(kinds == _NEWLINE) != rows - 1):
        return None
    ends = sep[fields - 1::fields]
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    if (ends - starts).max() > limit:
        return None
    cell_start = starts if column == 0 else sep[column - 1::fields] + 1
    if (sep[column::fields] - cell_start != 1).any():
        return None
    cells = block[cell_start]
    outcomes = cells == ord("1")
    if not (outcomes | (cells == ord("0"))).all():
        return None
    return outcomes


def _scan_outcomes(data: bytes, start: int, fields: int, column: int,
                   delimiter: int) -> np.ndarray | None:
    """The outcome column of the body ``data[start:]``; None unless the body
    is ASCII with no quote and no CR outside CRLF, and ``_block_outcomes``
    takes each of its blocks. The body is scanned in blocks of whole rows,
    so every array but the outcome vector stays small next to the file."""
    if start >= len(data):
        return None
    limit = csv.field_size_limit()
    outcomes = np.empty(data.count(b"\n", start) + (not data.endswith(b"\n")), dtype=np.int64)
    filled = 0
    while start < len(data):
        stop = data.rfind(b"\n", start, start + _SCAN_BLOCK) + 1
        if not stop:  # no row ends within a block: take the one row, unless too long
            stop = data.find(b"\n", start) + 1 or len(data)
            if stop - start > limit + 2:  # longer than the limit without its CRLF
                return None
        block = data[start:stop]
        start = stop
        if b"\r" in block:
            block = block.replace(b"\r\n", b"\n")
            if b"\r" in block:
                return None
        if not block.isascii() or b'"' in block:
            return None
        cells = _block_outcomes(np.frombuffer(block, dtype=np.uint8), fields, column,
                                delimiter, limit)
        if cells is None:
            return None
        outcomes[filled:filled + cells.size] = cells
        filled += cells.size
    return outcomes


def _scan_plain(data: bytes, spec: IngestionSpec) -> tuple[np.ndarray, list[int]] | None:
    """The outcome vector of a plain file and the positions of its risk
    columns, from the header and a block-wise scan of the body; None when
    the file needs the row parser."""
    wanted = (spec.outcome_column, *spec.model_columns)
    delimiter = spec.delimiter
    if (spec.outcome_column in spec.model_columns or not delimiter.isascii()
            or delimiter in '\r\n"'):
        return None
    limit = csv.field_size_limit()
    start = len(_BOM) if data.startswith(_BOM) else 0
    first_end = data.find(b"\n", start)
    if first_end == -1:
        first_end = len(data)
    if first_end - start > limit + 1:  # longer than the limit without its CR
        return None
    first = data[start:first_end]
    if first_end < len(data):
        first = first.removesuffix(b"\r")
    if b'"' in first or b"\r" in first or not 0 < len(first) <= limit:
        return None
    try:
        cells = first.decode("utf-8").split(delimiter)
    except UnicodeDecodeError:
        return None
    if spec.header:
        names = [name.strip() for name in cells]
        start = first_end + 1
    else:
        names = [str(i) for i in range(len(cells))]
    index = _column_index(names)
    if not all(name in index for name in wanted):
        return None
    columns = [index[name] for name in wanted]
    outcomes = _scan_outcomes(data, start, len(names), columns[0], ord(delimiter))
    return None if outcomes is None else (outcomes, columns[1:])


def _parse_fast(source: _InputFile,
                spec: IngestionSpec) -> tuple[np.ndarray, list[np.ndarray]] | None:
    """numpy's C parser on a plain file; None when the file needs the row parser.

    A file is plain when every row provably reads as in ``_parse_rows``: a
    UTF-8 header and an ASCII body without quotes or lone CRs, the header's
    field count on every row, no line longer than csv's field size limit,
    outcome cells that are the single byte 0 or 1, and risks that
    ``np.loadtxt`` parses and finds in [0, 1]. Anything else, every error
    included, is left to the row parser.

    ``np.loadtxt`` reads the path, so ``source`` releases its bytes first, and
    the path must still name the file they came from afterwards.
    """
    scanned = _scan_plain(source.data, spec) if source.rereadable else None
    if scanned is None:
        return None
    outcomes, usecols = scanned
    source.release()
    try:
        risks = np.loadtxt(spec.path, dtype=np.float64, delimiter=spec.delimiter,
                           comments=None, quotechar=None, skiprows=int(spec.header),
                           usecols=usecols, ndmin=2, encoding="utf-8-sig")
    except (OSError, ValueError):
        risks = None
    source.check_unchanged()
    if (risks is None or risks.shape != (outcomes.size, len(spec.model_columns))
            or not ((risks >= 0.0) & (risks <= 1.0)).all()):
        return None
    return outcomes, list(risks.T)


class Datasets(list):
    """The PredictionSets ``ingest`` read, one per model column in column
    order; ``digest`` is the SHA-256 of the raw file bytes they were parsed
    from, as ``file_digest`` would give for an unchanged file."""

    def __init__(self, datasets, digest: str):
        super().__init__(datasets)
        self.digest = digest


def ingest(spec: IngestionSpec) -> Datasets:
    """Read one PredictionSet per model column, all sharing the outcome vector.

    Row order is preserved; rows are numbered from 1 (header excluded)
    in error messages. One leading UTF-8 byte order mark is skipped. A
    plain file goes through numpy's C parser, any other file through the
    row parser; both give the same arrays, and every error comes from the
    row parser. The file is read and digested once; a file that changes
    while it is read raises IngestionError, and one over MAX_INPUT_BYTES
    raises DataError before it is read.
    """
    source = _InputFile(spec.path)
    outcomes, risks = _parse_fast(source, spec) or _parse_rows(source.read(), spec)
    datasets = Datasets([], source.digest)
    for name, column in zip(spec.model_columns, risks):
        datasets.append(PredictionSet(risks=column, outcomes=outcomes, name=name))
        outcomes = datasets[0].outcomes  # frozen int64: the other models share it
    return datasets


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
    bands: dict[str, CurveBand] = field(default_factory=dict)  # by model name
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
        return hint(**{name: _build(hints[name], item, f"{hint.__name__}.{name}")
                       for name, item in data.items()})
    if get_origin(hint) is tuple:
        return tuple(_build(get_args(hint)[0], item, f"{what}[{i}]")
                     for i, item in enumerate(_expect(value, list, what)))
    if hint is dict or get_origin(hint) is dict:
        data = _expect(value, dict, what)
        if hint is dict:
            return data
        return {key: _build(get_args(hint)[1], item, f"{what}[{key!r}]")
                for key, item in data.items()}
    if not any(_is_json(value, kind) for kind in get_args(hint) or (hint,)):
        name = hint.__name__ if isinstance(hint, type) else str(hint)
        raise DataError(f"{what} must be {name}, got {value!r}")
    return value


def parse_report(data: bytes) -> ReportDocument:
    """Rebuild a ReportDocument from its JSON serialization.

    A missing or unexpected key, or a value that does not fit its field's
    type, raises DataError.
    """
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"not a valid JSON report: {exc}") from exc
    return _build(ReportDocument, payload, "ReportDocument")
