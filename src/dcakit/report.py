"""Data ingestion and report serialization.

Input files are delimited UTF-8 text with a header row by default: one
binary outcome column (literal 0/1) and one or more risk columns with
decimal values in [0, 1]. Reports serialize to JSON (self-describing,
lossless round trip) or CSV (flat, one row per model and threshold);
CSV numbers are rendered with 17 significant digits so parsed values
are bit-identical to the JSON ones.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import io
import json
import os
import stat
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from decimal import Decimal
from functools import cache, partial
from itertools import chain, repeat
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .calibration import CalibrationSummary
from .comparison import ComparisonVerdict
from .curves import CurvePoint
from .errors import DataError, IngestionError, UsageError
from .metrics import PredictionSet, column_rows, field_column
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

# Largest input file ingest reads, checked from a regular file's size before
# the read and from a pipe's bytes as they arrive, so that a hostile size
# fails with a DataError instead of running out of memory.
MAX_INPUT_BYTES = 2 << 30

_BOM = b"\xef\xbb\xbf"
_NEWLINE = ord("\n")
_SCAN_BLOCK = 1 << 19  # bytes per read of the fast path's streamed pass
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


def _identity(status: os.stat_result) -> tuple[int, int, int, int]:
    return status.st_dev, status.st_ino, status.st_size, status.st_mtime_ns


class _Digesting(io.RawIOBase):
    """A binary file whose bytes go through a SHA-256 digest as they are read."""

    def __init__(self, handle):
        self.handle, self.digest = handle, hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self.handle.readinto(buffer)
        self.digest.update(memoryview(buffer)[:count])
        return count


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


class _Utf8Check:
    """Checks bytes that arrive in pieces to be UTF-8 text, as one decode of
    them all would: an error names the first bad byte and its offset in the
    file, whose first piece starts at ``offset``."""

    def __init__(self, path: str, offset: int = 0):
        self.path, self.offset = path, offset
        self.decoder = codecs.getincrementaldecoder("utf-8")()

    def update(self, data: bytes, final: bool = False) -> None:
        pending = len(self.decoder.getstate()[0])  # bytes of a split character
        if pending or not data.isascii():
            try:
                self.decoder.decode(data, final)
            except UnicodeDecodeError as exc:  # exc.object is the pending bytes and data
                raise IngestionError(
                    f"{self.path!r} is not UTF-8 text: byte {exc.object[exc.start]:#04x} "
                    f"at offset {self.offset - pending + exc.start}"
                ) from None
        self.offset += len(data)


def _csv_rows(text, spec: IngestionSpec):
    """The rows of ``text`` as csv reads them; a csv error names its row."""
    read = 0
    try:
        for row in csv.reader(text, delimiter=spec.delimiter):
            yield row
            read += 1
    except csv.Error as exc:
        raise IngestionError(f"malformed CSV: {exc}",
                             row=read if spec.header else read + 1) from None


def _parse_rows(data, spec: IngestionSpec) -> tuple[np.ndarray, list[np.ndarray]]:
    """The validating row-by-row parser: any delimited UTF-8 file, as bytes
    or as a binary stream checked to be UTF-8, and the exact row and column
    of the first bad cell. Rows stream through; only parsed values are kept.
    Errors keep a whole-file parse's order (non-UTF-8 byte, malformed row,
    empty file, no data rows, missing column, first bad row), so after a
    missing column or bad row the rest is only read through csv."""
    if isinstance(data, bytes):
        _Utf8Check(spec.path).update(data, final=True)
        data = io.BytesIO(data)
    rows = _csv_rows(io.TextIOWrapper(data, encoding="utf-8-sig", newline=""), spec)
    first = next(rows, None)
    if first is None:
        raise IngestionError(f"{spec.path!r} is empty")
    if spec.header:
        names = [name.strip() for name in first]
    else:
        names = [str(i) for i in range(len(first))]
        rows = chain([first], rows)

    index = _column_index(names)
    failure = next((IngestionError(f"column {name!r} not found; available: "
                                   f"{', '.join(map(repr, names))}")
                    for name in (spec.outcome_column, *spec.model_columns)
                    if name not in index), None)
    outcomes = []
    risks = [[] for _ in spec.model_columns]
    row_number = 0
    for row_number, row in enumerate(rows, start=1):
        if failure is not None:
            continue
        try:
            if len(row) != len(names):
                raise IngestionError(f"expected {len(names)} fields, found {len(row)}",
                                     row=row_number)
            outcomes.append(_parse_outcome(row[index[spec.outcome_column]], row_number,
                                           spec.outcome_column))
            for name, values in zip(spec.model_columns, risks):
                values.append(_parse_risk(row[index[name]], row_number, name))
        except IngestionError as exc:
            failure = exc
    if not row_number:
        raise IngestionError(f"{spec.path!r} has no data rows")
    if failure is not None:
        raise failure
    return (np.array(outcomes, dtype=np.int64),
            [np.array(values, dtype=np.float64) for values in risks])


def _header_layout(first: bytes, spec: IngestionSpec) -> tuple[int, list[int]] | None:
    """The field count of the first line ``first`` (BOM and line end removed)
    and the positions of the outcome and risk columns, as ``_parse_rows``
    finds them; None when the line or the spec needs the row parser."""
    delimiter = spec.delimiter
    if (spec.outcome_column in spec.model_columns or not delimiter.isascii()
            or delimiter in '\r\n"' or b'"' in first or b"\r" in first
            or not 0 < len(first) <= csv.field_size_limit()):
        return None
    try:
        cells = first.decode("utf-8").split(delimiter)
    except UnicodeDecodeError:
        return None
    names = ([name.strip() for name in cells] if spec.header
             else [str(i) for i in range(len(cells))])
    index = _column_index(names)
    wanted = (spec.outcome_column, *spec.model_columns)
    if not all(name in index for name in wanted):
        return None
    return len(names), [index[name] for name in wanted]


def _block_cells(block: np.ndarray, fields: int, columns: list[int], delimiter: int,
                 limit: int) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]] | None:
    """The outcome cells of ``block``, whole rows that each end in a newline,
    as a bool array, and the start and end of each cell of the other
    ``columns``: None unless every row has ``fields`` fields, no line is
    longer than ``limit`` and every outcome cell is the single byte 0 or 1."""
    hits = block == delimiter
    hits |= block == _NEWLINE
    sep = np.flatnonzero(hits)
    rows, extra = divmod(sep.size, fields)
    kinds = block[sep]
    if (extra or (kinds[fields - 1::fields] != _NEWLINE).any()
            or np.count_nonzero(kinds == _NEWLINE) != rows):
        return None
    ends = sep[fields - 1::fields]
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    if (ends - starts).max() > limit:
        return None
    cells = [(starts if column == 0 else sep[column - 1::fields] + 1, sep[column::fields])
             for column in columns]
    (start, end), *risks = cells
    if (end - start != 1).any():
        return None
    outcomes = block[start]
    ones = outcomes == ord("1")
    if not (ones | (outcomes == ord("0"))).all():
        return None
    return ones, risks


# The exact decimal converter. Every integer constant is uint64: numpy turns
# uint64 mixed with int64 into float64.
_U64 = np.uint64
_MAX_FRACTION = 19  # fraction digits read exactly, as up to three 8-byte words
_POW10 = np.array([float(10 ** k) for k in range(23)])  # exact below 10**23
_POW10_INT = np.array([10 ** k for k in range(_MAX_FRACTION + 1)], dtype=np.uint64)
_POW5 = np.array([5 ** k for k in range(_MAX_FRACTION + 1)], dtype=np.uint64)
_MANTISSA = _U64((1 << 52) - 1)  # the stored significand bits of a double
# _KEEP[k, 2 - j]: the bytes of word j of a cell, its last 8j + 8 to 8j + 1
# bytes, that hold fraction digits when there are k of them.
_KEEP = np.array([[(1 << 64) - (1 << 8 * (8 - min(8, max(0, k - 8 * j)))) for j in (2, 1, 0)]
                  for k in range(_MAX_FRACTION + 1)], dtype=np.uint64)
_PAD = b"0" * 24  # bytes before a chunk's rows, so that a cell's last 24 can be read
_SPLITTER = float((1 << 27) + 1)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split: a = high + low exactly, each with at most 26 significant bits."""
    scaled = a * _SPLITTER
    high = scaled - (scaled - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _split(_POW10)


def _word_digits(words: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Turn each word, 8 bytes of a cell read little-endian, in place into the
    integer its bytes under ``keep`` spell, the others read as 0, by three
    multiply-shift steps; ``keep`` becomes a word whose bit 8i + 7 is set if
    byte i is under it and not an ASCII digit, and is returned."""
    words ^= _U64(0x3030303030303030)
    words &= keep  # digits to 0-9, the rest above
    wrong = np.add(words, _U64(0x7676767676767676), out=keep)
    wrong |= words  # a byte above 9 sets its top bit
    words *= _U64(10 << 8 | 1)
    words >>= _U64(8)
    words &= _U64(0x00FF00FF00FF00FF)
    words *= _U64(100 << 16 | 1)
    words >>= _U64(16)
    words &= _U64(0x0000FFFF0000FFFF)
    words *= _U64(10000 << 32 | 1)
    words >>= _U64(32)
    return wrong


def _two_product(c: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c * 10**k as product + error, both doubles, exactly (Dekker's
    two-product), for k <= 22 and c * 10**k far from overflow and underflow."""
    ten_high, ten_low = _POW10_HIGH[k], _POW10_LOW[k]
    product = c * _POW10[k]
    c_high, c_low = _split(c)
    return product, (((c_high * ten_high - product) + c_high * ten_low + c_low * ten_high)
                     + c_low * ten_low)


def _residual(d: np.ndarray, c: np.ndarray, k: np.ndarray) -> np.ndarray:
    """R = (d - c * 10**k) / (ulp(c) * 2**k) = (d << s) - M * 5**k as int64 (see _rounded)."""
    bits = c.view(np.uint64)
    shift = (_U64(1075) - (bits >> _U64(52))) - k.astype(np.uint64)
    residual = d << shift
    residual -= ((bits & _MANTISSA) | _U64(1 << 52)) * _POW5[k]
    return residual.view(np.int64)


def _settled(c: np.ndarray, residual: np.ndarray, five: np.ndarray) -> np.ndarray:
    """Whether each c is d / 10**k correctly rounded, from its residual R and
    ``five`` = 5**k: 2|R| < 5**k, or 4|R| < 5**k below a power of two c."""
    size = np.abs(residual).view(np.uint64) << _U64(1)
    size[((c.view(np.uint64) & _MANTISSA) == 0) & (residual < 0)] <<= _U64(1)
    return size < five


def _rounded(d: np.ndarray, c: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d / 10**k correctly rounded for 2**53 < d < 2**63, from its estimate
    c = float(d) / 10**k, and whether each value is proved.

    d < 2 * 10**k, so 16 <= k <= 19 and d / 10**k is in (2**-11, 2), where c
    is normal: c = M * 2**(E - 1075), 2**52 <= M < 2**53, for its biased
    exponent E, and ulp(c) = 2**(E - 1075). c is within 2 ulps of d / 10**k,
    and 3 once moved one step towards it (of the smaller ulps if the step
    crosses a power of two). So R = (d - c * 10**k) / (ulp(c) * 2**k) =
    d * 2**s - M * 5**k, s = 1075 - E - k in [33, 44], is an integer with
    |R| <= 3 * 5**k < 2**46: in wrapping uint64 arithmetic, read as int64,
    it is exact. As d / 10**k - c = R * ulp(c) / 5**k, c is the rounded value
    if 2|R| < 5**k, or 4|R| < 5**k for R < 0 and M = 2**52, where the gap
    below c is half an ulp; 5**k is odd, so no tie arises. An unsettled c is
    moved one step towards d / 10**k and proved again; cells still unproved
    go to the caller's fallback.
    """
    residual = _residual(d, c, k)
    settled = _settled(c, residual, _POW5[k])
    move = np.flatnonzero(~settled)
    c[move] = np.nextafter(c[move], np.copysign(np.inf, residual[move]))
    d, k = d[move], k[move]
    settled[move] = _settled(c[move], _residual(d, c[move], k), _POW5[k])
    return c, settled


def _decimals(data: bytes, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray,
                                                                           np.ndarray]:
    """The cells data[starts:ends] written as one digit, '.', and 1-19 digits,
    converted exactly in numpy, and a mask of the cells so converted; the
    other cells' values are arbitrary. ``data`` holds at least 24 bytes
    before each cell's end.

    The fraction's digits are read from the cell's last 8, 16 or 24 bytes
    as little-endian words, as many as the longest fraction needs, giving
    the integer d = value * 10**k for k fraction digits. Where d <= 2**53,
    d / 10**k is one IEEE division of two exact doubles, so it is correctly
    rounded (Clinger). Up to 2**63, _rounded proves the value; larger d
    are left to the caller.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    length = ends - starts
    lead = buf[starts] - np.uint8(ord("0"))
    exact = ((lead <= 1) & (buf[np.minimum(starts + 1, ends)] == ord("."))
             & (length >= 3) & (length - 2 + lead <= _MAX_FRACTION))  # so d < 2**64
    fraction = np.where(exact, length - 2, 0)
    count = max(1, -(-int(fraction.max(initial=0)) // 8))  # words the longest needs
    tails = np.ndarray((buf.size - 8 * count + 1,), dtype=f"V{8 * count}", buffer=data,
                       strides=(1,))  # each cell's last 8 * count bytes, by where they start
    words = tails[ends - 8 * count].view("<u8").reshape(-1, count)
    # The masks of the count words, taken from the table's columns for them: contiguous.
    wrong = _word_digits(words, np.take(_KEEP[:, 3 - count:], fraction, axis=0))
    d, bad = words[:, 0], wrong[:, 0]
    for i in range(1, count):  # each later word holds the next 8 digits
        d = d * _POW10_INT[8] + words[:, i]
        bad |= wrong[:, i]
    exact &= (bad & _U64(0x8080808080808080)) == 0
    d += lead.astype(np.uint64) * _POW10_INT[fraction]
    exact &= d < _U64(1 << 63)
    values = d.astype(np.float64) / _POW10[fraction]
    wide = np.flatnonzero(exact & (d > _U64(1 << 53)))
    if wide.size:
        values[wide], exact[wide] = _rounded(d[wide], values[wide], fraction[wide])
    return values, exact


def _cell_values(data: bytes, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """The ASCII cells data[starts:ends] as ``_parse_risk`` reads them, by
    strip and ``float``, range aside; None if one is not a number. Cells
    that ``_decimals`` does not convert are read one at a time."""
    values, exact = _decimals(data, starts, ends)
    redo = np.flatnonzero(~exact)
    try:
        values[redo] = [float(data[start:end].decode("ascii").strip())
                        for start, end in zip(starts[redo].tolist(), ends[redo].tolist())]
    except ValueError:
        return None
    return values


def _parse_chunk(data: bytes, stop: int, layout: tuple[int, list[int]],
                 spec: IngestionSpec) -> list[np.ndarray] | None:
    """The outcome cells (bool) and the risk columns of the rows
    data[len(_PAD):stop], or None if they are not plain."""
    fields, columns = layout
    block = np.frombuffer(data, dtype=np.uint8, count=stop)[len(_PAD):]
    scanned = _block_cells(block, fields, columns, ord(spec.delimiter), csv.field_size_limit())
    if scanned is None:
        return None
    ones, cells = scanned
    parsed = [ones]
    for start, end in cells:
        column = _cell_values(data, start + len(_PAD), end + len(_PAD))
        if column is None or not ((column >= 0.0) & (column <= 1.0)).all():
            return None
        parsed.append(column)
    return parsed


def _grown(columns: list[np.ndarray], parsed: list[np.ndarray], rows: int,
           capacity: int) -> list[np.ndarray]:
    """Arrays of ``capacity`` rows, one per column of ``parsed`` and of its
    dtype, that hold the first ``rows`` rows of ``columns``."""
    grown = [np.empty(capacity, dtype=column.dtype) for column in parsed]
    for new, old in zip(grown, columns):
        new[:rows] = old[:rows]
    return grown


class _InputFile:
    """An input file, open for one streamed read, and the SHA-256 digest of
    the bytes read so far. A regular file over MAX_INPUT_BYTES is refused
    from its size before any byte is read; a pipe, once more bytes arrive.
    The file's identity (device, inode, size and mtime) when it was opened
    must still hold after the read, or after the row parser's reread.
    """

    def __init__(self, path: str):
        self.path = path
        try:
            self.handle = open(path, "rb", buffering=0)
        except OSError as exc:
            raise IngestionError(f"cannot read {path!r}: {exc}") from exc
        status = os.fstat(self.handle.fileno())
        if status.st_size > MAX_INPUT_BYTES:  # refused before any byte is read
            self.handle.close()
            raise DataError(f"{path!r} is {status.st_size} bytes, over the "
                            f"{MAX_INPUT_BYTES}-byte input limit")
        self.identity, self.size = _identity(status), status.st_size
        # Only a regular file reads the same bytes a second time: a pipe
        # gives them once.
        self.regular = stat.S_ISREG(status.st_mode)
        self.digest = hashlib.sha256()
        self.checked = 0  # bytes read, digested and found to be UTF-8
        self.unchecked = b""  # bytes read and digested after those

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def _read(self, size: int) -> bytes:
        try:
            data = self.handle.read(size)
        except OSError as exc:
            raise IngestionError(f"cannot read {self.path!r}: {exc}") from exc
        self.digest.update(data)
        return data

    def _changed(self) -> IngestionError:
        return IngestionError(f"{self.path!r} changed while being read")

    def parse_plain(self, spec: IngestionSpec) -> tuple[np.ndarray, list[np.ndarray]] | None:
        """The fast path: a plain regular file parsed in one streamed read,
        or None when the file needs the row parser.

        A file is plain when every row provably reads as in ``_parse_rows``:
        a UTF-8 header and an ASCII body without quotes or lone CRs, the
        header's field count on every row, no line longer than csv's field
        size limit, outcome cells that are the single byte 0 or 1, and
        risk cells that ``_parse_risk``'s rule reads into [0, 1]. Anything
        else, every error included, is left to the row parser.

        The file is read in chunks of whole rows. Each is digested, scanned
        for its separators by ``_block_cells``, and its risk cells converted
        by ``_cell_values`` from the separators found. Only the parsed
        values are kept, in one bool outcome array and one risk array per
        model, sized for the rows the file holds at the density read so far
        and grown if that falls short. Kept per chunk instead, they would
        sit between the chunks' freed arrays and hold that memory in the
        process's heap after the parse. A declined file keeps the bytes
        read since the last whole chunk in ``unchecked``.
        """
        if not self.regular:
            return None
        limit = csv.field_size_limit()
        layout = None
        columns, rows = [], 0  # the outcome column and a risk column per model
        carry = b""  # the bytes read after the last whole row
        while True:
            joined = self._read_after(carry)
            end = len(joined) == len(_PAD) + len(carry)
            if end:
                if not carry:
                    break
                joined += b"\n"  # the last row, which has no newline
            stop = joined.rfind(b"\n") + 1
            if len(joined) - max(stop, len(_PAD)) > limit + 2:  # a line over the limit
                return self._declined(joined, end)
            if not stop:  # no row ends yet
                carry = bytes(joined[len(_PAD):])
                continue
            start = len(_PAD)
            if layout is None:
                first_end = joined.find(b"\n", start)
                start += len(_BOM) if joined.startswith(_BOM, start) else 0
                layout = _header_layout(bytes(joined[start:first_end]).removesuffix(b"\r"),
                                        spec)
                if layout is None:
                    return self._declined(joined, end)
                if spec.header:
                    start = first_end + 1
            # Rows are parsed where they were read, unless they follow the
            # header or hold a CR: then they are copied behind _PAD, as LF
            # rows. The quote and ASCII tests also take in the partial row
            # read after them, which is body too.
            body, body_stop = joined, stop
            if start != len(_PAD) or joined.find(b"\r", start, stop) != -1:
                body = _PAD + joined[start:stop].replace(b"\r\n", b"\n")
                body_stop = len(body)
                if b"\r" in body:
                    return self._declined(joined, end)
            if b'"' in body or not body.isascii():
                return self._declined(joined, end)
            if body_stop > len(_PAD):
                parsed = _parse_chunk(body, body_stop, layout, spec)
                if parsed is None:
                    return self._declined(joined, end)
                count = len(parsed[0])
                if not columns or rows + count > len(columns[0]):
                    # room for the rows the file holds at the density read so far
                    # (or more, if it grew while being read, which fails below)
                    read = self.checked + stop - len(_PAD)
                    expected = (rows + count) * max(self.size, read) // read
                    columns = _grown(columns, parsed, rows, expected + expected // 64 + 64)
                for column, part in zip(columns, parsed):
                    column[rows:rows + count] = part
                rows += count
            self.checked += stop - len(_PAD)
            carry = bytes(joined[stop:])
            if end:
                break
        if not rows:
            return None
        if _identity(os.fstat(self.handle.fileno())) != self.identity:
            raise self._changed()
        outcomes, *risks = columns
        for column in risks:  # trimmed in place: no copy, and it still owns its data
            column.resize(rows, refcheck=False)
        return outcomes[:rows].astype(np.int64), risks

    def _read_after(self, carry: bytes) -> bytearray:
        """_PAD, ``carry``, and up to _SCAN_BLOCK bytes read and digested
        after it, read in place."""
        start = len(_PAD) + len(carry)
        joined = bytearray(start + _SCAN_BLOCK)
        joined[:start] = _PAD + carry
        with memoryview(joined) as whole, whole[start:] as free:
            try:
                count = self.handle.readinto(free)
            except OSError as exc:
                raise IngestionError(f"cannot read {self.path!r}: {exc}") from exc
            self.digest.update(free[:count])
        del joined[start + count:]
        return joined

    def _declined(self, joined: bytearray, end: bool) -> None:
        """Keep the bytes of ``joined`` read from the file as ``unchecked``, in place."""
        del joined[len(joined) - end:], joined[:len(_PAD)]
        self.unchecked = joined

    def parse_rows(self, spec: IngestionSpec) -> tuple[np.ndarray, list[np.ndarray]]:
        """``_parse_rows`` on the bytes of a pipe, read once up to the size
        cap. A regular file is read to its end after ``parse_plain``, its
        rest digested and checked to be UTF-8, and is then parsed as it is
        read again through a digest; a changed file overrides the parse's
        result."""
        if not self.regular:
            parts, size = [], 0
            while block := self._read(min(_DIGEST_BLOCK, MAX_INPUT_BYTES + 1 - size)):
                size += len(block)
                if size > MAX_INPUT_BYTES:
                    raise DataError(f"{self.path!r} is over the {MAX_INPUT_BYTES}-byte "
                                    f"input limit")
                parts.append(block)
            return _parse_rows(b"".join(parts), spec)
        check = _Utf8Check(self.path, self.checked)
        check.update(self.unchecked)
        self.unchecked = b""
        while block := self._read(_DIGEST_BLOCK):
            check.update(block)
        check.update(b"", final=True)
        try:
            with open(self.path, "rb", buffering=0) as handle:
                reread = _Digesting(handle)
                try:
                    return _parse_rows(io.BufferedReader(reread), spec)
                finally:
                    for block in iter(partial(handle.read, _DIGEST_BLOCK), b""):
                        reread.digest.update(block)
                    if (_identity(os.fstat(handle.fileno())) != self.identity
                            or reread.digest.digest() != self.digest.digest()):
                        raise self._changed()
        except OSError:
            raise self._changed() from None


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
    plain regular file is parsed in one streamed read, opened once, with
    an exact vectorized decimal converter (``_InputFile.parse_plain``); any
    other file goes through the row parser. Both give the same arrays bit
    for bit, and every error comes from the row parser. The file is
    digested as it is read; a file that changes while it is read raises
    IngestionError, and one over MAX_INPUT_BYTES raises DataError.
    """
    with _InputFile(spec.path) as source:
        outcomes, risks = source.parse_plain(spec) or source.parse_rows(spec)
        datasets = Datasets([], source.digest.hexdigest())
    for column in (outcomes, *risks):  # frozen, owning their data: kept, not copied
        column.setflags(write=False)
    for name in spec.model_columns:
        datasets.append(PredictionSet(risks=risks.pop(0), outcomes=outcomes, name=name))
    return datasets


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
    """One model's curve points, in grid order, kept as columns (_Rows)."""

    name: str
    points: tuple[CurvePoint, ...] = _Rows(CurvePoint)


@dataclass(frozen=True)
class ComparisonSection:
    """Pairwise verdicts for one ordered model pair, kept as columns (_Rows)."""

    model1: str
    model2: str
    verdicts: tuple[ComparisonVerdict, ...] = _Rows(ComparisonVerdict)


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


_CELL = 24  # bytes of the longest cell format(v, ".17g") writes, "-1.2345678901234567e-300"


def _exponent_guess(magnitude: np.ndarray) -> np.ndarray:
    """floor(log10(magnitude)), which may be one off: libm's log10 can err
    in its last bits, and a power of ten is where the floor turns."""
    return np.floor(np.log10(magnitude)).astype(np.int64)


def _scaled(magnitude: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                             np.ndarray]:
    """magnitude * 10**(16 - x) as the exact sum p + e (_two_product), and
    where that sum lies against [10**16, 10**17): -1 below, 0 in, 1 above."""
    p, e = _two_product(magnitude, 16 - x)
    side = ((p > 1e17) | ((p == 1e17) & (e >= 0))).astype(np.int64)
    side -= (p < 1e16) | ((p == 1e16) & (e < 0))
    return p, e, side


def _digit_rows(d: np.ndarray) -> np.ndarray:
    """The 17 decimal digits of each d in [10**16, 10**17), one row each,
    in ASCII, except that trailing zeros are NUL. The first is d // 10**16;
    the other 16 are two words of 8 digits, split by multiply-shift steps
    into 4, 2 and 1 digits per lane, the inverse of _word_digits."""
    lead = d // _U64(10 ** 16)
    rest = d - lead * _U64(10 ** 16)
    words = np.stack([rest // _U64(10 ** 8), rest % _U64(10 ** 8)], axis=1)
    high = words // _U64(10_000)
    words = high | (words - high * _U64(10_000)) << _U64(32)
    high = (words * _U64(10486)) >> _U64(20) & _U64(0x0000007F0000007F)  # lane // 100
    words = high | (words - high * _U64(100)) << _U64(16)
    high = (words * _U64(103)) >> _U64(10) & _U64(0x000F000F000F000F)  # lane // 10
    words = high | (words - high * _U64(10)) << _U64(8)
    # Each byte is a digit, 0-9. OR-ing every byte into those below it (and
    # the second word into the first) leaves nonzero, below 16, the digits
    # that are not trailing zeros; adding 0x7F sets their top bits, and
    # they become ASCII.
    above = words | words >> _U64(8)
    above |= above >> _U64(16)
    above |= above >> _U64(32)
    above[:, 0] |= (above[:, 1] & _U64(0xF)) * _U64(0x0101010101010101)
    kept = (above + _U64(0x7F7F7F7F7F7F7F7F)) >> _U64(7) & _U64(0x0101010101010101)
    words |= kept * _U64(ord("0"))
    digits = np.empty((len(d), 17), dtype=np.uint8)
    digits[:, 0] = lead + _U64(ord("0"))
    digits[:, 1:] = words.astype("<u8", copy=False).view(np.uint8)
    return digits


def _lay_out(cells: np.ndarray, digits: np.ndarray, x: int, negative: bool) -> None:
    """Write into the rows of ``cells`` the fixed-notation cells of decimal
    exponent x and one sign, from their _digit_rows: a fraction's trailing
    zeros are NUL, and so is '.' when no fraction digit is left."""
    if negative:
        cells[:, 0] = ord("-")
        cells = cells[:, 1:]
    if x < 0:
        cells[:, :1 - x] = ord("0")  # "0." and -x - 1 zeros
        cells[:, 1] = ord(".")
        cells[:, 1 - x:18 - x] = digits
    else:
        cells[:, :x + 1] = digits[:, :x + 1] | np.uint8(ord("0"))  # its zeros stay
        if x < 16:
            cells[:, x + 1] = np.where(digits[:, x + 1] != 0, np.uint8(ord(".")), np.uint8(0))
            cells[:, x + 2:18] = digits[:, x + 1:]


def _float_cells(values: np.ndarray) -> np.ndarray:
    """format(v, ".17g").encode() for every v of the float64 array ``values``,
    as an array of bytes strings, computed exactly in numpy where the
    notation is fixed.

    For decimal exponent X, the integer D = |v| * 10**(16 - X) rounded half
    to even spells the 17 digits. The two-product gives |v| * 10**(16 - X)
    as p + e exactly (10**(16 - X) is a double for X >= -6), and p >= 2**53
    is an even integer, so D = p + rint(e). X is guessed from log10, moved
    once by one where p + e lies outside [10**16, 10**17), and proved by
    the same test. D < 10**17: a double of exponent -5 to 16 is more than
    half a unit of its 17th digit from the next power of ten. Cells of
    exponent -4 to 16 are laid out from D's digits an (X, sign) group at a
    time, and zero is 0 or -0. Only the other cells, scientific and
    non-finite, go through ``format``.
    """
    cells = np.zeros((len(values), _CELL), dtype=np.uint8)
    magnitude = np.abs(values)
    at = np.flatnonzero((magnitude >= 1e-5) & (magnitude < 1e17))
    magnitude = magnitude[at]
    x = np.clip(_exponent_guess(magnitude), -5, 16)
    p, e, side = _scaled(magnitude, x)
    moved = np.flatnonzero(side)
    if moved.size:
        x[moved] = np.clip(x[moved] + side[moved], -5, 16)
        p[moved], e[moved], side[moved] = _scaled(magnitude[moved], x[moved])
    fixed = np.flatnonzero((side == 0) & (x >= -4))  # proved, and not scientific
    at, x = at[fixed], x[fixed]
    d = p[fixed].astype(np.int64) + np.rint(e[fixed]).astype(np.int64)
    key = (x + 4) * 2 + np.signbit(values[at])
    order = np.argsort(key, kind="stable")
    at, key, digits = at[order], key[order], _digit_rows(d[order].astype(np.uint64))
    laid = np.zeros((len(at), _CELL), dtype=np.uint8)
    starts = np.flatnonzero(np.diff(key, prepend=-1)).tolist()
    for start, stop in zip(starts, [*starts[1:], len(key)]):
        exponent, negative = divmod(int(key[start]), 2)
        _lay_out(laid[start:stop], digits[start:stop], exponent - 4, bool(negative))
    cells[at] = laid
    cells = cells.view(f"S{_CELL}").ravel()  # a bytes string ends at its trailing NULs
    zero = values == 0
    cells[zero] = np.where(np.signbit(values[zero]), b"-0", b"0")
    others = np.flatnonzero(cells == b"")  # the cells left
    cells[others] = [format(v, ".17g").encode() for v in values[others].tolist()]
    return cells


def csv_cells(values) -> list[bytes]:
    """One CSV cell per value: a float as format(v, ".17g") writes it, 17
    significant digits, so a parsed value is bit-identical to the JSON one;
    empty for an absent value; true/false for a bool."""
    values = list(values)
    floats = iter(_float_cells(np.array([v for v in values if isinstance(v, float)],
                                        dtype=np.float64)).tolist())
    return [next(floats) if isinstance(v, float) else b"" if v is None
            else (b"true" if v else b"false") if isinstance(v, bool) else str(v).encode("utf-8")
            for v in values]


def csv_value(value) -> str:
    """One CSV cell, by the rule of csv_cells."""
    return csv_cells((value,))[0].decode("utf-8")


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


def _section_cells(columns, names) -> list[list[bytes]]:
    """The CSV cells of fields ``names`` of ``columns``, one list per field.
    Every float cell with a value is formatted by one _float_cells call; a
    group-tied field's NaN is empty, and only text goes through csv
    quoting, each distinct text once."""
    found = [field_column(columns, name) for name in names]
    floats = [(column, tied) for column, tied in found if column.dtype.kind == "f"]
    values = np.array([column for column, _ in floats])  # a row per float field
    present = ~(np.isnan(values) & np.array([[tied] for _, tied in floats]))
    formatted = np.zeros(values.shape, dtype=f"S{_CELL}")  # empty where absent
    formatted[present] = _float_cells(values[present])
    formatted = iter(formatted.tolist())
    return [next(formatted) if column.dtype.kind == "f"
            else _quoted(column.tolist()) if column.dtype.kind == "U"
            else csv_cells(column.tolist()) for column, _ in found]


def _emit_csv(doc: ReportDocument) -> bytes:
    """The flat export, built from the columns: each section's cells are
    formatted a column at a time, then every row is joined with commas."""
    columns = []
    if doc.models:
        band_cells = _BAND_CELLS if doc.bands else ()
        header = ("model",) + _POINT_COLUMNS + _CALIBRATION_COLUMNS + band_cells
        for model in doc.models:
            band = doc.bands.get(model.name)
            columns.append([
                repeat(*_quoted([model.name])),
                *_section_cells(model.columns, _POINT_COLUMNS
                                + tuple(f"calibration.{name}" for name in _CALIBRATION_COLUMNS)),
                *(repeat(b"") if band is None else csv_cells(getattr(band, name))
                  for name in band_cells),
            ])
    elif doc.comparisons:
        header = _PAIR_COLUMNS + _VERDICT_COLUMNS
        for section in doc.comparisons:
            pair = _quoted([getattr(section, name) for name in _PAIR_COLUMNS])
            columns.append([*map(repeat, pair), *_section_cells(section.columns, _VERDICT_COLUMNS)])
    else:
        return b""
    lines = [b",".join(_quoted(header))]
    for section in columns:
        lines.extend(map(b",".join, zip(*section)))
    return b"\n".join(lines) + b"\n"


def emit_report(doc: ReportDocument, format: str = "json") -> bytes:
    """Serialize a report; JSON is lossless, CSV is the flat per-row export."""
    if format == "json":
        text = json.dumps(_document_to_dict(doc), indent=2, default=_fields)
        return (text + "\n").encode("utf-8")
    if format == "csv":
        return _emit_csv(doc)
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
