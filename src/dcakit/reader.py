"""Input files: delimited UTF-8 text read into PredictionSets.

A file has a header row by default: one binary outcome column (literal
0/1) and one or more risk columns with decimal values in [0, 1]. A plain
regular file is parsed in one streamed read by the exact converter of
``digits``; any other file, and every error, goes through the row parser.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import io
import os
import stat
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from .digits import _PAD, _decimals
from .errors import DataError, IngestionError
from .metrics import PredictionSet

__all__ = ["IngestionSpec", "ingest", "file_digest"]

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
