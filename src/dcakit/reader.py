"""Input files: delimited UTF-8 text read into PredictionSets.

A file has a header row by default: one binary outcome column (literal
0/1) and one or more risk columns with decimal values in [0, 1]. Every
input, a pipe too, is read once, and each byte is checked to be UTF-8 as
it is read: plain chunks of rows are parsed by the exact converter of
``digits``, and from the first row that is not plain the row parser,
which owns every error in the rows, reads on.
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

# Largest input ingest reads, checked from a regular file's size before the
# read and from the bytes as they arrive, so that a hostile size fails with
# a DataError instead of running out of memory.
MAX_INPUT_BYTES = 2 << 30

_BOM = b"\xef\xbb\xbf"
_NEWLINE = ord("\n")
_SCAN_BLOCK = 1 << 19  # bytes per read of the fast path's streamed pass
_DIGEST_BLOCK = 1 << 20  # bytes per read of file_digest and of the row parser


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


def _layout(first: list[str], spec: IngestionSpec) -> tuple[list[str], tuple[int, list]]:
    """The column names that the cells ``first`` of the first row give, and
    the layout: the field count and the positions of the outcome and risk
    columns, None for a missing one. A repeated name means its first column."""
    names = ([name.strip() for name in first] if spec.header
             else [str(i) for i in range(len(first))])
    index = {}
    for i, name in enumerate(names):
        index.setdefault(name, i)
    wanted = (spec.outcome_column, *spec.model_columns)
    return names, (len(names), [index.get(name) for name in wanted])


class _Utf8Check:
    """Checks bytes that arrive in pieces, in file order, to be UTF-8 text, as
    one decode of them all would: an error names the first bad byte and its
    offset in the file. A piece may be a memoryview, tested for ASCII in
    place in one numpy pass; only a piece that is not is decoded."""

    def __init__(self, path: str):
        self.path, self.offset = path, 0
        self.decoder = codecs.getincrementaldecoder("utf-8")()

    def update(self, data, final: bool = False) -> None:
        pending = len(self.decoder.getstate()[0])  # bytes of a split character
        if pending or np.frombuffer(data, dtype=np.uint8).max(initial=0) > 127:
            try:
                self.decoder.decode(data, final)
            except UnicodeDecodeError as exc:  # exc.object is the pending bytes and data
                raise IngestionError(
                    f"{self.path!r} is not UTF-8 text: byte {exc.object[exc.start]:#04x} "
                    f"at offset {self.offset - pending + exc.start}"
                ) from None
        self.offset += len(data)


def _csv_rows(text, spec: IngestionSpec, number: int):
    """The rows of ``text`` as csv reads them, the first numbered ``number``.
    A csv error names its row, and is raised once the rest of the input has
    been read, so that a later non-UTF-8 byte is reported first."""
    read = 0
    try:
        for row in csv.reader(text, delimiter=spec.delimiter):
            yield row
            read += 1
    except csv.Error as exc:
        for _ in iter(partial(text.buffer.read, _DIGEST_BLOCK), b""):
            pass
        raise IngestionError(f"malformed CSV: {exc}", row=number + read) from None


def _parse_rows(data, spec: IngestionSpec, layout: tuple[int, list[int]] | None = None,
                parsed: int = 0) -> tuple[np.ndarray, list[np.ndarray]]:
    """The validating row-by-row parser: any delimited UTF-8 file, as bytes
    or as a binary stream checked to be UTF-8, and the exact row and column
    of the first bad cell. Rows stream through; only parsed values are kept.
    Errors keep a whole-file parse's order (non-UTF-8 byte, malformed row,
    empty file, no data rows, missing column, first bad row), so after a
    missing column or bad row the rest is only read through csv.

    A stream given a ``layout``, as ``_header_layout`` gives it, holds the
    rows after the first ``parsed`` data rows, without a header or BOM."""
    if isinstance(data, bytes):
        _Utf8Check(spec.path).update(data, final=True)
        data = io.BytesIO(data)
    text = io.TextIOWrapper(data, encoding="utf-8" if layout else "utf-8-sig", newline="")
    rows = _csv_rows(text, spec, parsed + 1 if layout or not spec.header else 0)
    failure = None
    if layout is None:
        first = next(rows, None)
        if first is None:
            raise IngestionError(f"{spec.path!r} is empty")
        if not spec.header:
            rows = chain([first], rows)
        names, layout = _layout(first, spec)
        failure = next((IngestionError(f"column {name!r} not found; available: "
                                       f"{', '.join(map(repr, names))}")
                        for name, at in zip((spec.outcome_column, *spec.model_columns),
                                            layout[1]) if at is None), None)
    fields, (outcome_at, *risk_at) = layout
    outcomes = []
    risks = [[] for _ in spec.model_columns]
    row_number = parsed
    for row_number, row in enumerate(rows, start=parsed + 1):
        if failure is not None:
            continue
        try:
            if len(row) != fields:
                raise IngestionError(f"expected {fields} fields, found {len(row)}",
                                     row=row_number)
            outcomes.append(_parse_outcome(row[outcome_at], row_number, spec.outcome_column))
            for name, at, values in zip(spec.model_columns, risk_at, risks):
                values.append(_parse_risk(row[at], row_number, name))
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
    and the positions of the outcome and risk columns, as ``_layout`` finds
    them; None when the line or the spec needs the row parser."""
    delimiter = spec.delimiter
    if (spec.outcome_column in spec.model_columns or not delimiter.isascii()
            or delimiter in '\r\n"' or b'"' in first or b"\r" in first
            or not 0 < len(first) <= csv.field_size_limit()):
        return None
    layout = _layout(first.decode("utf-8").split(delimiter), spec)[1]
    return None if None in layout[1] else layout


def _block_cells(block: np.ndarray, fields: int, columns: list[int], delimiter: int,
                 limit: int) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]] | None:
    """The outcome cells of ``block``, whole rows of UTF-8 text that each end
    in LF or CR LF, as a bool array, and the start and end of each cell of
    the other ``columns``, a row's last cell ending before its CR: None
    unless the block has no CR but those, every row has ``fields`` fields,
    no line is longer than ``limit`` bytes and every outcome cell is the
    single byte 0 or 1. No byte below 0x80 occurs inside a multibyte
    character, so the ASCII separators split the text where csv does."""
    hits = block == delimiter
    hits |= block == _NEWLINE
    sep = np.flatnonzero(hits)
    rows, extra = divmod(sep.size, fields)
    kinds = block[sep]
    if (extra or (kinds[fields - 1::fields] != _NEWLINE).any()
            or np.count_nonzero(kinds == _NEWLINE) != rows):
        return None
    ends = sep[fields - 1::fields]  # a view: moving a row's end moves its last cell's
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    crs = np.count_nonzero(np.equal(block, ord("\r"), out=hits))  # hits is spent: no new array
    if crs:
        crlf = block[ends - 1] == ord("\r")  # block[-1] is the block's last LF
        if np.count_nonzero(crlf) != crs:  # a lone CR
            return None
        ends -= crlf
    if (ends - starts).max() > limit:  # bytes, at least csv's characters
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
    """The UTF-8 cells data[starts:ends] as ``_parse_risk`` reads them, by
    strip and ``float``, range aside; None if one is not a number. Cells
    that ``_decimals`` does not convert are read one at a time."""
    values, exact = _decimals(data, starts, ends)
    redo = np.flatnonzero(~exact)
    try:
        values[redo] = [float(data[start:end].decode("utf-8").strip())
                        for start, end in zip(starts[redo].tolist(), ends[redo].tolist())]
    except ValueError:
        return None
    return values


def _parse_chunk(data: bytearray, start: int, stop: int, layout: tuple[int, list[int]],
                 spec: IngestionSpec) -> list[np.ndarray] | None:
    """The outcome cells (bool) and the risk columns of the rows
    data[start:stop], parsed where they are, or None if they are not plain.
    ``start`` is at least len(_PAD), as ``_decimals`` needs."""
    fields, columns = layout
    block = np.frombuffer(data, dtype=np.uint8, count=stop)[start:]
    scanned = _block_cells(block, fields, columns, ord(spec.delimiter), csv.field_size_limit())
    if scanned is None:
        return None
    ones, cells = scanned
    parsed = [ones]
    for first, end in cells:
        column = _cell_values(data, first + start, end + start)
        if column is None or not ((column >= 0.0) & (column <= 1.0)).all():
            return None
        parsed.append(column)
    return parsed


class _InputFile(io.RawIOBase):
    """An input, open for one streamed read: every byte is read once, by
    ``_read``, which digests it and checks it to be UTF-8. A regular file
    over MAX_INPUT_BYTES is refused from its size before any byte is read;
    any input, once more bytes arrive. A regular file's identity (device,
    inode, size and mtime) when it was opened must still hold when it is
    closed, whatever ended the read.

    ``parse_plain`` parses the plain rows at the input's start and
    ``parse_rows`` the rest. As a binary stream the input gives the row
    parser the bytes that ``parse_plain`` read and did not parse, then the
    rest of the input.
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
        self.regular = stat.S_ISREG(status.st_mode)  # a pipe's size is unknown
        self.digest = hashlib.sha256()
        self.utf8 = _Utf8Check(path)
        self.arrived = 0  # bytes read
        self.checked = 0  # bytes parsed by the fast path, a prefix of whole rows
        self.layout = None  # the header's layout, once the fast path parsed a chunk
        self.columns, self.rows = [], 0  # the outcome column, a risk column per model
        self.rest = bytearray()  # bytes read after those parsed, not yet parsed

    def __exit__(self, *exc_info):
        with self.handle:
            self._check_identity()

    def _read(self, head: bytes, size: int) -> bytearray:
        """``head``, then up to ``size`` bytes read after it in place,
        digested and checked to be UTF-8: the one read of the input. Past
        MAX_INPUT_BYTES, one more byte is read, and refused."""
        block = bytearray(len(head) + min(size, MAX_INPUT_BYTES + 1 - self.arrived))
        block[:len(head)] = head
        with memoryview(block) as whole, whole[len(head):] as free:
            try:
                count = self.handle.readinto(free)
            except OSError as exc:
                raise IngestionError(f"cannot read {self.path!r}: {exc}") from exc
            self.arrived += count
            if self.arrived > MAX_INPUT_BYTES:
                raise DataError(f"{self.path!r} is over the {MAX_INPUT_BYTES}-byte input limit")
            self.digest.update(free[:count])
            self.utf8.update(free[:count], final=not count)
        del block[len(head) + count:]
        return block

    def _check_identity(self) -> None:
        if self.regular and _identity(os.fstat(self.handle.fileno())) != self.identity:
            raise IngestionError(f"{self.path!r} changed while being read")

    def _parsed(self) -> tuple[np.ndarray, list[np.ndarray]]:
        outcomes, *risks = self.columns
        for column in risks:  # trimmed in place: no copy, and it still owns its data
            column.resize(self.rows, refcheck=False)
        return outcomes[:self.rows].astype(np.int64), risks

    def _append(self, parts: list[np.ndarray], capacity: int) -> None:
        """Append the columns ``parts`` to the kept columns, which first grow
        to ``capacity`` rows, of the dtypes of ``parts``, if they are short."""
        rows = self.rows + len(parts[0])
        if not self.columns or rows > len(self.columns[0]):
            grown = [np.empty(capacity, dtype=part.dtype) for part in parts]
            for new, old in zip(grown, self.columns):
                new[:self.rows] = old[:self.rows]
            self.columns = grown
        for column, part in zip(self.columns, parts):
            column[self.rows:rows] = part
        self.rows = rows

    def parse_plain(self, spec: IngestionSpec) -> tuple[np.ndarray, list[np.ndarray]] | None:
        """The fast path: a plain input parsed in one streamed read, or None
        when ``parse_rows`` must go on from the first row it did not parse.

        An input is plain when every row provably reads as in
        ``_parse_rows``: UTF-8 text without quotes or lone CRs, the
        header's field count on every row, no line longer than csv's field
        size limit, outcome cells that are the single byte 0 or 1, and risk
        cells that ``_parse_risk``'s rule reads into [0, 1]. Anything else,
        every error in the rows included, is left to the row parser; a
        byte that is not UTF-8 ends the read where it is met.

        The input is read in chunks of whole rows, each parsed in the buffer
        it was read into, behind _PAD and the bytes read before it. Each is
        scanned for its separators by ``_block_cells``, which also ends a
        CR LF row's last cell before the CR, and its risk cells converted by
        ``_cell_values`` from the separators found. Only the parsed values
        are kept, in one bool outcome array and one risk array per model,
        sized for the rows a regular file holds at the density read so far,
        and twice the rows read from an input of unknown size, and grown if
        that falls short. Kept per chunk instead, they would sit between
        the chunks' freed arrays and hold that memory in the process's heap
        after the parse. The chunk the fast path stops at stays in ``rest``.
        """
        limit = csv.field_size_limit()
        layout = None
        carry = b""  # the bytes read after the last whole row
        while True:
            joined = self._read(_PAD + carry, _SCAN_BLOCK)
            end = len(joined) == len(_PAD) + len(carry)
            if end:
                if not carry:
                    break
                joined += b"\n"  # the last row, which has no newline
            stop = joined.rfind(b"\n") + 1
            if len(joined) - max(stop, len(_PAD)) > limit + 2:  # a line over the limit
                break
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
                    break
                if spec.header:
                    start = first_end + 1
            # A quoted cell may hold a newline. The quote test also takes in
            # the header, which has none, and the partial row after stop.
            if b'"' in joined:
                break
            if stop > start:
                parsed = _parse_chunk(joined, start, stop, layout, spec)
                if parsed is None:
                    break
                # room for the rows a file holds at the density read so far (or
                # more, if it grew while being read, which fails below); for a
                # pipe, twice the rows read, so that its arrays double
                read = self.checked + stop - len(_PAD)
                expected = ((self.rows + len(parsed[0]))
                            * max(self.size, read if self.regular else 2 * read) // read)
                self._append(parsed, expected + expected // 64 + 64)
            self.checked += stop - len(_PAD)
            self.layout = layout
            carry = bytes(joined[stop:])
        del joined[len(joined) - end:], joined[:len(_PAD)]  # in place: no copy
        self.rest = joined
        if self.rest or not self.rows:
            return None
        return self._parsed()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        """The row parser's read: ``rest``, then the rest of the input read
        _DIGEST_BLOCK bytes at a time."""
        if not self.rest:
            self.rest = self._read(b"", _DIGEST_BLOCK)
        count = min(len(buffer), len(self.rest))
        buffer[:count] = self.rest[:count]
        del self.rest[:count]
        return count

    def parse_rows(self, spec: IngestionSpec) -> tuple[np.ndarray, list[np.ndarray]]:
        """``_parse_rows`` on the rows ``parse_plain`` did not parse, read on
        from where it stopped and joined to the rows it parsed; from the
        input's start when it parsed no byte."""
        outcomes, risks = _parse_rows(self, spec, self.layout, self.rows)
        if not self.rows:
            return outcomes, risks
        self._append([outcomes, *risks], self.rows + len(outcomes))
        return self._parsed()


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
    in error messages. One leading UTF-8 byte order mark is skipped. The
    input, a file or a pipe, is opened once and read once. Its plain rows
    are parsed with an exact vectorized decimal converter
    (``_InputFile.parse_plain``), and from the first row that is not plain
    the row parser reads on (``_InputFile.parse_rows``). Both give the same
    arrays bit for bit, and every error in the rows comes from the row
    parser. The input is digested and checked to be UTF-8 as it is read; a
    byte that is not UTF-8, or a file that changes while it is read, raises
    IngestionError, and an input over MAX_INPUT_BYTES raises DataError.
    """
    with _InputFile(spec.path) as source:
        outcomes, risks = source.parse_plain(spec) or source.parse_rows(spec)
        datasets = Datasets([], source.digest.hexdigest())
    for column in (outcomes, *risks):  # frozen, owning their data: kept, not copied
        column.setflags(write=False)
    for name in spec.model_columns:
        datasets.append(PredictionSet(risks=risks.pop(0), outcomes=outcomes, name=name))
    return datasets
