"""Ingest reads its input once.

``ingest`` opens an input once and reads it in chunks of whole rows: each
is digested, scanned and parsed, and only the parsed values stay. Where the
fast path declines a chunk, the row parser goes on from the first row it
did not parse, through the same handle and digest; pipes take the same
path. A regular file must keep its identity until the read ends. A regular
file over ``MAX_INPUT_BYTES`` is refused before its read and a pipe once
more bytes arrive, and ingest's memory stays below the file's size.
"""

import contextlib
import hashlib
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest

from dcakit import DataError, IngestionError, IngestionSpec, file_digest, ingest, reader
from dcakit.cli import cli_main

PLAIN = b"y,m1,m2\n1,0.5,0.25\n0,0.1,1\n"


def _spec(path):
    return IngestionSpec(path=str(path), outcome_column="y", model_columns=("m1", "m2"))


def _curves(path, out):
    return cli_main(["curves", "--input", str(path), "--outcome", "y", "--models", "m1", "m2",
                     "--grid", "0.1:0.2:0.1", "--out", str(out)])


@pytest.fixture
def plain(tmp_path):
    path = tmp_path / "input.csv"
    path.write_bytes(PLAIN)
    return path


def _between_chunks(monkeypatch, path, change):
    """Read in chunks of 8 bytes, and apply ``change`` to the file at
    ``path`` once the first chunk is parsed."""
    monkeypatch.setattr(reader, "_SCAN_BLOCK", 8)
    real = reader._parse_chunk
    changed = []

    def parse_chunk(*args):
        parsed = real(*args)
        if not changed:
            changed.append(change(path))
        return parsed

    monkeypatch.setattr(reader, "_parse_chunk", parse_chunk)


def _before_the_row_parser(monkeypatch, path, change):
    """Apply ``change`` to the file at ``path`` once the fast path has
    stopped, before the row parser reads on."""
    real = reader._parse_rows

    def parse_rows(*args):
        change(path)
        return real(*args)

    monkeypatch.setattr(reader, "_parse_rows", parse_rows)


def _rewrite_keeping_the_size(path, data):
    """Write ``data``, of the file's size, over the file at ``path`` and move
    its mtime a second on, as a rewrite in the same clock tick could not."""
    status = os.stat(path)
    assert len(data) == status.st_size
    with open(path, "r+b") as handle:
        handle.write(data)
    os.utime(path, ns=(status.st_atime_ns, status.st_mtime_ns + 10**9))


def _append_row(path):
    with open(path, "ab") as handle:
        handle.write(b"1,0.5,0.5\n")


def _append_rows(path):
    with open(path, "ab") as handle:
        handle.write(b"1,0.5,0.5\n" * 1000)


class TestChangedFile:
    def test_ingest_raises(self, plain, monkeypatch):
        _between_chunks(monkeypatch, plain, _append_row)
        with pytest.raises(IngestionError, match="changed while being read"):
            ingest(_spec(plain))

    def test_more_rows_than_the_size_at_the_open_raises(self, plain, monkeypatch):
        """The appended rows are read too, several a chunk, more of them than
        the file's size when it was opened left room for."""
        _between_chunks(monkeypatch, plain, _append_rows)
        monkeypatch.setattr(reader, "_SCAN_BLOCK", 64)
        with pytest.raises(IngestionError, match="changed while being read"):
            ingest(_spec(plain))

    def test_cli_exits_2(self, plain, tmp_path, monkeypatch, capsys):
        _between_chunks(monkeypatch, plain, _append_row)
        assert _curves(plain, tmp_path / "report.json") == 2
        assert "changed while being read" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_rewrite_that_still_parses_raises(self, plain, monkeypatch):
        """The rest of the rewritten file parses, so only the file's identity
        at the end of the read can tell that the chunks come from two
        versions of it."""
        rewritten = PLAIN.replace(b"0.25", b"0.5")
        _between_chunks(monkeypatch, plain, lambda path: path.write_bytes(rewritten))
        with pytest.raises(IngestionError, match="changed while being read"):
            ingest(_spec(plain))

    def test_rewrite_while_the_row_parser_reads_raises(self, plain, monkeypatch):
        """The quoted header sends the whole file to the row parser. A
        rewrite that keeps the size while it reads changes the mtime, and
        the identity check at the end of the read shows it."""
        quoted = PLAIN.replace(b"y,", b'"y",')
        plain.write_bytes(quoted)
        _before_the_row_parser(monkeypatch, plain, lambda path: _rewrite_keeping_the_size(
            path, quoted.replace(b"0.25", b"0.75")))
        with pytest.raises(IngestionError, match="changed while being read"):
            ingest(_spec(plain))

    def test_unchanged_file_passes(self, plain, monkeypatch):
        _between_chunks(monkeypatch, plain, lambda path: None)
        sets = ingest(_spec(plain))
        assert [s.risks.tolist() for s in sets] == [[0.5, 0.1], [0.25, 1.0]]
        assert sets.digest == hashlib.sha256(PLAIN).hexdigest()


@contextlib.contextmanager
def _pipe(data):
    """A /dev/fd path to the read end of a pipe that holds ``data``."""
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, data)
        os.close(write_end)
        write_end = None
        yield f"/dev/fd/{read_end}"
    finally:
        os.close(read_end)
        if write_end is not None:
            os.close(write_end)


needs_dev_fd = pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")


@needs_dev_fd
def test_pipe_is_parsed_from_its_one_read():
    """A pipe gives its bytes once, and the digest names them."""
    with _pipe(PLAIN) as path:
        sets = ingest(_spec(path))
    assert [s.risks.tolist() for s in sets] == [[0.5, 0.1], [0.25, 1.0]]
    assert sets.digest == hashlib.sha256(PLAIN).hexdigest()


@needs_dev_fd
def test_plain_pipe_takes_the_fast_path(monkeypatch):
    def parse_rows(*args):
        raise AssertionError("the row parser read a plain pipe")

    monkeypatch.setattr(reader, "_parse_rows", parse_rows)
    with _pipe(PLAIN) as path:
        sets = ingest(_spec(path))
    assert [s.risks.tolist() for s in sets] == [[0.5, 0.1], [0.25, 1.0]]


@needs_dev_fd
def test_pipe_arrays_grow_geometrically(monkeypatch):
    """A pipe has no size to size the kept arrays from: read 64 bytes at a
    time, they double as they fill, a logarithmic number of times, where
    sizing them for the rows read so far would grow them once a chunk."""
    monkeypatch.setattr(reader, "_SCAN_BLOCK", 64)
    sizes = []
    real = reader._grown

    def grown(columns, parsed, rows, capacity):
        sizes.append(capacity)
        return real(columns, parsed, rows, capacity)

    monkeypatch.setattr(reader, "_grown", grown)
    rows = 4000  # 48 KB: the pipe holds it all
    data = b"y,m1,m2\n" + b"".join(b"%d,0.%03d,0.5\n" % (i % 2, i % 1000) for i in range(rows))
    with _pipe(data) as path:
        sets = ingest(_spec(path))
        outcomes, risks = reader._parse_rows(data, _spec(path))
    assert 1 <= len(sizes) <= math.log2(rows) + 2 and sizes == sorted(sizes)
    assert sets[0].outcomes.tobytes() == outcomes.tobytes()
    assert [s.risks.tobytes() for s in sets] == [r.tobytes() for r in risks]


class TestSizeCap:
    def test_file_at_the_cap_is_read(self, plain, monkeypatch):
        monkeypatch.setattr(reader, "MAX_INPUT_BYTES", len(PLAIN))
        assert len(ingest(_spec(plain))) == 2

    def test_larger_file_is_refused(self, plain, monkeypatch):
        monkeypatch.setattr(reader, "MAX_INPUT_BYTES", len(PLAIN) - 1)
        with pytest.raises(DataError, match=f"is {len(PLAIN)} bytes, over the "
                                            f"{len(PLAIN) - 1}-byte input limit"):
            ingest(_spec(plain))

    def test_cli_exits_2(self, plain, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(reader, "MAX_INPUT_BYTES", 10)
        assert _curves(plain, tmp_path / "report.json") == 2
        assert f"is {len(PLAIN)} bytes, over the 10-byte input limit" in capsys.readouterr().err

    @needs_dev_fd
    def test_pipe_at_the_cap_is_read(self, monkeypatch):
        monkeypatch.setattr(reader, "MAX_INPUT_BYTES", len(PLAIN))
        with _pipe(PLAIN) as path:
            assert len(ingest(_spec(path))) == 2

    @needs_dev_fd
    def test_larger_pipe_is_refused(self, tmp_path, monkeypatch, capsys):
        """A pipe has no size to check before the read: ingest reads one
        byte more than the cap and stops there."""
        monkeypatch.setattr(reader, "MAX_INPUT_BYTES", 10)
        with _pipe(PLAIN) as path:
            assert _curves(path, tmp_path / "report.json") == 2
        assert "is over the 10-byte input limit" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_models_share_one_outcome_vector(plain):
    m1, m2 = ingest(_spec(plain))
    assert m1.outcomes is m2.outcomes
    assert not m1.outcomes.flags.writeable and m1.outcomes.tolist() == [1, 0]


@pytest.mark.parametrize("declined", [False, True])
def test_models_keep_the_parsed_arrays(plain, declined, monkeypatch):
    """Each model holds the array its risks were parsed into, trimmed and
    frozen in place, not a copy, from the fast path and the row parser."""
    if declined:
        plain.write_bytes(PLAIN.replace(b"\n1,", b"\n 1 ,"))
    parsed = []
    for name in ("parse_plain", "parse_rows"):
        def keep(self, spec, parse=getattr(reader._InputFile, name)):
            result = parse(self, spec)
            parsed.append(result and (result[0], list(result[1])))  # ingest pops the list
            return result

        monkeypatch.setattr(reader._InputFile, name, keep)
    m1, m2 = ingest(_spec(plain))
    outcomes, risks = parsed[-1]
    assert (parsed[0] is None) == declined
    assert m1.risks is risks[0] and m2.risks is risks[1] and m1.outcomes is outcomes
    for data in (m1, m2):
        assert data.risks.flags.owndata and not data.risks.flags.writeable
        assert data.n == 2


def test_file_digest_streams(tmp_path):
    data = np.random.default_rng(3).bytes(reader._DIGEST_BLOCK * 3 + 12345)
    path = tmp_path / "blob"
    path.write_bytes(data)
    digest, peak = _traced_peak(lambda: file_digest(str(path)))
    assert digest == hashlib.sha256(data).hexdigest()
    assert peak < len(data)


def test_digest_names_the_raw_bytes(tmp_path):
    data = b"\xef\xbb\xbfy,m1,m2\r\n1,0.5,0.25\r\n0,0.1,1\r\n"
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    assert ingest(_spec(path)).digest == hashlib.sha256(data).hexdigest() == file_digest(
        str(path))


def test_ingest_peak_stays_near_the_file_size(tmp_path):
    """Full-precision risks of two models on 200,000 rows: the streamed read
    holds the parsed arrays, their per-chunk pieces and one chunk, never the
    file."""
    rng = np.random.default_rng(1)
    risks = rng.random((200_000, 2))
    outcomes = rng.random(200_000) < risks[:, 0]
    path = tmp_path / "input.csv"
    np.savetxt(path, np.column_stack([outcomes, risks]), fmt=["%d", "%.17g", "%.17g"],
               delimiter=",", header="y,m1,m2", comments="")
    ingest(_spec(path))  # numpy's lazy imports and caches
    sets, peak = _traced_peak(lambda: ingest(_spec(path)))
    assert sets[0].n == 200_000
    assert peak <= 1.0 * os.path.getsize(path)


def _opens(path, call):
    """How many times ``call()`` opens ``path``, and its result."""
    opened = []
    counting = True

    def hook(event, args):
        if counting and event == "open" and args[0] == str(path):
            opened.append(args[1])

    sys.addaudithook(hook)  # a hook cannot be removed; it stops counting below
    try:
        result = call()
    finally:
        counting = False
    return len(opened), result


def test_curves_opens_a_plain_input_once(plain, tmp_path):
    """The streamed read parses and digests the same bytes."""
    assert _opens(plain, lambda: _curves(plain, tmp_path / "report.json")) == (1, 0)


def test_curves_opens_a_declined_input_once(plain, tmp_path):
    """The row parser reads on through the handle the fast path read."""
    plain.write_bytes(PLAIN.replace(b"\n1,", b"\n 1 ,"))  # a padded outcome: the row parser
    assert _opens(plain, lambda: _curves(plain, tmp_path / "report.json")) == (1, 0)


def test_quote_in_a_body_block_takes_the_row_parser(tmp_path):
    """A quoted cell may hold a newline, so a body with a quote is left to
    the row parser even where its lines look like plain rows."""
    path = tmp_path / "input.csv"
    path.write_bytes(b'y,m1,note\n1,0.5,"a\n0,0.5,b"\n')
    (data,) = ingest(IngestionSpec(path=str(path), outcome_column="y", model_columns=("m1",)))
    assert data.outcomes.tolist() == [1] and data.risks.tolist() == [0.5]


@pytest.mark.parametrize("eol", [b"\n", b"\r\n"])
@pytest.mark.parametrize("final_eol", [True, False])
def test_blocks_end_where_rows_end(tmp_path, monkeypatch, eol, final_eol):
    """Read in chunks far smaller than the file, one row longer than a chunk
    among them, a plain file gives the row parser's arrays."""
    monkeypatch.setattr(reader, "_SCAN_BLOCK", 64)
    rng = np.random.default_rng(5)
    lines = [b"y,m1,note"] + [b"%d,%r,%s" % (rng.integers(2), rng.random(), b"x" * rng.integers(40))
                              for _ in range(200)]
    lines[50] += b"x" * 200
    data = eol.join(lines) + (eol if final_eol else b"")
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    spec = IngestionSpec(path=str(path), outcome_column="y", model_columns=("m1",))
    with reader._InputFile(str(path)) as source:
        fast = source.parse_plain(spec)
    outcomes, (risks,) = reader._parse_rows(data, spec)
    assert fast is not None
    assert fast[0].tobytes() == outcomes.tobytes()
    assert np.ascontiguousarray(fast[1][0]).tobytes() == risks.tobytes()


def test_arrays_grow_when_rows_get_shorter(tmp_path, monkeypatch):
    """The kept arrays are sized from the rows per byte read so far; a file
    whose rows get shorter outgrows them, and they grow, keeping every row."""
    monkeypatch.setattr(reader, "_SCAN_BLOCK", 256)
    sizes = []
    real = reader._grown

    def grown(columns, parsed, rows, capacity):
        sizes.append(capacity)
        return real(columns, parsed, rows, capacity)

    monkeypatch.setattr(reader, "_grown", grown)
    rng = np.random.default_rng(8)
    lines = [b"y,m1,note"] + [b"%d,%r,%s" % (rng.integers(2), rng.random(), b"x" * (200 - i))
                              for i in range(200)]
    data = b"\n".join(lines) + b"\n"
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    spec = IngestionSpec(path=str(path), outcome_column="y", model_columns=("m1",))
    with reader._InputFile(str(path)) as source:
        fast = source.parse_plain(spec)
    outcomes, (risks,) = reader._parse_rows(data, spec)
    assert len(sizes) > 1 and sizes == sorted(sizes)
    assert fast[0].tobytes() == outcomes.tobytes()
    assert np.ascontiguousarray(fast[1][0]).tobytes() == risks.tobytes()


@pytest.mark.parametrize("last", [b"0,0.5,\xc3\xbc\n", b"0,0.5,\xc3\n", b"0,0.5,\xc3"])
def test_utf8_check_spans_reads(tmp_path, monkeypatch, last):
    """A declined file is checked to be UTF-8 as the rest of it is read, 3
    bytes at a time: a character split between reads passes, and a bad byte
    is named at its offset in the file, as one decode of the file names it."""
    monkeypatch.setattr(reader, "_SCAN_BLOCK", 16)
    monkeypatch.setattr(reader, "_DIGEST_BLOCK", 3)
    data = "y,m1,note\n1,0.5,x\n0,0.25,vérifié\n1,0.5,ü\n".encode() + last
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    spec = IngestionSpec(path=str(path), outcome_column="y", model_columns=("m1",))
    try:
        expected = [reader._parse_rows(data, spec)[1][0].tolist()]
    except IngestionError as exc:
        expected = str(exc)
    try:
        assert [ingest(spec)[0].risks.tolist()] == expected
    except IngestionError as exc:
        assert str(exc) == expected and "is not UTF-8 text: byte 0xc3 at offset" in expected


class TestRowParserStreams:
    """Where the fast path declines a file, the row parser reads on from
    the first row it did not parse, keeping only the parsed values."""

    @staticmethod
    def declined(tmp_path, rows=100_000):
        rng = np.random.default_rng(2)
        risks = rng.random((rows, 2))
        lines = [b"y,m1,m2"] + [b"%d,%r,%r" % (k, a, b) for k, (a, b) in
                                zip(rng.integers(0, 2, rows), risks.tolist())]
        lines[-1] = b"1.0" + lines[-1][1:]  # not a literal outcome: the row parser reads it
        path = tmp_path / "declined.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        return path

    def test_peak_stays_below_thrice_the_file(self, tmp_path):
        path = self.declined(tmp_path)
        with pytest.raises(IngestionError, match=r"literal 0 or 1.*row 100000.*'y'"):
            ingest(_spec(path))  # numpy's lazy imports and caches
        _, peak = _traced_peak(lambda: pytest.raises(IngestionError, ingest, _spec(path)))
        assert peak < 3 * os.path.getsize(path)

    def test_late_decline_parses_only_the_tail(self, tmp_path, monkeypatch):
        """The row parser reads only the rows after the last plain chunk, and
        numbers them on from the rows the fast path parsed."""
        path = self.declined(tmp_path)
        plain, seen = [], []
        parse_chunk, parse_outcome = reader._parse_chunk, reader._parse_outcome

        def count_chunk(*args):
            parsed = parse_chunk(*args)
            plain.append(0 if parsed is None else len(parsed[0]))
            return parsed

        def see_outcome(text, row, column):
            seen.append(row)
            return parse_outcome(text, row, column)

        monkeypatch.setattr(reader, "_parse_chunk", count_chunk)
        monkeypatch.setattr(reader, "_parse_outcome", see_outcome)
        with pytest.raises(IngestionError, match=r"literal 0 or 1.*row 100000.*'y'"):
            ingest(_spec(path))
        assert len(plain) > 2 and plain[-1] == 0
        assert seen == list(range(sum(plain) + 1, 100_001))

    def test_late_decline_peak_stays_below_the_file(self, tmp_path):
        """The plain chunks keep only their parsed arrays, and the row parser
        holds only the values of the rows after them."""
        path = self.declined(tmp_path, rows=500_000)
        with pytest.raises(IngestionError, match=r"literal 0 or 1.*row 500000.*'y'"):
            ingest(_spec(path))  # numpy's lazy imports and caches
        _, peak = _traced_peak(lambda: pytest.raises(IngestionError, ingest, _spec(path)))
        assert peak < os.path.getsize(path)

    def test_rewrite_during_the_tail_raises(self, tmp_path, monkeypatch):
        """Rewritten to other bytes of the same size, with a new mtime, while
        the row parser reads the rows after the last plain chunk: the
        changed file overrides the tail's error."""
        path = self.declined(tmp_path, rows=2000)
        monkeypatch.setattr(reader, "_SCAN_BLOCK", 4096)
        original = reader._parse_outcome
        seen = []

        def rewrite_once(text, row, column):
            if not seen:  # flip the file's last digit: '0' and '1', '2' and '3', ...
                data = path.read_bytes()
                _rewrite_keeping_the_size(path, data[:-2] + bytes([data[-2] ^ 1]) + b"\n")
            seen.append(row)
            return original(text, row, column)

        monkeypatch.setattr(reader, "_parse_outcome", rewrite_once)
        with pytest.raises(IngestionError, match="changed while being read"):
            ingest(_spec(path))
        assert seen[0] > 1  # a late decline: the fast path parsed the rows before


class TestTailHazards:
    """Where the row parser reads on after the fast path, it gives what it
    gives on the whole file's bytes."""

    ROWS = b"".join(b"%d,0.%d\n" % (i % 2, i) for i in range(1, 40))

    @staticmethod
    def both(tmp_path, data):
        path = tmp_path / "input.csv"
        path.write_bytes(data)
        spec = IngestionSpec(path=str(path), outcome_column="y", model_columns=("m1",))
        results = []
        for parse in (lambda: reader._parse_rows(data, spec)[0], lambda: ingest(spec)[0].outcomes):
            try:
                results.append(parse().tolist())
            except IngestionError as exc:
                results.append(str(exc))
        return results

    @pytest.mark.parametrize("block", range(269, 278))
    def test_bom_in_a_body_row(self, tmp_path, monkeypatch, block):
        """A BOM that starts row 40 is text of its outcome cell, also where
        the tail starts with it: the tail is not decoded as utf-8-sig."""
        monkeypatch.setattr(reader, "_SCAN_BLOCK", block)
        whole, read = self.both(tmp_path, b"y,m1\n" + self.ROWS + b"\xef\xbb\xbf1,0.5\n" + self.ROWS)
        assert read == whole == "outcome must be literal 0 or 1, got '\\ufeff1' (row 40, column 'y')"

    @pytest.mark.parametrize("block", [256, 1 << 19])
    def test_csv_error_waits_for_the_utf8_check(self, tmp_path, monkeypatch, block):
        """Row 40's cell is over csv's field limit, and a byte 0.5 MB after
        it is not UTF-8: the whole file's parse names the byte, and so must
        the row parser, which meets the long cell first, in reads of 64 KiB.
        It reads on after the fast path's first chunks (256) or the whole
        file (2^19)."""
        monkeypatch.setattr(reader, "_SCAN_BLOCK", block)
        monkeypatch.setattr(reader, "_DIGEST_BLOCK", 1 << 16)
        data = (b"y,m1\n" + self.ROWS + b"1,0." + b"1" * 140_000 + b"\n" + self.ROWS * 2000
                + b"0,0.\xff\n")
        whole, read = self.both(tmp_path, data)
        assert read == whole and whole.endswith("is not UTF-8 text: byte 0xff at offset 668278")
