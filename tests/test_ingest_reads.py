"""Ingest reads its input once.

``ingest`` reads the file's bytes once, digests them, scans them and drops
them before ``np.loadtxt`` reads the path. The file must still be the one
that was read afterwards, a file over ``MAX_INPUT_BYTES`` is refused before
the read, and ingest's memory stays close to the file's size.
"""

import hashlib
import os
import sys
import tracemalloc

import numpy as np
import pytest

from dcakit import DataError, IngestionError, IngestionSpec, file_digest, ingest, report
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


def _loadtxt_that(monkeypatch, change):
    """Make np.loadtxt apply ``change`` to its file, then parse it."""
    real = np.loadtxt

    def loadtxt(path, *args, **kwargs):
        change(path)
        return real(path, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", loadtxt)


def _append_row(path):
    with open(path, "ab") as handle:
        handle.write(b"1,0.5,0.5\n")


class TestChangedFile:
    def test_ingest_raises(self, plain, monkeypatch):
        _loadtxt_that(monkeypatch, _append_row)
        with pytest.raises(IngestionError, match="changed while being read"):
            ingest(_spec(plain))

    def test_cli_exits_2(self, plain, tmp_path, monkeypatch, capsys):
        _loadtxt_that(monkeypatch, _append_row)
        assert _curves(plain, tmp_path / "report.json") == 2
        assert "changed while being read" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_rewrite_that_still_parses_raises(self, plain, monkeypatch):
        """np.loadtxt's arrays fit the scan, so only the identity check can
        tell that they come from other bytes than the digest's."""
        rewritten = PLAIN.replace(b"0.25", b"0.5")
        _loadtxt_that(monkeypatch, lambda path: plain.write_bytes(rewritten))
        with pytest.raises(IngestionError, match="changed while being read"):
            ingest(_spec(plain))

    def test_same_size_rewrite_caught_on_the_reread(self, plain, monkeypatch):
        """A rewrite that keeps the size and puts the mtime back passes the
        identity check. The out-of-range risk sends the file to the row
        parser, whose second read must give the digested bytes."""
        def rewrite(path):
            status = os.stat(path)
            with open(path, "r+b") as handle:
                handle.write(PLAIN.replace(b"0.25", b"1.25"))
            os.utime(path, ns=(status.st_atime_ns, status.st_mtime_ns))

        _loadtxt_that(monkeypatch, rewrite)
        with pytest.raises(IngestionError, match="changed while being read"):
            ingest(_spec(plain))

    def test_unchanged_file_passes(self, plain, monkeypatch):
        _loadtxt_that(monkeypatch, lambda path: None)
        sets = ingest(_spec(plain))
        assert [s.risks.tolist() for s in sets] == [[0.5, 0.1], [0.25, 1.0]]
        assert sets.digest == hashlib.sha256(PLAIN).hexdigest()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_pipe_is_parsed_from_its_one_read():
    """A pipe gives its bytes once, so they stay for the row parser, and the
    digest names them."""
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, PLAIN)
        os.close(write_end)
        write_end = None
        sets = ingest(_spec(f"/dev/fd/{read_end}"))
    finally:
        os.close(read_end)
        if write_end is not None:
            os.close(write_end)
    assert [s.risks.tolist() for s in sets] == [[0.5, 0.1], [0.25, 1.0]]
    assert sets.digest == hashlib.sha256(PLAIN).hexdigest()


class TestSizeCap:
    def test_file_at_the_cap_is_read(self, plain, monkeypatch):
        monkeypatch.setattr(report, "MAX_INPUT_BYTES", len(PLAIN))
        assert len(ingest(_spec(plain))) == 2

    def test_larger_file_is_refused(self, plain, monkeypatch):
        monkeypatch.setattr(report, "MAX_INPUT_BYTES", len(PLAIN) - 1)
        with pytest.raises(DataError, match=f"is {len(PLAIN)} bytes, over the "
                                            f"{len(PLAIN) - 1}-byte input limit"):
            ingest(_spec(plain))

    def test_cli_exits_2(self, plain, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(report, "MAX_INPUT_BYTES", 10)
        assert _curves(plain, tmp_path / "report.json") == 2
        assert f"is {len(PLAIN)} bytes, over the 10-byte input limit" in capsys.readouterr().err


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


def test_file_digest_streams(tmp_path):
    data = np.random.default_rng(3).bytes(report._DIGEST_BLOCK * 3 + 12345)
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
    """Full-precision risks of two models on 200,000 rows: the bytes, the
    outcome vector and the block scan's arrays are live at once, never the
    bytes and numpy's parse."""
    rng = np.random.default_rng(1)
    risks = rng.random((200_000, 2))
    outcomes = rng.random(200_000) < risks[:, 0]
    path = tmp_path / "input.csv"
    np.savetxt(path, np.column_stack([outcomes, risks]), fmt=["%d", "%.17g", "%.17g"],
               delimiter=",", header="y,m1,m2", comments="")
    ingest(_spec(path))  # numpy's lazy imports and caches
    sets, peak = _traced_peak(lambda: ingest(_spec(path)))
    assert sets[0].n == 200_000
    assert peak <= 1.6 * os.path.getsize(path)


def test_curves_opens_the_input_twice(plain, tmp_path):
    """Once for ingest's read and once for np.loadtxt; the digest comes from
    the first read."""
    opened = []
    counting = True

    def hook(event, args):
        if counting and event == "open" and args[0] == str(plain):
            opened.append(args[1])

    sys.addaudithook(hook)  # a hook cannot be removed; it stops counting below
    try:
        assert _curves(plain, tmp_path / "report.json") == 0
    finally:
        counting = False
    assert len(opened) == 2


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
    """Scanned in blocks far smaller than the file, one row longer than a
    block among them, a plain file gives the row parser's arrays."""
    monkeypatch.setattr(report, "_SCAN_BLOCK", 64)
    rng = np.random.default_rng(5)
    lines = [b"y,m1,note"] + [b"%d,%r,%s" % (rng.integers(2), rng.random(), b"x" * rng.integers(40))
                              for _ in range(200)]
    lines[50] += b"x" * 200
    data = eol.join(lines) + (eol if final_eol else b"")
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    spec = IngestionSpec(path=str(path), outcome_column="y", model_columns=("m1",))
    fast = report._parse_fast(report._InputFile(str(path)), spec)
    outcomes, (risks,) = report._parse_rows(data, spec)
    assert fast is not None
    assert fast[0].tobytes() == outcomes.tobytes()
    assert np.ascontiguousarray(fast[1][0]).tobytes() == risks.tobytes()


class TestRowParserStreams:
    """A file the fast path declines is parsed as it is read again, through
    a digest, keeping only the parsed values."""

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

    def test_rewrite_during_the_parse_raises(self, tmp_path, monkeypatch):
        """Rewritten to other bytes of the same size, with the mtime put back,
        while the row parser reads it: only the digest of the reread shows it."""
        path = self.declined(tmp_path, rows=2000)
        original = report._parse_outcome
        status = os.stat(path)

        def rewrite_once(text, row, column):
            if row == 1:  # flip the file's last digit: '0' and '1', '2' and '3', ...
                data = path.read_bytes()
                path.write_bytes(data[:-2] + bytes([data[-2] ^ 1]) + b"\n")
                os.utime(path, ns=(status.st_atime_ns, status.st_mtime_ns))
            return original(text, row, column)

        monkeypatch.setattr(report, "_parse_outcome", rewrite_once)
        with pytest.raises(IngestionError, match="changed while being read"):
            ingest(_spec(path))
