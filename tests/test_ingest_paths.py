"""The two ingest parsers agree.

``_InputFile.parse_plain`` (a streamed byte scan and an exact decimal
converter) takes plain files and returns None for anything it cannot prove
plain; ``_parse_rows`` (csv plus ``float``) reads every file and owns every
error. Whenever the fast path returns arrays, the row parser must return
the same bytes, and ``ingest`` must give what the row parser gives: the
same arrays, or the same message, row and column.
"""

import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcakit import IngestionError, IngestionSpec, ingest, reader
from dcakit.reader import _InputFile, _parse_rows


def _arrays(parsed):
    outcomes, risks = parsed
    return ("ok", outcomes.tobytes(), *(np.ascontiguousarray(r).tobytes() for r in risks))


def _row_parser(data, spec):
    try:
        return _arrays(_parse_rows(data, spec))
    except IngestionError as exc:
        return ("error", str(exc), exc.row, exc.column)


def _ingest(spec):
    try:
        sets = ingest(spec)
    except IngestionError as exc:
        return ("error", str(exc), exc.row, exc.column)
    return ("ok", sets[0].outcomes.tobytes(), *(s.risks.tobytes() for s in sets))


def parse_plain(path, spec):
    """The fast path on the file at ``path``: its arrays, or None."""
    with _InputFile(str(path)) as source:
        return source.parse_plain(spec)


def check_paths(path, data, **options):
    """Write ``data`` to ``path``, check that both parsers agree, and return
    which one ``ingest`` used and what it returned."""
    path.write_bytes(data)
    spec = IngestionSpec(path=str(path), **options)
    expected = _row_parser(data, spec)
    fast = parse_plain(path, spec)
    if fast is not None:
        assert _arrays(fast) == expected
    assert _ingest(spec) == expected
    return ("fast" if fast is not None else "rows"), expected


TWO_MODELS = {"outcome_column": "y", "model_columns": ("m1", "m2")}
ONE_MODEL = {"outcome_column": "y", "model_columns": ("m1",)}

# name -> (file bytes, ingest options, parser that must take it, error substring or None)
CORPUS = {
    "plain": (b"y,m1,m2\n1,0.5,0.25\n0,0.1,1\n", TWO_MODELS, "fast", None),
    "outcome +1": (b"y,m1\n+1,0.5\n", ONE_MODEL, "rows", "literal 0 or 1"),
    "outcome 01": (b"y,m1\n01,0.5\n", ONE_MODEL, "rows", "literal 0 or 1"),
    "outcome -0": (b"y,m1\n-0,0.5\n", ONE_MODEL, "rows", "literal 0 or 1"),
    "outcome 1.0": (b"y,m1\n1,0.5\n1.0,0.5\n", ONE_MODEL, "rows", "literal 0 or 1"),
    "outcome padded": (b"y,m1\n 1 ,0.5\n0,0.25\n", ONE_MODEL, "rows", None),
    "blank line mid-file": (b"y,m1\n1,0.5\n\n0,0.25\n", ONE_MODEL, "rows", "found 0"),
    "whitespace-only line": (b"y,m1\n1,0.5\n   \n0,0.25\n", ONE_MODEL, "rows", "found 1"),
    "short row": (b"y,m1,m2\n1,0.5,0.5\n0,0.25\n", TWO_MODELS, "rows", "found 2"),
    "long row": (b"y,m1,m2\n1,0.5,0.5,0.5\n", TWO_MODELS, "rows", "found 4"),
    "short and long rows that balance": (b"y,m1,a,b\n1,0.5,x\n0,1,0.5,x,x\n", ONE_MODEL,
                                         "rows", "found 3"),
    "no final newline": (b"y,m1\n1,0.5\n0,0.25", ONE_MODEL, "fast", None),
    "CRLF": (b"y,m1\r\n1,0.5\r\n0,0.25\r\n", ONE_MODEL, "fast", None),
    "lone CR": (b"y,m1\r1,0.5\r0,0.25\r", ONE_MODEL, "rows", None),
    "quoted cells": (b'"y","m1"\n"1","0.5"\n0,"0.25"\n', ONE_MODEL, "rows", None),
    "risk nan": (b"y,m1\n1,0.5\n0,nan\n", ONE_MODEL, "rows", "outside [0, 1]"),
    "risk inf": (b"y,m1\n1,inf\n", ONE_MODEL, "rows", "outside [0, 1]"),
    "risk -0.0": (b"y,m1\n1,-0.0\n0,0.5\n", ONE_MODEL, "fast", None),
    "risk 1e-05": (b"y,m1\n1,1e-05\n0,0.5\n", ONE_MODEL, "fast", None),
    "risk 0.1_5": (b"y,m1\n1,0.1_5\n0,0.5\n", ONE_MODEL, "fast", None),
    "risk above 1": (b"y,m1\n1,0.5\n0,1.0000001\n", ONE_MODEL, "rows", "row 2"),
    "BOM": (b"\xef\xbb\xbfy,m1\n1,0.5\n0,0.25\n", ONE_MODEL, "fast", None),
    "BOM and CRLF": (b"\xef\xbb\xbfy,m1\r\n1,0.5\r\n", ONE_MODEL, "fast", None),
    "non-UTF-8 byte": (b"y,m1\n1,0.5\n0,0.\xff\n", ONE_MODEL, "rows", "not UTF-8"),
    "UTF-8 header": ("y,m1,modèle\n1,0.5,0.5\n".encode(), ONE_MODEL, "fast", None),
    "UTF-8 body": ("y,m1,note\n1,0.5,vérifié\n".encode(), ONE_MODEL, "rows", None),
    "duplicate column name": (b"y,m1,m1\n1,0.5,0.75\n", ONE_MODEL, "fast", None),
    "extra text column": (b"id,y,m1,note\nA-17,1,0.5,seen twice\n", ONE_MODEL, "fast", None),
    "tab delimiter": (b"y\tm1\n1\t0.5\n", dict(ONE_MODEL, delimiter="\t"), "fast", None),
    "no header": (b"1,0.5\n0,0.25\n",
                  {"outcome_column": "0", "model_columns": ("1",), "header": False},
                  "fast", None),
    "no header, bad first row": (b"y,0.5\n0,0.25\n",
                                 {"outcome_column": "0", "model_columns": ("1",),
                                  "header": False}, "rows", "row 1"),
    "empty file": (b"", ONE_MODEL, "rows", "is empty"),
    "header only": (b"y,m1\n", ONE_MODEL, "rows", "no data rows"),
    "missing column": (b"y,m1\n1,0.5\n", TWO_MODELS, "rows", "'m2' not found"),
    "outcome is a model": (b"y,m1\n1,0.5\n", {"outcome_column": "y", "model_columns": ("y",)},
                           "rows", None),
}


@pytest.mark.parametrize("name", CORPUS)
def test_corpus(tmp_path, name):
    data, options, parser, error = CORPUS[name]
    used, result = check_paths(tmp_path / "input.csv", data, **options)
    assert used == parser
    if error is None:
        assert result[0] == "ok", result
    else:
        assert result[0] == "error" and error in result[1], result


def _traced(call):
    """The call's result and the peak bytes it allocated."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_megabyte_single_line_stays_near_the_file_size(tmp_path):
    """A 1 MB cell is longer than csv's field limit. The fast path declines it
    after one chunk, a fraction of the file; the row parser reports the
    limit, holding the line once as read and once joined."""
    data = b"y,m1\n1,0." + b"5" * 1_000_000
    path = tmp_path / "wide.csv"
    path.write_bytes(data)
    spec = IngestionSpec(path=str(path), outcome_column="y", model_columns=("m1",))

    def row_parser():
        with pytest.raises(IngestionError, match=r"field limit.*row 1"):
            _parse_rows(data, spec)

    with _InputFile(str(path)) as source:
        fast, peak = _traced(lambda: source.parse_plain(spec))
    assert fast is None and peak < len(data)
    assert _traced(row_parser)[1] < 2.5 * len(data)
    assert _ingest(spec)[:3] == ("error", f"malformed CSV: field larger than field limit "
                                          f"({csv.field_size_limit()}) (row 1)", 1)


# -- fuzzed files ------------------------------------------------------------

DELIMITERS = [",", ";", "\t", "|", " ", "#"]
NAMES = ["y", "m1", "m2", " m1", "x", "note"]
OUTCOMES = ["0", "1", "0", "1", "0", "1", "+1", "01", "-0", "1.0", " 1 ", "", "2", "1\x0b"]
RISK_TEXT = ["nan", "inf", "-inf", "-0.0", "1e-05", "0.1_5", "", " ", ".5", "5.", "1.",
             "0", "1", "+0.5", "-0.5", "1e0", "10e-1", "0.5e", "1e-400", "1e400",
             "0.30000000000000004", "1.0000000000000001", "0x1p-1", "\x0b0.5", "0.5\x1c",
             "0.5\x00", "NaN", "Infinity", "0,5", "0.5 0.5", "1" + "0" * 30 + "e-30"]


def _odd(draw, one_in):
    return draw(st.integers(0, one_in - 1)) == 0


@st.composite
def risk_cells(draw):
    if _odd(draw, 12):
        return draw(st.sampled_from(RISK_TEXT))
    value = draw(st.floats(0.0, 1.0))
    text = draw(st.sampled_from([repr(value), f"{value:.3f}", f"{value:.6e}", f"{value:.17g}",
                                 f"{value:E}", f"{value:.1f}"]))
    if _odd(draw, 6):
        text = (draw(st.sampled_from(["", " ", "+"])) + text
                + draw(st.sampled_from(["", " ", "\t"])))
    return text


@st.composite
def input_files(draw):
    """Mostly well-formed files with now and then an odd cell, row, line
    ending or byte, so that both parsers see plenty of each."""
    delimiter = draw(st.sampled_from(DELIMITERS))
    header = draw(st.permutations(["y", "m1"] + draw(st.lists(st.sampled_from(NAMES),
                                                              max_size=2))))
    if _odd(draw, 10):
        header = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        cells = [draw(st.sampled_from(OUTCOMES if _odd(draw, 12) else "01"))
                 for _ in header]
        cells = [cell if name != "m1" else draw(risk_cells())
                 for cell, name in zip(cells, header)]
        if _odd(draw, 20):
            cells = cells[:-1] if _odd(draw, 2) else cells + ["0.5"]
        rows.append(delimiter.join(cells))
    if rows and _odd(draw, 8):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(["", "   "])))
    eol = draw(st.sampled_from(["\n"] * 6 + ["\r\n", "\r"]))
    text = eol.join([delimiter.join(header)] + rows) + draw(st.sampled_from([eol, eol, ""]))
    data = text.encode("utf-8")
    if _odd(draw, 8):
        data = b"\xef\xbb\xbf" + data
    if _odd(draw, 8):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b'"', b"\xff", b"\xc3\xa9", b"\r", b"\x00",
                                                  b"\x0b"])) + data[at:]
    return data, delimiter


@settings(max_examples=400, deadline=None)
@given(case=input_files())
def test_paths_agree_on_fuzzed_files(tmp_path_factory, case):
    data, delimiter = case
    path = tmp_path_factory.getbasetemp() / "fuzzed.csv"
    check_paths(path, data, outcome_column="y", model_columns=("m1",), delimiter=delimiter)


@settings(max_examples=200, deadline=None)
@given(case=input_files(), chunk=st.sampled_from([1, 2, 3, 5, 8, 13, 32]))
def test_paths_agree_in_small_chunks(tmp_path_factory, case, chunk):
    """Read in chunks of a few bytes, so that rows, CRLFs, the BOM and the
    header straddle chunk ends, the fast path still agrees or declines."""
    data, delimiter = case
    path = tmp_path_factory.getbasetemp() / "chunked.csv"
    default, reader._SCAN_BLOCK = reader._SCAN_BLOCK, chunk
    try:
        check_paths(path, data, outcome_column="y", model_columns=("m1",), delimiter=delimiter)
    finally:
        reader._SCAN_BLOCK = default


@st.composite
def plain_files(draw):
    """Well-formed files: literal outcomes, in-range risks, any delimiter and
    line ending the fast path claims, with or without the final newline."""
    delimiter = draw(st.sampled_from(DELIMITERS))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    rows = draw(st.lists(st.tuples(st.sampled_from("01"), st.floats(0.0, 1.0),
                                   st.floats(0.0, 1.0)), min_size=1, max_size=20))
    lines = [delimiter.join(["y", "m1", "m2"])]
    lines += [delimiter.join([y, repr(a), f"{b:.4g}"]) for y, a, b in rows]
    return (eol.join(lines) + draw(st.sampled_from([eol, ""]))).encode("ascii"), delimiter


@settings(max_examples=100, deadline=None)
@given(case=plain_files())
def test_plain_files_take_the_fast_path(tmp_path_factory, case):
    data, delimiter = case
    path = tmp_path_factory.getbasetemp() / "plain.csv"
    used, result = check_paths(path, data, delimiter=delimiter, **TWO_MODELS)
    assert used == "fast" and result[0] == "ok"
