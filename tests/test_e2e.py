"""The report comparison tests/e2e.py makes: dropping the JSON ``input``
line, as the CI check does, must never hide a difference in the report."""

import pytest

from dcakit.cli import cli_main
from e2e import Failed, compare

ROWS = "y,m1,m2\n1,0.9,0.8\n0,0.2,0.3\n1,0.4,0.6\n0,0.1,0.05\n"


def curves_json(tmp_path, name, rows=ROWS):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(rows.encode())
    out = tmp_path / f"{name}.json"
    assert cli_main(["curves", "--input", str(path), "--outcome", "y", "--models", "m1", "m2",
                     "--grid", "0.1:0.5:0.1", "--out", str(out)]) == 0
    return out.read_bytes()


def test_reports_that_differ_only_in_the_input_line_match(tmp_path):
    a, b = curves_json(tmp_path, "a"), curves_json(tmp_path, "b")
    assert a != b
    compare(a, b)


def test_one_curve_cell_fails_the_comparison(tmp_path):
    a, b = curves_json(tmp_path, "a"), curves_json(tmp_path, "b")
    cell = b'"nb_model": 0.39285714285714285,'
    assert b.count(cell) == 1
    with pytest.raises(Failed, match="nb_model"):
        compare(a, b.replace(cell, b'"nb_model": 0.39285714285714286,'))


def test_the_input_digest_is_compared_unless_ignored(tmp_path):
    lf = curves_json(tmp_path, "lf")
    crlf = curves_json(tmp_path, "crlf", ROWS.replace("\n", "\r\n"))
    with pytest.raises(Failed, match="input_digest"):
        compare(lf, crlf)
    compare(lf, crlf, ignored=("input", "input_digest"))


def test_a_missing_or_extra_line_fails_the_comparison(tmp_path):
    a = curves_json(tmp_path, "a")
    lines = a.split(b"\n")
    # Line 20 is the 19th that is kept once the input line is dropped.
    with pytest.raises(Failed, match="kept line 19 is"):
        compare(a, b"\n".join(lines[:19] + lines[20:]))
    with pytest.raises(Failed, match="expected None"):
        compare(a, a + b"\n")
