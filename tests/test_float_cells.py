"""The CSV writer formats floats as ``format(v, ".17g")`` does, byte for byte.

``digits._float_cells`` computes every fixed-notation cell in numpy, from
the exact 17-digit integer of each value, and sends only scientific and
non-finite cells through ``format``. Each oracle here compares its bytes
with ``format(v, ".17g").encode()``, on values chosen to be hard to round
or to sit where the decimal exponent turns, and checks that the numpy
route took every fixed-notation cell.
"""

import builtins
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dcakit import (BandSpec, CurveBand, ModelCurve, ReportDocument, ThresholdGrid, decision_curve,
                    digits, emit_report)

FORMATTER = settings(deadline=None, max_examples=(
    1000 if settings.get_current_profile_name() == "ci" else 200))


def _expected(values):
    return [format(v, ".17g").encode() for v in np.asarray(values, dtype=np.float64).tolist()]


def _scientific(cell: bytes) -> bool:
    return b"e" in cell or cell in (b"nan", b"inf", b"-inf")


def _formatted(values, monkeypatch=None):
    """_float_cells' bytes for ``values``, and how many cells it sent
    through ``format``."""
    calls = []
    if monkeypatch is not None:
        def counting(value, spec):
            calls.append(value)
            return builtins.format(value, spec)

        monkeypatch.setattr(digits, "format", counting, raising=False)
    cells = digits._float_cells(np.asarray(values, dtype=np.float64)).tolist()
    if monkeypatch is not None:
        monkeypatch.undo()
    return cells, len(calls)


def _check(values, monkeypatch):
    cells, calls = _formatted(values, monkeypatch)
    expected = _expected(values)
    assert cells == expected
    assert calls == sum(map(_scientific, expected))  # every fixed cell took numpy


@FORMATTER
@given(arrays(np.float64, st.integers(0, 40), elements=st.floats(width=64)))
def test_any_double(values):
    cells, _ = _formatted(values)
    assert cells == _expected(values)


@FORMATTER
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e17,
                          max_value=1e17), max_size=40))
def test_fixed_notation_range(values):
    cells, _ = _formatted(values)
    assert cells == _expected(values)


def _neighbours(x, count=3):
    """x and its ``count`` neighbours on each side, both signs."""
    near = [x]
    for direction in (np.inf, -np.inf):
        y = x
        for _ in range(count):
            y = float(np.nextafter(y, direction))
            near.append(y)
    return near + [-y for y in near]


def test_neighbours_of_powers_of_ten(monkeypatch):
    """Within 3 ulps of 10**k the decimal exponent turns, and the log10
    guess is most likely to be one off."""
    values = [y for k in range(-6, 18) for y in _neighbours(float(10 ** k) if k >= 0
                                                            else 10.0 ** k)]
    _check(values, monkeypatch)


def test_halfway_ties_round_to_even(monkeypatch):
    """base + k * 2**-(17 - X), k odd, has exactly 18 significant digits,
    the last a 5: the 17-digit rounding is a tie, broken to even. X is the
    decimal exponent, -2 to 3; 1 + 2**-17 and 1 + 3 * 2**-17 are here."""
    values = [base + k * 2.0 ** -(17 - x) for x, base in
              ((-2, 0.03125), (-1, 0.5), (0, 1.0), (1, 16.0), (2, 128.0), (3, 1024.0))
              for k in range(1, 1024, 2)]
    assert 1 + 2.0 ** -17 in values and 1 + 3 * 2.0 ** -17 in values
    assert all(len(str(Decimal(v)).replace(".", "").lstrip("0")) == 18 for v in values)
    _check(values + [-v for v in values], monkeypatch)


def test_report_like_columns(monkeypatch):
    """Thresholds, rates and net benefits as the reports hold them, with
    zeros of both signs, NaN and infinities."""
    rng = np.random.default_rng(9)
    t = np.arange(1, 1000) / 1000
    nb = rng.random(999) - (1 - rng.random(999)) * t / (1 - t)
    values = np.concatenate([t, nb, rng.random(999) * 1e-6, np.round(rng.random(999), 3),
                             [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308]])
    _check(values, monkeypatch)


@pytest.mark.parametrize("seed", range(3))
def test_random_magnitudes(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(20_000) * 10.0 ** rng.integers(-8, 19, 20_000)
    _check(values, monkeypatch)


@pytest.mark.parametrize("miss", [1, -1])
def test_exponent_guess_off_by_one_gives_the_same_bytes(miss, monkeypatch):
    """The guess from log10 is corrected and proved, so a log10 whose last
    bits differ, as between libm builds, cannot change a cell."""
    rng = np.random.default_rng(3)
    values = np.concatenate([rng.standard_normal(5000) * 10.0 ** rng.integers(-5, 17, 5000),
                             _neighbours(1e-4), _neighbours(1e16), _neighbours(1.0)])
    guess = digits._exponent_guess
    monkeypatch.setattr(digits, "_exponent_guess", lambda magnitude: guess(magnitude) + miss)
    cells, _ = _formatted(values)
    assert cells == _expected(values)


def test_csv_cells_rule(d0):
    """A report's CSV cells by kind: a float as format(v, ".17g") writes it,
    empty for an absent value, an int as str writes it, and text. No CSV
    column holds a bool."""
    band = CurveBand(BandSpec(), (0.5,), (0.1,), (-0.0,), (None,), (1e-7,), (3,))
    doc = ReportDocument({}, (ModelCurve("x", decision_curve(d0, ThresholdGrid(0.5, 0.5, 0.1))),),
                         {"x": band})
    header, row = emit_report(doc, "csv").splitlines()
    cells = dict(zip(header.split(b","), row.split(b",")))
    assert [cells[name] for name in (b"model", b"nb_lower", b"nb_upper", b"ppv_lower",
                                     b"ppv_upper", b"ppv_replicates")] == [
        b"x", b"0.10000000000000001", b"-0", b"", b"9.9999999999999995e-08", b"3"]
