"""The fast path reads every risk cell as ``float`` does, bit for bit.

``reader._cell_values`` converts cells written as 0 or 1, alone or followed
by '.' and up to 19 digits, exactly in numpy (``_decimals``) and sends
every other cell through ``float`` one at a time. Each oracle here compares its bits with
``float(cell.strip())``, ``_parse_risk``'s rule, on decimals chosen to be
hard to round, and checks that the numpy route took the cases it should.
"""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ingest_paths import RISK_TEXT

from dcakit import digits, reader

# The ci profile (tests/conftest.py) draws ten times as many examples here.
CONVERTER = settings(deadline=None, max_examples=(
    2000 if settings.get_current_profile_name() == "ci" else 200))


def _cells(texts):
    """The texts as comma-separated cells of one buffer behind digits._PAD,
    with each cell's start and end."""
    data = digits._PAD + ",".join(texts).encode("ascii") + b"\n"
    lengths = np.array([len(text) for text in texts], dtype=np.intp)
    ends = len(digits._PAD) + np.cumsum(lengths + 1) - 1
    return data, ends - lengths, ends


def _numpy_form(text):
    """Whether the numpy route should convert ``text``: 0 or 1, alone or
    followed by '.' and 0-19 digits, spelling d = value * 10**k below 2**63."""
    return (bool(re.fullmatch(r"[01](\.[0-9]{0,19})?", text))
            and int(text.replace(".", "")) < 2 ** 63)


def _differences(texts):
    """Cells whose converted bits differ from float()'s, and the mask of the
    cells the numpy route converted."""
    values, exact = digits._decimals(*_cells(texts))
    converted = reader._cell_values(*_cells(texts))
    expected = np.array([float(text.strip()) for text in texts])
    assert converted.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
    wrong = exact & (values.view(np.uint64) != expected.view(np.uint64))
    return [texts[i] for i in np.flatnonzero(wrong)], exact


def test_random_long_mantissas():
    """200,000 mantissas of 16-19 digits, leading digit 0 or 1, with 1-19
    fraction digits; the point moves left into leading zeros as needed."""
    rng = np.random.default_rng(2024)
    texts = []
    for digits, fraction in zip(rng.integers(16, 20, 200_000).tolist(),
                                rng.integers(1, 20, 200_000).tolist()):
        mantissa = str(rng.integers(2)) + "".join(map(str, rng.integers(0, 10, digits - 1)))
        mantissa = mantissa.rjust(fraction + 1, "0")
        texts.append(f"{mantissa[:-fraction]}.{mantissa[-fraction:]}")
    wrong, exact = _differences(texts)
    assert wrong == []
    assert exact.tolist() == list(map(_numpy_form, texts))
    assert np.count_nonzero(exact) > 30_000


def _near_midpoints(x, fraction, spread=2):
    """Decimals of ``fraction`` digits within ``spread`` units of the last
    place of the midpoint between double x and its upward neighbour."""
    midpoint = (Fraction(x) + Fraction(float(np.nextafter(x, 2.0)))) / 2
    center = round(midpoint * 10 ** fraction)
    texts = []
    for d in range(center - spread, center + spread + 1):
        whole, rest = divmod(d, 10 ** fraction)
        texts.append(f"{whole}.{rest:0{fraction}d}")
    return texts


def test_decimals_near_midpoints_of_doubles():
    """19-digit decimals within 2 units of the midpoint of two adjacent
    doubles, where one rounding error picks the wrong one: 0.xxx with 19
    fraction digits and 1.xxx with 18."""
    rng = np.random.default_rng(7)
    texts = []
    for x in rng.uniform(2.0 ** -10, 1.0, 30_000).tolist():
        texts += _near_midpoints(x, 19 if x < 1 else 18)
    for x in rng.uniform(1.0, 2.0, 10_000).tolist():
        texts += _near_midpoints(x, 18)
    wrong, exact = _differences(texts)
    assert wrong == []
    assert exact.tolist() == list(map(_numpy_form, texts))
    assert np.count_nonzero(exact) > 150_000


def test_decimals_just_below_powers_of_two():
    """Decimals near the midpoint of a power of two and the double below it,
    where the gap below is half an ulp of the power: a proof that took the
    gap above for it would keep the power of two."""
    texts = []
    for e in range(-10, 1):
        below = float(np.nextafter(2.0 ** e, 0.0))
        texts += _near_midpoints(below, 19 if e < 0 else 18, spread=300)
    wrong, exact = _differences(texts)
    assert wrong == []
    assert exact.all()


@pytest.mark.parametrize("k", [16, 17, 18, 19])
def test_integer_residual_at_the_ends_of_its_range(k):
    """d = value * 10**k just above 2**53, where the wide cells start, and
    just below 2**63 (or 2 * 10**k, the largest that starts with 0 or 1),
    with every fraction length the integer proof takes."""
    top = min(2 ** 63, 2 * 10 ** k)
    ds = [*range(2 ** 53 + 1, 2 ** 53 + 400), *range(top - 400, top)]
    texts = [f"{d // 10 ** k}.{d % 10 ** k:0{k}d}" for d in ds]
    wrong, exact = _differences(texts)
    assert wrong == []
    assert exact.all()


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-6])
def test_repr_of_random_doubles(scale):
    """repr, the shortest text that reads back the same double, of 100,000
    doubles in [0, scale]; repr's exponent forms take the fallback."""
    texts = [repr(x) for x in (np.random.default_rng(11).random(100_000) * scale).tolist()]
    wrong, exact = _differences(texts)
    assert wrong == []
    assert exact.tolist() == list(map(_numpy_form, texts))
    assert not any(exact[i] for i, text in enumerate(texts) if "e" in text)


def test_risk_text_corpus():
    """The odd cells the ingest corpus feeds both parsers: those float()
    rejects make _cell_values give None, the rest read as float() reads."""
    for text in RISK_TEXT:
        try:
            expected = float(text.strip())
        except ValueError:
            assert reader._cell_values(*_cells(["0.5", text])) is None, text
            continue
        values = reader._cell_values(*_cells(["0.5", text]))
        assert values[1:].view(np.uint64).tolist() == [np.float64(expected).view(np.uint64)], text


@pytest.mark.parametrize("delimiter", [",", "0", "1", "."])
def test_short_cells(delimiter):
    """Integers and points without a fraction: 0, 1, 0. and 1. take the
    numpy route, 2, 01 and 10 take float(), and an empty cell, whose one
    byte is its separator, is not a number, whatever that separator is."""
    texts = ["0", "1", "0.", "1.", "2", "01", "10", "1.5", "0", "1"]
    wrong, exact = _differences(texts)
    assert wrong == []
    assert exact.tolist() == list(map(_numpy_form, texts))
    assert exact.tolist() == [True] * 4 + [False] * 3 + [True] * 3
    data = digits._PAD + delimiter.join(["0.5", "", "1"]).encode() + b"\n"
    starts, ends = len(digits._PAD) + np.array([[0, 4, 5], [3, 4, 6]])
    assert digits._decimals(data, starts, ends)[1].tolist() == [True, False, True]
    assert reader._cell_values(data, starts, ends) is None


def test_fallback_when_the_proof_rejects_every_cell(monkeypatch):
    """With _settled refusing every value, every cell above 2**53 goes
    through float(), and the values do not change."""
    texts = [repr(x) for x in np.random.default_rng(13).random(20_000).tolist()]
    data, starts, ends = _cells(texts)
    before = reader._cell_values(data, starts, ends)
    monkeypatch.setattr(digits, "_settled", lambda c, residual, ten: np.zeros(c.shape, bool))
    values, exact = digits._decimals(data, starts, ends)
    wide = np.array([_numpy_form(t) and int(t.replace(".", "")) > 2 ** 53 for t in texts])
    assert not (exact & wide).any() and np.count_nonzero(wide) > 5_000
    after = reader._cell_values(data, starts, ends)
    assert after.view(np.uint64).tolist() == before.view(np.uint64).tolist()
    assert after.tolist() == [float(t) for t in texts]


@st.composite
def decimal_texts(draw):
    """A digit, '.', and 1-19 digits, often 0 or 1 before the point, often
    near a midpoint of two doubles, now and then another form."""
    kind = draw(st.integers(0, 9))
    if kind < 5:
        lead = draw(st.sampled_from("0001123456789"))
        return lead + "." + draw(st.text("0123456789", min_size=1, max_size=19))
    if kind < 8:
        x = draw(st.floats(2.0 ** -10, 1.9999999999999998))
        fraction = 19 if x < 1 else 18
        return draw(st.sampled_from(_near_midpoints(x, fraction)))
    value = draw(st.floats(0.0, 2.0))
    return draw(st.sampled_from([repr(value), f"{value:.17g}", f"{value:.20f}",
                                 f"{value:.3f}", f" {value!r}", f"{value:.6e}"]))


@CONVERTER
@given(texts=st.lists(decimal_texts(), min_size=1, max_size=40))
def test_converter_matches_float(texts):
    wrong, _ = _differences(texts)
    assert wrong == []
