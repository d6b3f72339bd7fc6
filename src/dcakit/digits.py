"""Exact conversion between decimal text and float64, in numpy.

``_decimals`` reads cells written as one digit, '.', and 1-19 digits
into the doubles ``float`` gives, for the input parser, and
``_float_cells`` prints doubles as ``format(v, ".17g")`` does, for the
CSV writer. Both compute in exact integer and Dekker arithmetic and prove
each result: ``_decimals`` leaves a cell it cannot prove to its caller,
and ``_float_cells`` sends a value it does not lay out through ``format``.
"""

from __future__ import annotations

import numpy as np

# Every integer constant is uint64: numpy turns uint64 mixed with int64
# into float64.
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
_PAD = b"0" * 24  # bytes before a buffer's first cell, so that its last 24 can be read
_SPLITTER = float((1 << 27) + 1)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split: a = high + low exactly, each with at most 26 significant bits."""
    scaled = a * _SPLITTER
    high = scaled - (scaled - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _split(_POW10)


def _two_product(c: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c * 10**k as product + error, both doubles, exactly (Dekker's
    two-product), for k <= 22 and c * 10**k far from overflow and underflow."""
    ten_high, ten_low = _POW10_HIGH[k], _POW10_LOW[k]
    product = c * _POW10[k]
    c_high, c_low = _split(c)
    return product, (((c_high * ten_high - product) + c_high * ten_low + c_low * ten_high)
                     + c_low * ten_low)


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
