"""Numbers and constant texts as text rows, and text rows written out: the
one text layout of every table the package writes.

The text of n items is an (n, w) uint8 matrix of text rows, one row per item
and a slot per character, 0 in each slot a text leaves out; the non-zero
bytes of a row are its text.  :func:`write_rows` places matrices side by
side as a block of lines and writes the block's non-zero bytes at once.
:func:`text_rows` lays out constant texts, :func:`int_rows` ``str`` of
integers, :func:`time_rows` ``repr(i / rate_hz)`` of sample indices, and
:func:`value_rows` ``repr`` of floats: the shortest decimal that reads back
as the float, the one closest to it where several are as short.  Its digits
are computed for every finite normal value at once with Schubfach
(Giulietti, "The Schubfach way to render doubles", 2020), which needs only
fixed-width integer arithmetic: 64x64-bit products built from 32-bit
halves.  Zeros are written directly.  Non-finite values and subnormals go
through ``repr`` itself; Schubfach as published keeps at least two digits on
subnormals, and prints 4.9e-324 where ``repr`` prints 5e-324.  So do the
distinct values of a block with few runs, each once.  Integers and floats
alike are laid out once per run of equal values, their digits by one loop.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, TextIO

import numpy as np


def write_rows(f: TextIO, n: int, groups: Iterable[tuple[slice | np.ndarray, Sequence[np.ndarray | bytes]]]) -> None:
    """Write a block of n rows of ASCII text.

    Each group ``(rows, parts)`` lays out the block's rows that ``rows``
    indexes as its parts side by side: a part is a matrix of text rows, one
    per row of the group, or the bytes that every row of the group shares.
    The rows are placed in one (n, w) uint8 matrix, and its non-zero bytes,
    row after row, are the block's text, written at once.
    """
    groups = [
        (rows, [np.frombuffer(part, dtype=np.uint8) if isinstance(part, bytes) else part for part in parts])
        for rows, parts in groups
    ]
    width = max(sum(part.shape[-1] for part in parts) for _, parts in groups)
    block = bytearray(n * width)  # 0 in every slot that no part fills
    text = np.frombuffer(block, dtype=np.uint8).reshape(n, width)
    for rows, parts in groups:
        at = 0
        for part in parts:
            text[rows, at : at + part.shape[-1]] = part
            at += part.shape[-1]
    # the matrix goes before its text is decoded: two copies of the block
    # at most are held at once
    data = block.translate(None, b"\0")
    del text, block
    f.write(data.decode())


def text_rows(texts: Sequence[str]) -> np.ndarray:
    """The text rows of a few texts, each padded with 0 to the longest."""
    encoded = [text.encode() for text in texts]
    width = max(map(len, encoded))
    padded = b"".join(text.ljust(width, b"\0") for text in encoded)
    return np.frombuffer(padded, dtype=np.uint8).reshape(len(texts), width).copy()


_POW10 = 10 ** np.arange(20, dtype=np.uint64)  # 1 to 10**19, all a uint64 holds


def int_rows(values: np.ndarray) -> np.ndarray:
    """``str`` of each integer of an array that int64 holds, as text rows: a
    sign slot where some value is negative, then the digits flush right;
    each run of equal values laid out once and its row repeated."""
    values = np.asarray(values, dtype=np.int64)
    heads, counts = _runs(values)
    values = values[heads]
    neg = values < 0
    # the magnitudes as uint64, whose negation wraps: -2**63 has 2**63
    magnitude = values.view(np.uint64)
    np.negative(magnitude, out=magnitude, where=neg)
    digits = np.maximum(np.searchsorted(_POW10, magnitude, side="right"), 1)
    width = int(digits.max(initial=1))
    sign = int(neg.any())
    text = np.empty((sign + width, len(values)), dtype=np.uint8)
    _digits_into(text[sign:], magnitude)
    text[sign:] += ord("0")
    text[sign:][np.arange(width)[:, None] < width - digits] = 0  # the zeros ahead of the digits
    if sign:
        text[0] = neg * ord("-")
    return np.repeat(text.T, counts, axis=0)


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first index and the length of each run of equal keys."""
    starts = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    heads = np.flatnonzero(starts)
    return heads, np.diff(heads, append=len(keys))


def _digits_into(out: np.ndarray, f: np.ndarray) -> None:
    """Write the ``len(out)`` digits of each uint64 of ``f`` below
    ``10**len(out)``, leading zeros too, as numbers into the rows of ``out``,
    the first in row 0: nine digits, which a uint32 holds, at a time."""
    for end in range(len(out), 0, -9):
        f, part = np.divmod(f, _POW10[9]) if end > 9 else (0, f)
        part = part.astype(np.uint32)
        for row in range(end - 1, max(end - 9, 0) - 1, -1):
            quotient = part // 10
            out[row] = part - quotient * 10
            part = quotient


# --- repr of float64 --------------------------------------------------------
#
# The kernel lays out the text of n floats column by column, as a (WIDTH, n)
# uint8 matrix, the transpose of their text rows.  The slots are: a sign;
# the "0." and zeros of fixed notation below 1; the digits before the
# decimal point; the point; the digits after it; and an exponent "e±XX[X]".
# repr uses fixed notation for decimal exponents -4 to 15 and exponent
# notation, one digit before the point, otherwise.

_DIGITS = 17  # significant digits of a float64's shortest decimal, at most
_LEAD = 1  # first slot of "0.000"
_BEFORE = _LEAD + 5  # first slot of the digits before the point
_POINT = _BEFORE + _DIGITS
_AFTER = _POINT + 1  # first slot of the digits after the point
_EXPONENT = _AFTER + _DIGITS  # first slot of "e±XXX"
WIDTH = _EXPONENT + 5

# float64 layout: the significand c = 2**52 + t and binary exponent q of a
# normal value c * 2**q, from Q_MIN in the smallest normal binade to Q_MAX
_T_BITS = 52
_T_MASK = (1 << _T_BITS) - 1
_C_MIN = 1 << _T_BITS
_Q_MIN, _Q_MAX = -1074, 971
_M32 = (1 << 32) - 1
_M63 = (1 << 63) - 1


def _flog10pow2(e):
    """floor(log10(2**e)), exact for |e| <= 5,456,721."""
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e):
    """floor(log10(3/4 * 2**e)), exact for |e| <= 5,456,721."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(log2(10**e)), exact for |e| <= 1,838,394."""
    return (e * 913_124_641_741) >> 38


# g(k) = floor(10**-k * 2**-r) + 1 with r = flog2pow10(-k) - 125, so that
# 2**125 <= g < 2**126, for every decimal exponent k a normal value needs;
# split as g1 * 2**63 + g0.
K_MIN, K_MAX = _flog10pow2(_Q_MIN), _flog10pow2(_Q_MAX)


def _g(k: int) -> int:
    r = _flog2pow10(-k) - 125
    return (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1


G = [_g(k) for k in range(K_MIN, K_MAX + 1)]
_G1 = np.array([g >> 63 for g in G], dtype=np.uint64)
_G0 = np.array([g & _M63 for g in G], dtype=np.uint64)

_SLOTS = np.arange(_DIGITS, dtype=np.uint8)[:, None]
# "", "0.", "0.0", ... for decimal exponents 0, -1, -2, ... in fixed notation
_LEADS = text_rows(["", "0.", "0.0", "0.00", "0.000"]).T
# "e-324" to "e+308", then "" for fixed notation
_EXP_MIN, _EXP_MAX = -324, 308
_EXPONENTS = text_rows([f"e{x:+03d}" for x in range(_EXP_MIN, _EXP_MAX + 1)] + [""]).T


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of each 128-bit product a * b of uint64 arrays."""
    a0, a1 = a & _M32, a >> 32
    b0, b1 = b & _M32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _rop(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """floor(cp * g / 2**127), rounded to odd: its lowest bit is set when
    the quotient is not exact."""
    x1 = _mulhi(g0, cp)
    y0 = g1 * cp
    y1 = _mulhi(g1, cp)
    z = (y0 >> 1) + x1
    return y1 + (z >> 63) | ((z & _M63) + _M63) >> 63


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k) such that f * 10**k is the text ``repr`` gives each finite
    normal float64 whose bits (as uint64) are ``bits``, sign aside, and
    f == 0 for zeros, subnormals and non-finite values.  f has at most 17
    digits and may end in zeros."""
    t = bits & _T_MASK
    bq = bits >> _T_BITS & 0x7FF
    q = bq.astype(np.int64) + (_Q_MIN - 1)
    c = t | _C_MIN
    # the rounding interval of 2**52 * 2**q is narrower below than above,
    # except in the lowest binade, whose lower neighbours are as far apart
    irregular = (t == 0) & (bq > 1)
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g1, g0 = _G1[k - K_MIN], _G0[k - K_MIN]
    # 4 * v * 10**-k and its interval's ends, all rounded to odd; the ends
    # belong to the interval when c is even
    cb = c << 2
    vb = _rop(g1, g0, cb << h)
    vbl = _rop(g1, g0, (cb - 2 + irregular) << h)
    vbr = _rop(g1, g0, (cb + 2) << h)
    out = c & 1
    s = vb >> 2
    # s >= 10**15 for a normal value, so there is a one-digit-shorter
    # candidate pair: u' = 10 * (s // 10) and w' = u' + 10
    sp10 = s // 10 * 10
    upin = vbl + out <= sp10 << 2
    wpin = (sp10 + 10 << 2) + out <= vbr
    # otherwise s or s + 1: the one inside, or the closer, even on a tie
    uin = vbl + out <= s << 2
    win = (s + 1 << 2) + out <= vbr
    mid = 2 * s + 1 << 1
    closer = (vb < mid) | (vb == mid) & (s & 1 == 0)
    shorter = upin != wpin
    lower = np.where(uin != win, uin, closer)
    f = np.where(shorter, np.where(upin, sp10, sp10 + 10), np.where(lower, s, s + 1))
    f[(bq == 0) | (bq == 0x7FF)] = 0
    return f, k


# A block of few runs holds few distinct values where it is a constant load
# or a trigger's two levels; it lays out each distinct value once, by repr,
# and gathers its rows.  The kernel costs about 0.24 ms a call at any size;
# np.unique of 1,024 runs costs 0.03 ms, wasted where they hold more than
# 64 values, and repr about 0.7 us a value, so 64 values cost a fifth of a
# kernel call (2-core Xeon, Python 3.11).  Noise blocks hold 8,000 to 13,000
# runs in 16,384 rows: they keep the kernel and skip the sort.
_FEW_RUNS = 1024
_FEW_VALUES = 64


def value_rows(values: np.ndarray) -> np.ndarray:
    """``repr`` of each float64 of ``values`` as text rows with only the
    slots some value uses, each run of equal values laid out once and its
    row repeated: constant loads and trigger levels hold one value over many
    consecutive rows, and a block of few runs lays out each of its distinct
    values once.  Values are told apart by their bits, so that -0.0 and 0.0
    keep their own text."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    heads, counts = _runs(values.view(np.int64))
    bits = values.view(np.uint64)[heads]
    rows, text = slice(None), None  # the text row of each run, and the texts
    if len(bits) <= _FEW_RUNS:
        distinct, inverse = np.unique(bits, return_inverse=True)
        if len(distinct) <= _FEW_VALUES:  # every text by repr
            bits, rows = distinct, inverse
            text, by_repr = np.zeros((WIDTH, len(bits)), dtype=np.uint8), np.arange(len(bits))
    if text is None:
        text, by_repr = _kernel_text(bits)
    if len(by_repr):
        chars = text_rows([repr(x) for x in bits[by_repr].view(np.float64).tolist()]).T
        text[:, by_repr] = 0
        text[: len(chars), by_repr] = chars
    return np.repeat(text[text.any(axis=1)].T[rows], counts, axis=0)


def _kernel_text(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (WIDTH, n) text of the floats whose bits (as uint64) are
    ``bits``, and the indices of the subnormal and non-finite ones, whose
    text is left for ``repr``."""
    f, k = _shortest(bits)
    n = np.searchsorted(_POW10, f, side="right")  # digits of f, 0 for f == 0
    exp10 = np.where(f == 0, 0, k + n - 1)
    fixed = (exp10 >= -4) & (exp10 < 16)

    # row j holds digit j of f, the first in row 0 and zeros after the
    # last; only the rows up to the longest f are worked out
    width = int(n.max(initial=1))
    digits = np.zeros((_DIGITS, len(f)), dtype=np.uint8)
    _digits_into(digits[:width], f * _POW10[width - n])
    # the last significant digit, 0 for f == 0
    last = ((digits[:width] != 0) * _SLOTS[:width]).max(axis=0, initial=0)
    digits += ord("0")

    # column i of text gets the characters of value i in order: digits 0 to
    # `before` go before the point, and the digits after it up to `after`;
    # fixed notation keeps the zeros up to the units digit and one after
    # the point, and has no point below 1
    text = np.empty((WIDTH, len(f)), dtype=np.uint8)
    whole = fixed & (exp10 >= 0)
    units = np.clip(exp10, 0, _DIGITS).astype(np.uint8)
    before = np.where(whole, units, np.where(fixed, last, 0))
    after = np.where(whole, np.maximum(last, units + 1), np.where(fixed, before, last))
    np.multiply(digits, _SLOTS <= before, out=text[_BEFORE:_POINT])
    text[_POINT] = (after > before) * ord(".")
    np.multiply(digits, (_SLOTS > before) & (_SLOTS <= after), out=text[_AFTER:_EXPONENT])

    text[0] = (bits >> 63) * ord("-")
    lead = np.where(fixed & (exp10 < 0), -exp10, 0)
    np.take(_LEADS, lead, axis=1, out=text[_LEAD:_BEFORE], mode="clip")
    exponent = np.where(fixed, _EXP_MAX + 1, exp10) - _EXP_MIN
    np.take(_EXPONENTS, exponent, axis=1, out=text[_EXPONENT:], mode="clip")
    return text, np.flatnonzero((f == 0) & (bits << 1 != 0))


# --- repr of sample times -----------------------------------------------------


def _decimal_step(rate_hz: float) -> tuple[int, int] | None:
    """(m, k) with ``1 / rate_hz == m / 10**k`` exactly, for the smallest k
    in 1..18, or None when there is none (rates such as 44100 or 3.3)."""
    period = 1 / Fraction(rate_hz)
    for k in range(1, 19):
        scaled = period * 10**k
        if scaled.denominator == 1:
            return scaled.numerator, k
    return None


def fraction_table(rate_hz: float, rows: int, max_bytes: int) -> tuple[int, int, np.ndarray] | None:
    """(m, k, table) for writing ``rows`` times at ``rate_hz``, where
    ``1 / rate_hz == m / 10**k`` (:func:`_decimal_step`): row r of the
    (P, k + 1) text rows ``table`` is the text after the whole seconds of
    the decimal ``i * m / 10**k`` for every i with ``i % P == r``, a point
    and its digits up to the last non-zero one (``.0`` for none).  P is
    ``10**k / gcd(m, 10**k)``: 40,000 at 40 kHz.  None where the rate has no
    such step, where ``m >= 10**15`` (only row 0 could take its time from
    the table, and ``i * m`` may overflow), or where the table would have
    more rows than there are times to write, or more than ``max_bytes``
    bytes: some rates have periods of 10**18 rows."""
    step = _decimal_step(rate_hz)
    if step is None or step[0] >= 10**15:
        return None
    m, k = step
    g = math.gcd(m, 10**k)
    period = 10**k // g
    if period > rows or period * (k + 1) > max_bytes:
        return None
    # (r * m) % 10**k, which is g times (r * (m / g)) % period, without overflow
    fraction = g * (np.arange(period, dtype=np.int64) * (m // g % period) % period)
    digits = int_rows(fraction + 10**k)[:, 1:]  # k digits, the zeros ahead of them too
    last = np.max((digits != ord("0")) * np.arange(1, k + 1), axis=1, initial=1)
    table = np.concatenate([np.full((period, 1), ord("."), dtype=np.uint8), digits], axis=1)
    table[np.arange(k + 1) > last[:, None]] = 0
    return m, k, table


def time_rows(rows: Sequence[int], rate_hz: float, fractions: tuple[int, int, np.ndarray] | None) -> np.ndarray:
    """``repr(i / rate_hz)`` for each of the increasing sample indices i in
    ``rows``, a range or an int array, as text rows.

    With ``fractions`` (m, k, table) from :func:`fraction_table`,
    ``i / rate_hz`` is the float nearest the decimal ``i * m / 10**k``.
    While ``i * m < 10**15`` that decimal has at most 15 significant digits,
    and no two such decimals round to the same float, so it is the shortest
    text that reads back as the float: what ``repr`` prints.  From 1e-4 s on
    ``repr`` prints it in fixed notation, the whole seconds and then a
    fraction that repeats every P rows.  So every row is laid out as its
    whole seconds and the table's row ``i % P``, and then the rows below
    1e-4 s but row 0, and those from ``i * m >= 10**15`` on (where ``i * m``
    may overflow), are laid out again from the float.
    """
    if isinstance(rows, range):  # numpy would iterate a range in Python
        rows = np.arange(rows.start, rows.stop, rows.step, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    with np.errstate(over="ignore"):  # a time beyond the float range is inf, as in Python
        times = rows / rate_hz
    if fractions is None:
        return value_rows(times)
    m, k, table = fractions
    # rows[first:low] are those from row 1 below 1e-4 s (i * m * 10**4 <
    # 10**k), and rows[high:] those from i * m >= 10**15 on
    first, low, high = np.searchsorted(rows, [1, -(-(10**k) // (m * 10**4)), -(-(10**15) // m)]).tolist()
    text = np.concatenate([int_rows(rows * m // 10**k), np.take(table, rows % len(table), axis=0)], axis=1)
    redo = np.r_[first:low, high : len(rows)]
    if len(redo):
        floats = value_rows(times[redo])
        text = np.pad(text, ((0, 0), (0, max(0, floats.shape[1] - text.shape[1]))))
        text[redo] = 0
        text[redo, : floats.shape[1]] = floats
    return text
