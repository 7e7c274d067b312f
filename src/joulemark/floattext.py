"""Float64 to the exact text of its ``repr``, for whole arrays at a time.

``repr`` prints the shortest decimal that reads back as the float, the one
closest to it where several are as short.  This module computes those digits
for every finite normal value of an array at once with Schubfach (Giulietti,
"The Schubfach way to render doubles", 2020), which needs only fixed-width
integer arithmetic: 64x64-bit products built from 32-bit halves.  Zeros are
written directly.  Non-finite values and subnormals go through ``repr``
itself; Schubfach as published keeps at least two digits on subnormals, and
prints 4.9e-324 where ``repr`` prints 5e-324.

The text of n numbers is a (WIDTH, n) uint8 matrix, a column per number and
a slot per character, 0 where the number leaves a slot out; the non-zero
bytes of a column, in order, are its text.  The slots are: a sign;
the ``0.`` and zeros of fixed notation below 1; the digits before the
decimal point; the point; the digits after it; and an exponent ``e±XX[X]``.
``repr`` uses fixed notation for decimal exponents -4 to 15 and exponent
notation, one digit before the point, otherwise.
"""

from __future__ import annotations

import numpy as np

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

_POW10 = 10 ** np.arange(_DIGITS + 1, dtype=np.uint64)
_SLOTS = np.arange(_DIGITS, dtype=np.uint8)[:, None]


def _texts(texts: list[str]) -> np.ndarray:
    """The bytes of each text as a column, padded with 0."""
    width = max(map(len, texts))
    padded = b"".join(text.encode().ljust(width, b"\0") for text in texts)
    return np.frombuffer(padded, dtype=np.uint8).reshape(len(texts), width).T.copy()


# "", "0.", "0.0", ... for decimal exponents 0, -1, -2, ... in fixed notation
_LEADS = _texts(["", "0.", "0.0", "0.00", "0.000"])
# "e-324" to "e+308", then "" for fixed notation
_EXP_MIN, _EXP_MAX = -324, 308
_EXPONENTS = _texts([f"e{x:+03d}" for x in range(_EXP_MIN, _EXP_MAX + 1)] + [""])


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
    normal float64 whose bits (as uint64) are ``bits``, sign aside.  f has
    at most 17 digits and may end in zeros.  Lanes of other values hold
    meaningless numbers."""
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
    return f, k


def decimals_into(text: np.ndarray, neg: np.ndarray, f: np.ndarray, e: np.ndarray) -> None:
    """Lay out the text of each (-1)**neg * f * 10**e, f below 10**17, as
    ``repr`` writes a float: column i of the (WIDTH, n) uint8 ``text`` gets
    the characters of number i in order, and 0 in the slots it leaves out.
    Trailing zeros of f are dropped; f == 0 is ``0.0``."""
    f = np.asarray(f, dtype=np.uint64)
    n = np.searchsorted(_POW10, f, side="right")  # digits of f, 0 for f == 0
    exp10 = np.where(f == 0, 0, e + n - 1)
    fixed = (exp10 >= -4) & (exp10 < 16)

    # row j holds digit j of f, the first in row 0 and zeros after the
    # last; only the rows up to the longest f are worked out
    width = int(n.max(initial=1))
    digits = np.zeros((_DIGITS, len(f)), dtype=np.uint8)
    split = max(width - 9, 0)  # nine digits fit a uint32
    hi, lo = np.divmod(f * _POW10[width - n], _POW10[9])
    for part, rows in ((hi, range(split)), (lo, range(split, width))):
        part = part.astype(np.uint32)
        for row in reversed(rows):
            quotient = part // 10
            digits[row] = part - quotient * 10
            part = quotient
    # the last significant digit, 0 for f == 0
    last = ((digits[:width] != 0) * _SLOTS[:width]).max(axis=0, initial=0)
    digits += ord("0")

    # digits 0 to `before` go before the point, and the digits after it up
    # to `after`; fixed notation keeps the zeros up to the units digit and
    # one after the point, and has no point below 1
    whole = fixed & (exp10 >= 0)
    units = np.clip(exp10, 0, _DIGITS).astype(np.uint8)
    before = np.where(whole, units, np.where(fixed, last, 0))
    after = np.where(whole, np.maximum(last, units + 1), np.where(fixed, before, last))
    np.multiply(digits, _SLOTS <= before, out=text[_BEFORE:_POINT])
    text[_POINT] = (after > before) * ord(".")
    np.multiply(digits, (_SLOTS > before) & (_SLOTS <= after), out=text[_AFTER:_EXPONENT])

    text[0] = neg * ord("-")
    lead = np.where(fixed & (exp10 < 0), -exp10, 0)
    np.take(_LEADS, lead, axis=1, out=text[_LEAD:_BEFORE], mode="clip")
    exponent = np.where(fixed, _EXP_MAX + 1, exp10) - _EXP_MIN
    np.take(_EXPONENTS, exponent, axis=1, out=text[_EXPONENT:], mode="clip")


def floats_into(text: np.ndarray, values: np.ndarray) -> None:
    """Lay out ``repr(v)`` of each float64 v of ``values`` as
    :func:`decimals_into` does."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    f, k = _shortest(bits)
    bq = bits >> _T_BITS & 0x7FF
    other = (bq == 0) | (bq == 0x7FF)
    f[other] = 0
    decimals_into(text, bits >> 63 != 0, f, k)
    for i in np.flatnonzero(other & (bits << 1 != 0)).tolist():
        chars = np.frombuffer(repr(float(values[i])).encode(), dtype=np.uint8)
        text[:, i] = 0
        text[: len(chars), i] = chars
