"""Rows of floats as text, with exactly the bytes of "%.17g" per value.

`format_rows(block, sep)` writes each row of a 2-D float array as its
values in "%.17g" joined by `sep`, ends each row with "\\n", and returns
the bytes.  It works on whole blocks in numpy; CPython's correctly rounded
`dtoa` runs only for the few values the fast path cannot decide (the idea
of Grisu: an exact fast path with a fallback; Loitsch, "Printing
floating-point numbers quickly and accurately", PLDI 2010).

Digits.  For a positive normal x take k = floor(log10 x) and form
y = x * 10**(16 - k) in double-double arithmetic, from `np.frexp(x)` and a
table of 10**q as (hi + lo) * 2**E; the error of y is below 1e-14.  Where
floor(y) lies in [1e16, 1e17) and the fractional part of y lies farther
than `_TIE_MARGIN` from 1/2, D = round(y) is the 17-digit significand that
"%.17g" prints (D = 1e17 becomes 1e16 at k + 1).  log10 can be one off
near a power of ten, so a floor outside the range is redone once at
k -/+ 1.  Every other value (near-ties, a floor still out of range,
subnormals, -0.0, negatives, inf and nan) is formatted by "%.17g" itself
and spliced back in.

Assembly.  Each value fills a fixed template of `_WIDTH` bytes: "0.000",
its 17 digits each followed by ".", then "e", the exponent's sign and
three exponent digits, then the separator.  A mask row looked up by
(notation kind, significant-digit count) keeps the bytes "%.17g" prints,
and one `np.compress` joins the kept bytes of the whole block.

The power-of-ten and assembly tables are built on first use, not at import.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# q = 16 - k for the decimal exponent k of every normal double, with the
# +-1 of a redo: k lies in [-308, 308]
_Q_MIN, _Q_MAX = -300, 330
# fractional parts of y this close to 1/2 take the fallback; the error of y
# is below 1e-14, so the margin leaves a factor of about 1e5
_TIE_MARGIN = 2.0 ** -30
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into halves
_LOW, _HIGH = 10 ** 16, 10 ** 17

# template: "0.000" at 0-4, digit i at 5 + 2i with its "." at 6 + 2i,
# "e" at 39, the sign at 40, three exponent digits at 41-43, separator at 44
_DIGIT0 = 5
_EXP = 39
_SEP = 44
_WIDTH = 45
# notation kinds: k + 4 for fixed notation, k in [-4, 16]; then scientific
# with a two-digit and with a three-digit exponent
_SCI2, _SCI3 = 21, 22
# decimal exponents the assembly tables cover, every k that _digits returns
_K_MIN, _K_MAX = -330, 330


@functools.cache
def _pow10_table():
    """Arrays (hi, high half of hi, low half of hi, lo, E) over q in
    [_Q_MIN, _Q_MAX], with 10**q = (hi + lo) * 2**E to about 2**-106."""
    hi, lo, exp = [], [], []
    for q in range(_Q_MIN, _Q_MAX + 1):
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        # E with 2**(E - 1) <= 10**q < 2**E
        e = num.bit_length() - den.bit_length()
        if (num >= den << e) if e >= 0 else (num << -e >= den):
            e += 1
        # M = 10**q * 2**(128 - E) rounded to an integer, in [2**127, 2**128]
        shift = 128 - e
        a, b = (num << shift, den) if shift >= 0 else (num, den << -shift)
        m = (2 * a + b) // (2 * b)
        h = float(m)  # int -> float rounds correctly
        hi.append(math.ldexp(h, -128))
        lo.append(math.ldexp(float(m - int(h)), -128))
        exp.append(e)
    hi = np.array(hi)
    c = _SPLIT * hi
    hh = c - (c - hi)
    return hi, hh, hi - hh, np.array(lo), np.array(exp, dtype=np.int32)


def _scaled(m, e, q, table):
    """floor(y) as int64 and the fractional part of y, y = m * 2**e * 10**q
    in double-double arithmetic (m in [0.5, 1) from np.frexp)."""
    i = q - _Q_MIN
    hi, hh, hl, lo, exp = (column[i] for column in table)
    p = m * hi
    c = _SPLIT * m
    mh = c - (c - m)
    ml = m - mh
    err = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl  # p + err = m * hi exactly
    t = err + m * lo
    s = p + t
    t = t - (s - p)  # s + t = p + t, normalised
    sh = e + exp
    y_hi = np.ldexp(s, sh)
    y_lo = np.ldexp(t, sh)
    f = np.floor(y_hi)
    r = (y_hi - f) + y_lo
    g = np.floor(r)
    return f.astype(np.int64) + g.astype(np.int64), r - g


def _digits(x: np.ndarray):
    """(D, k, slow) for a 1-D float array: "%.17g" prints D * 10**(k - 16)
    with D in [1e16, 1e17), or "0" for D = 0 (positive zero); `slow`
    marks the values that need the fallback, where D and k mean nothing."""
    tiny = np.finfo(np.float64).tiny
    big = np.finfo(np.float64).max
    fast = (x >= tiny) & (x <= big)
    zero = (x == 0.0) & ~np.signbit(x)
    xs = np.where(fast, x, 1.0)
    k = np.floor(np.log10(xs)).astype(np.int64)
    m, e = np.frexp(xs)
    table = _pow10_table()
    fl, frac = _scaled(m, e, 16 - k, table)
    redo = np.flatnonzero((fl < _LOW) | (fl >= _HIGH))
    if redo.size:
        k[redo] += np.where(fl[redo] < _LOW, -1, 1)
        fl[redo], frac[redo] = _scaled(m[redo], e[redo], 16 - k[redo], table)
    slow = ~(fast | zero) | (fl < _LOW) | (fl >= _HIGH) | (np.abs(frac - 0.5) < _TIE_MARGIN)
    D = fl + (frac > 0.5)
    carry = D == _HIGH
    D = np.where(carry, _LOW, np.where(zero, 0, D))
    k = np.where(zero, 0, k + carry)
    return D, k, slow


@functools.cache
def _assembly_tables():
    """The lookup tables of the assembly, as (pairs, zeros, exponents, kinds,
    masks): for each 4-digit group g in 0000-9999 its template bytes
    "d.d.d.d." (pairs[g]) and its count of trailing zero digits, 4 for 0000
    (zeros[g]); for each decimal exponent k the bytes "e", sign and three
    digits (exponents[k - _K_MIN]) and its notation kind (kinds[k - _K_MIN]);
    and for each kind and s significant digits, 1 to 17, the template bytes
    "%.17g" prints (masks[kind * 18 + s])."""
    g = np.arange(10000)
    digits = (g[:, None] // np.array([1000, 100, 10, 1])) % 10
    pairs = np.full((10000, 8), ord("."), dtype=np.uint8)
    pairs[:, ::2] = digits + ord("0")
    zeros = np.cumprod(digits[:, ::-1] == 0, axis=1).sum(axis=1)
    ks = range(_K_MIN, _K_MAX + 1)
    exponents = np.frombuffer("".join(f"e{k:+04d}" for k in ks).encode(), dtype=np.uint8)
    kinds = np.array([k + 4 if -4 <= k <= 16 else _SCI2 if abs(k) < 100 else _SCI3
                      for k in ks])
    keep = np.zeros((_SCI3 + 1, 18, _WIDTH), dtype=bool)
    keep[..., _SEP] = True
    digit = slice(_DIGIT0, _EXP, 2)
    for s in range(1, 18):
        for k in range(-4, 17):
            row = keep[k + 4, s]
            if k < 0:
                row[:1 - k] = True  # "0." and -k - 1 zeros
                row[digit][:s] = True
            else:
                row[digit][:max(k + 1, s)] = True
                row[_DIGIT0 + 2 * k + 1] = s > k + 1
        for kind, width in ((_SCI2, 2), (_SCI3, 3)):
            row = keep[kind, s]
            row[digit][:s] = True
            row[_DIGIT0 + 1] = s > 1
            row[_EXP:_EXP + 2] = True
            row[_SEP - width:_SEP] = True
    return pairs, zeros, exponents.reshape(-1, 5), kinds, keep.reshape(-1, _WIDTH)


def format_rows(block: np.ndarray, sep: str) -> bytes:
    """The rows of a 2-D float array, each value in "%.17g", joined by `sep`
    within a row and ended by "\\n"."""
    block = np.asarray(block, dtype=np.float64)
    rows, cols = block.shape
    x = block.ravel()
    D, k, slow = _digits(x)
    pairs, zeros, exponents, kinds, masks = _assembly_tables()
    src = np.empty((x.size, _WIDTH), dtype=np.uint8)
    src[:, :_DIGIT0] = np.frombuffer(b"0.000", dtype=np.uint8)
    # D = d0 * 10**16 + four 4-digit groups; s counts the digits up to the
    # last nonzero one (one for zero)
    q = D
    s = np.full(x.size, 17)
    done = np.zeros(x.size, dtype=bool)
    for at in range(_EXP - 8, _DIGIT0, -8):
        q, g = np.divmod(q, 10000)
        src[:, at:at + 8] = np.take(pairs, g, axis=0)
        s -= np.where(done, 0, np.take(zeros, g))
        done |= g != 0
    src[:, _DIGIT0] = q + ord("0")
    src[:, _DIGIT0 + 1] = ord(".")
    src[:, _EXP:_SEP] = np.take(exponents, k - _K_MIN, axis=0)
    src[:, _SEP] = ord(sep)
    src.reshape(rows, cols, _WIDTH)[:, -1, _SEP] = ord("\n")
    keep = np.take(masks, np.take(kinds, k - _K_MIN) * 18 + s, axis=0)
    for i in np.flatnonzero(slow):
        text = ("%.17g" % x[i]).encode()
        src[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        keep[i, :_SEP] = False
        keep[i, :len(text)] = True
    return np.compress(keep.ravel(), src.ravel()).tobytes()
