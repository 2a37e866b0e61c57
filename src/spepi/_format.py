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

Assembly.  Each value fills six 8-byte words: a pad, "0.000", its first
digit and "."; four words "d.d.d.d."; "e", sign, three exponent digits and
the separator.  Each word is one gather from a uint64 table built from
byte rows (so no byte order enters).  Mask words looked up by (notation
kind, significant-digit count) zero the bytes "%.17g" does not print, and
`bytes.translate` deletes them.  Work runs in place where numpy allows.

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

# template bytes: "0.000" at 1-5, digit i at 6 + 2i with its "." at 7 + 2i,
# "e" at 40, the sign at 41, exponent digits at 42-44, separator at 45, of 48
_DIGIT0 = 6
_EXP = 40
_SEP = 45
_SLICE = 1 << 16  # template bytes per call of bytes.translate
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


def _scaled(m, e, i, table):
    """floor(y) as int64 and the fractional part of y, y = m * 2**e * 10**q
    in double-double arithmetic (m in [0.5, 1) from np.frexp, i = q - _Q_MIN).
    It works in place on six float buffers and overwrites m and e."""
    hi, hh, hl, lo, exp = table
    p = m * np.take(hi, i)
    c = m * _SPLIT
    mh = c - (c - m)
    ml = np.subtract(m, mh, out=c)
    err = mh * np.take(hh, i)
    err -= p
    b = np.take(hl, i)
    err += np.multiply(mh, b, out=mh)
    err += np.multiply(ml, np.take(hh, i, out=mh), out=mh)  # hh again: no 7th buffer for ml * hh
    err += np.multiply(ml, b, out=b)  # p + err = m * hi exactly
    err += np.multiply(m, np.take(lo, i, out=b), out=m)  # t = err + m * lo
    s = np.add(p, err, out=b)
    err -= np.subtract(s, p, out=p)  # s + err = p + t, normalised
    e += np.take(exp, i)
    np.ldexp(s, e, out=s)
    np.ldexp(err, e, out=err)
    s -= np.floor(s, out=mh)
    s += err  # r = (y_hi - f) + y_lo, f = floor(y_hi) in mh
    s -= np.floor(s, out=err)
    fl = ml.view(np.int64)
    fl[...] = mh
    fl += err.astype(np.int8)
    return fl, s


def _digits(x: np.ndarray):
    """(D, k, slow) for a 1-D float array: "%.17g" prints D * 10**(k - 16)
    with D in [1e16, 1e17), or "0" for D = 0 (positive zero); `slow`
    marks the values that need the fallback, where D and k mean nothing."""
    tiny = np.finfo(np.float64).tiny
    big = np.finfo(np.float64).max
    fast = (x >= tiny) & (x <= big)
    zero = (x == 0.0) & ~np.signbit(x)
    m = np.where(fast, x, 1.0)
    k = np.floor(np.log10(m)).astype(np.int16)
    m, e = np.frexp(m, out=(m, None))
    table = _pow10_table()
    fl, frac = _scaled(m, e, np.subtract(16 - _Q_MIN, k, dtype=np.intp), table)
    redo = np.flatnonzero((fl < _LOW) | (fl >= _HIGH))
    if redo.size:  # normal values only: every other x was scaled as 1.0
        k[redo] += np.where(fl[redo] < _LOW, -1, 1)
        fl[redo], frac[redo] = _scaled(*np.frexp(x[redo]), 16 - _Q_MIN - k[redo], table)
    slow = ~(fast | zero) | (fl < _LOW) | (fl >= _HIGH) | (np.abs(frac - 0.5) < _TIE_MARGIN)
    D = fl + (frac > 0.5)
    carry = D == _HIGH
    D = np.where(carry, _LOW, np.where(zero, 0, D))
    k = np.where(zero, 0, k + carry)
    return D, k, slow


@functools.cache
def _assembly_tables():
    """The lookup tables of the assembly, as (leads, pairs, zeros, exponents,
    kinds, masks): word 0 for each first digit d (leads[d]); for each group g
    in 0000-9999 its word "d.d.d.d." and its count of trailing zero digits,
    4 for 0000 (pairs[g], zeros[g]); for each decimal exponent k word 5 cut to
    the bytes "%.17g" prints, separator zero, and 18 times its notation kind
    (exponents[k - _K_MIN], kinds[k - _K_MIN]); for each kind and s digits,
    1 to 17, words 0-4 of 0xff where "%.17g" prints (masks[:, kind * 18 + s])."""
    leads = np.frombuffer(b"".join(b"\0" b"0.000%c." % d for d in b"0123456789"), np.uint8)
    g = np.arange(10000)
    digits = (g[:, None] // np.array([1000, 100, 10, 1])) % 10
    pairs = np.full((10000, 8), ord("."), dtype=np.uint8)
    pairs[:, ::2] = digits + ord("0")
    zeros = np.cumprod(digits[:, ::-1] == 0, axis=1).sum(axis=1).astype(np.int8)
    ks = range(_K_MIN, _K_MAX + 1)
    kinds = np.array([k + 4 if -4 <= k <= 16 else _SCI2 if abs(k) < 100 else _SCI3
                      for k in ks])
    exponents = np.array([list(f"e{k:+04d}\0\0\0".encode()) for k in ks], dtype=np.uint8)
    exponents[kinds < _SCI2] = 0
    exponents[kinds == _SCI2, 2] = 0  # "e-05": two exponent digits
    keep = np.zeros((_SCI3 + 1, 18, _EXP), dtype=bool)
    digit = slice(_DIGIT0, _EXP, 2)
    for s in range(1, 18):
        for k in range(-4, 17):
            row = keep[k + 4, s]
            if k < 0:
                row[1:2 - k] = True  # "0." and -k - 1 zeros
                row[digit][:s] = True
            else:
                row[digit][:max(k + 1, s)] = True
                row[_DIGIT0 + 2 * k + 1] = s > k + 1
        for kind in (_SCI2, _SCI3):
            keep[kind, s, digit][:s] = True
            keep[kind, s, _DIGIT0 + 1] = s > 1
    masks = (keep * np.uint8(0xFF)).reshape(-1, _EXP).view(np.uint64)
    return (leads.view(np.uint64), pairs.view(np.uint64).ravel(), zeros,
            exponents.view(np.uint64).ravel(), kinds * 18, np.ascontiguousarray(masks.T))


def format_rows(block: np.ndarray, sep: str) -> bytes:
    """The rows of a 2-D float array, each value in "%.17g", joined by `sep`
    within a row and ended by "\\n"."""
    data = _templates(np.asarray(block, dtype=np.float64), sep)
    # translate first allocates as many bytes as it reads, so it reads
    # slices; the templates are freed before the join copies the kept bytes
    kept = [data[i:i + _SLICE].tobytes().translate(None, b"\0")
            for i in range(0, data.size, _SLICE)]
    del data
    return b"".join(kept)


def _templates(block: np.ndarray, sep: str) -> np.ndarray:
    """The bytes of the six words of each value, zero where "%.17g" prints
    nothing."""
    cols = block.shape[1]
    x = block.ravel()
    q, k, slow = _digits(x)
    leads, pairs, zeros, exponents, kinds, masks = _assembly_tables()
    words = np.empty((x.size, 6), dtype=np.uint64)
    # each gather fills one contiguous word, copied to its strided column;
    # "clip" keeps slow values, whose bytes are replaced below, in the tables
    word = np.empty(x.size, dtype=np.uint64)
    kk = np.subtract(k, _K_MIN, out=word.view(np.int64))
    separator = np.frombuffer(bytes(_SEP - _EXP) + sep.encode() + bytes(2), np.uint64)
    np.bitwise_or(np.take(exponents, kk, mode="clip"), separator, out=words[:, 5])
    # q = d0 * 10**16 + four 4-digit groups; s counts the digits up to the
    # last nonzero one (one for zero)
    s = np.full(x.size, 17, dtype=np.int8)
    run = np.ones(x.size, dtype=bool)
    r = np.empty_like(q)
    for j in range(4, 0, -1):
        q -= np.multiply(np.floor_divide(q, 10000, out=r), 10000, out=word.view(np.int64))
        words[:, j] = np.take(pairs, q, out=word, mode="clip")
        s -= np.take(zeros, q, mode="clip") * run
        run &= q == 0
        q, r = r, q
    words[:, 0] = np.take(leads, q, out=word, mode="clip")
    ks = np.take(kinds, np.subtract(k, _K_MIN, out=word.view(np.int64)), out=q, mode="clip")
    ks += s
    for j in range(5):
        words[:, j] &= np.take(masks[j], ks, out=word, mode="clip")
    data = words.view(np.uint8)
    data[cols - 1::cols, _SEP] = ord("\n")  # the last value of each row
    for i in np.flatnonzero(slow):
        data[i, :_SEP] = np.frombuffer(("%.17g" % x[i]).encode().ljust(_SEP, b"\0"), np.uint8)
    return data.ravel()
