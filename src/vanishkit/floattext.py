"""Byte-exact %.17g text of float64 values, a whole block at a time.

fmt is format(v, ".17g") for one value.  lines writes a 2-D block with the
same bytes from one numpy pass: _digits17 takes the 17 significant digits
of every value from an exact double-double product with a table of powers
of ten, and a table of %g layouts spells them out.  The tables are built on
first use, so a command that writes no table does not pay for them.  The few
values that _digits17 cannot settle go through fmt.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def fmt(v: float) -> str:
    """17-significant-digit decimal, locale independent."""
    return format(float(v), ".17g")


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split: x = hi + lo exactly, each half of at most 26 bits."""
    c = x * 134217729.0  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


# Decimal exponents k of the table: |v| in [1e-280, 1e280) and a decade
# either side, where no half of the Dekker product over- or underflows.
_K_MIN, _K_MAX = -281, 281
_NEAR = 1e-6  # in units of the 17th digit: a fraction this close to 1/2 goes per value


@functools.cache
def _pow10_table() -> np.ndarray:
    """Rows hi, lo, hi_hi, hi_lo over k: 10^(16-k) = hi + lo to about 2^-106
    relative (both correctly rounded from Python ints), then the Veltkamp
    halves of hi."""
    pairs = []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 16:
            power = 10 ** (16 - k)
            hi = float(power)
            pairs.append((hi, float(power - int(hi))))
        else:  # with hi = h 2^-s: 10^-m - hi = (2^s - h 10^m) / 10^m 2^-s
            power = 10 ** (k - 16)
            hi = 1 / power
            mantissa, exponent = math.frexp(hi)
            shift = 53 - exponent
            residue = (1 << shift) - int(math.ldexp(mantissa, 53)) * power
            pairs.append((hi, math.ldexp(residue / power, -shift)))
    hi, lo = np.array(pairs).T
    return np.array([hi, lo, *_split(hi)])


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """a * 10^(16-k) as (n, g, exact): n = p + rint(r) as int64 and
    g = r - rint(r), where p + r is the product; exact is true where the
    table's 10^(16-k) is exact (lo == 0)."""
    hi, lo, hh, hl = _pow10_table().take(k - _K_MIN, axis=1)
    p = a * hi
    ah, al = _split(a)
    r = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    q = np.rint(r)
    return p.astype(np.int64) + q.astype(np.int64), r - q, lo == 0


def _digits17(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits of float64 values as (n, k, per_value).

    n in [10^16, 10^17) is |v| times 10^(16-k), rounded half to even, and k
    is the decimal exponent that format(v, ".17g") writes; a zero gives n =
    k = 0.  per_value marks the values left to fmt (their n and k unused):
    non-finite ones, |v| outside [1e-280, 1e280), and near-ties.

    Bound.  k starts at floor(log10|v|).  With T = 10^j, j = 16 - k, the
    table gives hi = fl(T) and lo = fl(T - hi), |T - hi - lo| <= u^2 T
    (u = 2^-53).  Dekker's product gives a*hi = p + e exactly; r = fl(e +
    fl(a*lo)) and P = a*T = p + r + err.  For P in [10^16, 10^17), p is an
    even integer (p >= 2^53), |e| <= ulp(p)/2 <= 8, |a*lo| < 11.2 and
    |r| < 19.2, so in units of the 17th digit
        |err| <= 2 u^2 P (1 + u) + u |r| < 2.5e-15 + 2.2e-15 < 1e-14.
    For 0 <= j <= 22, lo = 0 and err = 0.  As p is even, p + rint(r) is
    p + r rounded half to even, and g = r - rint(r) is exact (Sterbenz).
    If n + g is outside [10^16, 10^17), k moves one decade (log10 is off by
    at most one) and P is computed again; a rounded n = 10^17 is 10^16 one
    decade up.  An n still out of range goes per value.

    Fallback.  With err = 0 every step is exact, ties included.  Otherwise
    rint can misround only where |g| is within |err| of 1/2: those values go
    per value (margin _NEAR = 1e-6).  A decade decision on the wrong side
    needs P within |err| of 10^16 or 10^17, and each of its four cases still
    ends with the true n = 10^16 and k, so edges need no fallback.  The only
    17-digit ties below 1e-6 are m 2^-24 and m 2^-25 for a few odd m, and
    there are none above 1e17, so the dyadic ties of real tables, such as
    -0.000101566314697265625, stay in the kernel.
    """
    a = np.abs(v)
    fast = (a >= 1e-280) & (a < 1e280)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    n, g, exact = _scaled(a, k)
    low = (n < 10**16) | ((n == 10**16) & (g < 0))
    high = (n > 10**17) | ((n == 10**17) & (g >= 0))
    redo = low | high
    if redo.any():
        k += high
        k -= low
        n[redo], g[redo], exact[redo] = _scaled(a[redo], k[redo])
    top = n == 10**17
    n[top] = 10**16
    k += top
    near_tie = np.abs(0.5 - np.abs(g)) < _NEAR
    per_value = ~fast | (~exact & near_tie) | (n < 10**16) | (n >= 10**17)
    zero = v == 0
    n[zero] = 0
    k[zero] = 0
    return n, k, per_value & ~zero


# The source rows of one value's characters: its sign (NUL or "-"), the 17
# digits, ".", "e", the exponent's sign and three digits (the first is NUL
# below 100), "0", the separator and NUL.  A layout lists the source rows
# that spell the value in %g form; NUL entries are dropped from the text.
_SIGN, _DIGIT, _DOT, _E, _EXP, _ZERO, _SEP, _NUL = 0, 1, 18, 19, 20, 24, 25, 26
_LAYOUT_WIDTH = 25  # the longest text, "-1.2345678901234567e-308", and a separator
_VERBATIM = 23 * 17  # the layout of a value that fmt wrote into rows 0..23


@functools.cache
def _layouts() -> np.ndarray:
    """Layout (mode, s) at row 17 * mode + s - 1, for s significant digits:
    fixed point for mode = k + 5 with k in [-4, 16], e-notation at modes 0
    (k < -4) and 22 (k > 16).  The last row, _VERBATIM, is rows 0..23 as
    they stand."""
    rows = []
    for mode in range(23):
        k = mode - 5
        for s in range(1, 18):
            dig = list(range(_DIGIT, _DIGIT + s))
            if mode in (0, 22):
                body = dig[:1] + ([_DOT] + dig[1:] if s > 1 else []) + [_E, *range(_EXP, _EXP + 4)]
            elif k >= 0:
                body = list(range(_DIGIT, _DIGIT + k + 1)) + ([_DOT] + dig[k + 1 :] if s > k + 1 else [])
            else:
                body = [_ZERO, _DOT] + [_ZERO] * (-k - 1) + dig
            rows.append(bytes([_SIGN, *body, _SEP]))
    rows.append(bytes([*range(_ZERO), _SEP]))
    padded = b"".join(row.ljust(_LAYOUT_WIDTH, bytes([_NUL])) for row in rows)
    return np.frombuffer(padded, dtype=np.uint8).reshape(-1, _LAYOUT_WIDTH)


@functools.cache
def _exponents() -> np.ndarray:
    """The exponent text of each k of the power table: sign and three digits."""
    return np.frombuffer(
        b"".join((b"-" if k < 0 else b"+") + (b"%02d" % abs(k)).rjust(3, b"\0") for k in range(_K_MIN, _K_MAX + 1)),
        dtype=np.uint8,
    ).reshape(-1, 4).T.copy()


def lines(block: np.ndarray) -> str:
    """The lines of a 2-D float block: each value as fmt writes it, joined by
    commas.  It takes about 320 bytes of memory a value."""
    v = block.ravel()
    size = v.size
    n, k, per_value = _digits17(v)
    src = np.empty((_NUL + 1, size), dtype=np.uint8)
    src[_SIGN] = np.signbit(v) * np.uint8(ord("-"))
    upper = n // 10**8
    for first, width, x in ((_DIGIT, 9, upper), (_DIGIT + 9, 8, n - upper * 10**8)):
        x = x.astype(np.uint32)
        for row in range(first + width - 1, first, -1):
            q = x // 10
            src[row] = x - q * 10
            x = q
        src[first] = x
    digits = src[_DIGIT : _DIGIT + 17]
    significant = np.maximum(((digits != 0) * np.arange(1, 18, dtype=np.uint8)[:, None]).max(axis=0), 1)
    digits += ord("0")
    src[_EXP : _EXP + 4] = _exponents().take(k - _K_MIN, axis=1)
    src[_DOT], src[_E], src[_ZERO], src[_SEP], src[_NUL] = b".e0,\0"
    src[_SEP, block.shape[1] - 1 :: block.shape[1]] = ord("\n")
    lid = 17 * (np.clip(k, -5, 17) + 5) + significant - 1
    for i in np.flatnonzero(per_value):
        text = fmt(v[i]).encode("ascii")
        src[:_ZERO, i] = 0
        src[: len(text), i] = np.frombuffer(text, dtype=np.uint8)
        lid[i] = _VERBATIM
    # intp from the start: numpy.take would make an intp copy of any other
    index = (_layouts().astype(np.intp) * size).take(lid, axis=0)
    index += np.arange(size)[:, None]
    return src.ravel().take(index).tobytes().translate(None, b"\0").decode("ascii")
