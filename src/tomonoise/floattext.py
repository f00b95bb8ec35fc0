"""Exact, vectorized CSV text for float64 and integer columns: '%.17g' and '%d' out, the same doubles back in.

Writing. The 17 significant digits of a double v are round-half-even of
|v| 10^(16 - E), E its decimal exponent. For the fixed notation '%.17g' uses,
-4 <= E <= 16, the power 10^(16 - E) is an exact double, and Dekker's
two-product (1971) gives the product exactly as p + e; p is then an even
integer, so the digits are p plus e rounded half-even. Values sorted by sign
and E take a few slice copies per class to place the digits, the point and
the leading zeros; trailing zeros are cut as '%g' cuts them.

Reading. A field -?digits[.digits] is m / 10^f with an integer m < 10^18 and
f <= 22, where 10^f is exact; its digits are read eight to a uint64 word
(SWAR). Below 2^53 m is an exact double and one division is correctly rounded
(Clinger 1990). Above, the quotient is corrected once by its residual
z 10^f - m, from Dekker's product, and certified by the residual of the
result: inside half the gap to z's neighbour, z is the nearest double.

Everything this cannot certify goes through the converters it replaces, per
value: '%.17g' % v for exponent notation (|v| < 1e-4 or >= 1e17) and non-finite
values, and float() for fields with an exponent or a '+', longer than 24
bytes, with m >= 10^18 or more than 22 decimals, or with a residual within
rounding of half a gap. A piece of a file holding anything else (blank or
comment lines, spaces, nan, another column count) sends the whole read back to
np.loadtxt. So every byte written and every double read are those of
'%.17g' % v, '%d' % i and np.loadtxt.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

#: Characters of text read per piece; each piece is cut after its last newline.
READ_CHARS = 1 << 17
#: Bytes before each piece of text read, so that every field has a full window of words before its end.
PAD = 24
#: Bytes per field slot: the longest '%.17g' of a double (24) and its delimiter.
SLOT = 25
#: Exact doubles 10^k, k = 0..22.
POW10 = np.array([float(10**k) for k in range(23)])
#: Integer powers 10^k, k = 0..18.
IPOW10 = 10 ** np.arange(19, dtype=np.int64)
#: Veltkamp's constant 2^27 + 1, which splits a double into two 26-bit halves.
SPLIT = 134217729.0
#: Decimal exponents with fixed notation in '%.17g'.
E_MIN, E_MAX = -4, 16
#: A residual certifies a rounding when it is this much clear of the half-gap either way.
MARGIN = 2.0**-30

_ORD = {c: ord(c) for c in "0.,-\n"}


def _digit_groups() -> np.ndarray:
    """ASCII of 0000..9999 as little-endian uint32, one four-digit group each."""
    k = np.arange(10000)
    digits = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1) + _ORD["0"]
    return np.ascontiguousarray(digits.astype(np.uint8)).view("<u4")[:, 0]


_GROUPS = _digit_groups()
#: The text before the digits of 0.1 <= |v| < 1, up to four of it for 1e-4 <= |v| < 1e-3.
_ZEROS = np.frombuffer(b"0.000", dtype=np.uint8)


def _split(a):
    hi = a * SPLIT
    hi = hi - (hi - a)
    return hi, a - hi


def _two_product(a, b):
    """p = fl(a b) and e with p + e = a b exactly (Dekker 1971), for products far from over- and underflow."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


# ---------------------------------------------------------------- writing


def _significand(a: np.ndarray, e: np.ndarray):
    """round-half-even(x) as int64 for x = a 10^(16 - e), and -1, 0 or 1 as x lies below, in or above [10^16, 10^17).

    Exact: Dekker's product gives x = p + err, and p >= 10^16 > 2^53 is an even
    integer, so rounding p + err half-even is rounding err half-even.
    """
    p, err = _two_product(a, POW10[16 - e])
    d = p.astype(np.int64) + np.rint(err).astype(np.int64)
    below = (p < 1e16) | ((p == 1e16) & (err < 0.0))
    above = (p > 1e17) | ((p == 1e17) & (err >= 0.0))
    return d, above.astype(np.intp) - below


def _float_digits(v: np.ndarray):
    """17-digit significand D and decimal exponent E of each |v|, and a mask of those outside fixed notation.

    |v| rounded to 17 significant digits is D 10^(E - 16) with D in [10^16, 10^17),
    or D = E = 0 for a zero. D and E of a value outside fixed notation are arbitrary.
    """
    a = np.abs(v)
    zero = a == 0.0
    # from 9.99e-5 up, to keep what rounds up to 1e-4; every double below 1e17 is an integer of <= 17 digits
    fixed = (a >= 9.99e-5) & (a < 1e17)
    safe = np.where(fixed, a, 1.0)
    e = np.clip(np.floor(np.log10(safe)).astype(np.intp), E_MIN - 1, E_MAX)
    d, shift = _significand(safe, e)
    for _ in range(2):  # log10 may round across a power of ten: step E once toward it
        off = np.flatnonzero(shift)
        if not off.size:
            break
        e[off] = np.clip(e[off] + shift[off], E_MIN - 1, E_MAX)
        d[off], shift[off] = _significand(safe[off], e[off])
    carry = d == IPOW10[17]  # 17 nines rounded up: one digit more
    d[carry] = IPOW10[16]
    e[carry] += 1
    outside = ~(fixed | zero) | (shift != 0) | (e < E_MIN)
    d[zero] = 0
    e[zero] = 0
    return d, e, outside


def _int_digits(v: np.ndarray):
    """Significand D = |v| 10^(16 - E) and E = digits - 1 of each integer, and a mask of |v| >= 10^17."""
    outside = (v >= IPOW10[17]) | (v <= -IPOW10[17])
    a = np.abs(np.where(outside, 0, v)).astype(np.int64)
    e = np.maximum(np.searchsorted(IPOW10[:18], a, side="right") - 1, 0)
    return a * IPOW10[16 - e], e, outside


def _digit_bytes(d: np.ndarray) -> np.ndarray:
    """The 17 ASCII digits of each int64 0 <= d < 10^17, leading zeros included."""
    out = np.empty((d.size, 17), dtype=np.uint8)
    lead = d // IPOW10[16]
    out[:, 0] = lead + _ORD["0"]
    rest = d - lead * IPOW10[16]
    groups = out[:, 1:].view("<u4")
    for k in range(4):
        unit = IPOW10[12 - 4 * k]
        group = rest // unit
        rest -= group * unit
        groups[:, k] = _GROUPS[group]
    return out


def _format_column(v: np.ndarray, out: np.ndarray, size: np.ndarray) -> None:
    """Write the text of each value of v into its row of out (n x SLOT bytes) and its length into size.

    Values are sorted by sign and exponent, so that each such class lays out its
    digits with a few slice copies, and the rows go back to their places at the end.
    """
    integer = v.dtype.kind in "iu"
    d, e, outside = (_int_digits if integer else _float_digits)(v)
    neg = (v < 0) if integer else np.signbit(v)
    cls = (neg * (E_MAX - E_MIN + 1) + (e - E_MIN)).astype(np.uint8)
    cls[outside] = 0
    order = np.argsort(cls, kind="stable")
    digits = _digit_bytes(d[order])
    # digits left after trailing zeros are stripped; an integer prints none past its point
    sig = np.zeros(v.size, dtype=np.intp) if integer else np.full(v.size, 17)
    if not integer:
        ends_in_zero = np.flatnonzero(digits[:, 16] == _ORD["0"])
        nonzero = digits[ends_in_zero, ::-1] != _ORD["0"]
        sig[ends_in_zero] = np.where(nonzero.any(axis=1), 17 - nonzero.argmax(axis=1), 0)
    field = np.empty((v.size, SLOT), dtype=np.uint8)
    start = 0
    for c, count in enumerate(np.bincount(cls, minlength=256)):
        if not count:
            continue
        sign, exp = divmod(c, E_MAX - E_MIN + 1)
        exp += E_MIN
        rows, stop = slice(start, start + count), start + count
        if sign:
            field[rows, 0] = _ORD["-"]
        body = field[rows, sign:]
        if exp >= 0:  # d0..dE '.' dE+1..d16
            body[:, : exp + 1] = digits[rows, : exp + 1]
            body[:, exp + 1] = _ORD["."]
            body[:, exp + 2 : 18] = digits[rows, exp + 1 :]
            sig[rows] = sign + exp + 1 + np.where(sig[rows] > exp + 1, sig[rows] - exp, 0)
        else:  # '0.', -E - 1 zeros, d0..d16
            body[:, : 1 - exp] = _ZEROS[: 1 - exp]
            body[:, 1 - exp : 18 - exp] = digits[rows]
            sig[rows] += sign + 1 - exp
        start = stop
    out[order] = field
    size[order] = sig
    fmt = "%d" if integer else "%.17g"
    for i in np.flatnonzero(outside):
        text = (fmt % v[i].item()).encode()
        out[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
        size[i] = len(text)


def format_rows(columns) -> np.ndarray:
    """Text of the rows of the columns as a uint8 array: '%.17g' for a float column, '%d' for an integer one.

    The bytes are those of (fmt + "," + ... + fmt + "\\n") % row for every row.
    """
    n, ncols = columns[0].size, len(columns)
    rows = np.empty((n, ncols, SLOT), dtype=np.uint8)
    size = np.empty((n, ncols), dtype=np.uint8)
    for c, column in enumerate(columns):
        _format_column(np.asarray(column), rows[:, c], size[:, c])
    delimiters = np.full(ncols, _ORD[","], dtype=np.uint8)
    delimiters[-1] = _ORD["\n"]
    flat = rows.reshape(-1)
    flat[np.arange(0, n * ncols * SLOT, SLOT).reshape(n, ncols) + size] = delimiters
    return rows[np.arange(SLOT, dtype=np.uint8) <= size[..., None]]


# ---------------------------------------------------------------- reading


def _swar8(digits: np.ndarray) -> np.ndarray:
    """Value of the eight digit bytes (0..9) in each little-endian uint64, first digit lowest (Lemire's SWAR parse)."""
    w = digits * np.uint64(2561) >> np.uint64(8)
    w = (w & np.uint64(0x00FF00FF00FF00FF)) * np.uint64(6553601) >> np.uint64(16)
    return (w & np.uint64(0x0000FFFF0000FFFF)) * np.uint64(42949672960001) >> np.uint64(32)


#: uint64 masks of the bytes j..7 of a word, for j = -24..32 at index j + 24.
_FROM = np.array([(~0 << 8 * min(max(j, 0), 8)) & (1 << 64) - 1 for j in range(-24, 33)], dtype=np.uint64)
_BYTES = np.uint64(0x0101010101010101)


def _bytes_from(j: np.ndarray) -> np.ndarray:
    return np.take(_FROM, j + 24)


def _byte_sum(ones: np.ndarray) -> np.ndarray:
    """Sum of the eight bytes of each uint64 whose bytes are 0 or 1, as intp."""
    return ((ones * _BYTES) >> np.uint64(56)).astype(np.intp)


def _field_digits(padded: np.ndarray, first: np.ndarray, ends: np.ndarray):
    """Digits of each field padded[first:end] as m and f, the field being m / 10^f, and a mask of odd fields.

    A field is read as the one to three little-endian uint64 words that end at
    its end (padded holds PAD bytes before the text). Odd fields are those
    longer than 24 bytes, empty, holding a byte other than digits and one
    point, or with m >= 10^18; their m and f are 0. The digits before the
    point move one byte up over it, so that one SWAR parse reads m.
    """
    length = ends - first
    odd = (length > 24) | (length <= 0)
    length[odd] = 0
    nwords = max(1, -(-int(length.max(initial=0)) // 8))
    words_at = np.ndarray((padded.size - 7,), dtype="<u8", buffer=padded, strides=(1,))
    base = ends - 8 * nwords
    head = 8 * nwords - length  # window bytes before the field
    words, others, point = [], 0, np.zeros(ends.size, dtype=np.intp)
    for k in range(nwords):
        field = _bytes_from(head - 8 * k)
        w = words_at[base + 8 * k] & field
        # 0x80 in each byte of the field that is not a digit (the bytes are ASCII)
        other = ((w ^ _BYTES * np.uint64(0x30)) + _BYTES * np.uint64(0x76)) & field & _BYTES * np.uint64(0x80)
        others = others + _byte_sum(other >> np.uint64(7))
        # one bit at 8j + 7: the bits below it fill bytes 0..j-1, so j bytes have their top bit set
        point += (other != 0) * (8 * k + _byte_sum((other - np.uint64(1)) >> np.uint64(7) & _BYTES))
        words.append(w)
    # the one byte that is not a digit must be a point; -1 marks a field without one
    point = np.where(others == 1, point, -1)
    odd |= (others > 1) | ((point >= 0) & (padded[base + np.maximum(point, 0)] != _ORD["."]))
    frac_len = np.where(point >= 0, 8 * nwords - 1 - point, 0)
    m = np.zeros(ends.size, dtype=np.uint64)
    carry = np.uint64(0)
    for k, w in enumerate(words):
        before = w & ~_bytes_from(point - 8 * k)  # bytes before the point
        w &= _bytes_from(point + 1 - 8 * k)
        w |= before << np.uint64(8)
        w |= carry
        carry = before >> np.uint64(56)
        w &= _BYTES * np.uint64(0x0F)
        part = _swar8(w)
        if nwords == 3 and k == 0:  # 10^16 a unit: from 100 on m reaches 10^18
            odd |= part >= 100
        m *= np.uint64(10**8)
        m += part
    m = m.astype(np.int64)
    odd |= frac_len > 22
    m[odd] = 0
    frac_len[odd] = 0
    return m, frac_len, odd


def _residual(z, mh, ml, p10):
    """z 10^f - m for m = mh + ml exactly, from Dekker's product of z and 10^f.

    p - mh is exact (Sterbenz), so the one rounding error left is far below a gap of z.
    """
    p, err = _two_product(z, p10)
    return (p - mh) + (err - ml)


def _quotient(m: np.ndarray, f: np.ndarray):
    """Correctly rounded m / 10^f for int64 0 <= m < 10^18 and f <= 22, and a mask of those not certified.

    Up to 2^53 m is an exact double and the one division is correctly rounded
    (Clinger); above, m = mh + ml with mh its double, and the quotient is
    corrected once by its residual and certified by the residual of the result.
    Those below 2^53 pass through the same steps unchanged, with ml = 0.
    """
    mh = m.astype(float)  # correctly rounded
    ml = (m - mh.astype(np.int64)).astype(float)  # exact, |ml| <= 64
    p10 = POW10[f]
    z = mh / p10
    z = z - _residual(z, mh, ml, p10) / p10  # nearest to m / 10^f but near a tie
    r = _residual(z, mh, ml, p10)
    # certified inside half the gap below z, the smaller one; half-gap times 10^f is exact
    below = z - (z.view(np.int64) - 1).view(float)
    unsure = np.abs(r) >= (below * p10) * (0.5 - 0.5 * MARGIN)
    unsure &= m != 0  # z = 0 has no gap below
    return z, unsure


def _parse(raw: bytes, ncols: int) -> np.ndarray | None:
    """The numbers of lines of ncols comma-separated fields, flat, or None where raw holds anything else.

    raw is PAD bytes of padding, then whole lines of ASCII, the last one ending in a newline.
    """
    padded = np.frombuffer(raw, dtype=np.uint8)
    b = padded[PAD:]
    ends = np.flatnonzero((b == _ORD[","]) | (b == _ORD["\n"]))
    row_ends = np.full(ncols, _ORD[","], dtype=np.uint8)
    row_ends[-1] = _ORD["\n"]
    if ends.size % ncols or not (b[ends].reshape(-1, ncols) == row_ends).all():
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    neg = b[starts] == _ORD["-"]
    m, frac_len, odd = _field_digits(padded, starts + neg + PAD, ends + PAD)
    values, unsure = _quotient(m, frac_len)
    np.negative(values, out=values, where=neg)
    for i in np.flatnonzero(odd | unsure):
        field = bytes(raw[PAD + starts[i] : PAD + ends[i]])
        if field.translate(None, b"0123456789.-+eE"):
            return None  # float() reads more than np.loadtxt: spaces, '_', words
        try:
            values[i] = float(field)
        except ValueError:
            return None
    return values


def _line_pieces(fh):
    """The text of fh from its position on, in pieces of whole lines: each PAD spaces and its lines as ASCII.

    The last line gets a newline if it lacks one. A piece that is not ASCII is None.
    """
    rest = " " * PAD
    for text in iter(lambda: fh.read(READ_CHARS), ""):
        text = rest + text
        cut = text.rfind("\n") + 1
        if cut:
            yield _ascii(text, cut)
            rest = " " * PAD + text[cut:]
        else:
            rest = text
    if len(rest) > PAD:
        yield _ascii(rest + "\n", len(rest) + 1)


def _ascii(text: str, cut: int):
    try:
        return memoryview(text.encode("ascii"))[:cut]
    except UnicodeEncodeError:
        return None


def read_rows(fh, ncols: int, expect: int) -> np.ndarray:
    """Rows of ncols numbers from the text file fh, from its position on: np.loadtxt(fh, delimiter=",", ndmin=2).

    Gives that call's array, or raises its error, for any file: a file without
    rows, or with a piece that _parse leaves alone, is read again by that call.
    expect, the number of rows the caller expects, sizes the first allocation.
    """
    start = fh.tell()
    rows = np.empty((min(max(expect, 0), os.fstat(fh.fileno()).st_size // (2 * ncols)), ncols))
    filled = 0
    for piece in _line_pieces(fh):
        values = None if piece is None else _parse(piece, ncols)
        if values is None:
            break
        values = values.reshape(-1, ncols)
        if filled + len(values) > len(rows):
            grown = np.empty((max(2 * len(rows), filled + len(values)), ncols))
            grown[:filled] = rows[:filled]
            rows = grown
        rows[filled : filled + len(values)] = values
        filled += len(values)
    else:
        if filled:
            return rows[:filled]
    fh.seek(start)
    with warnings.catch_warnings():
        # loadtxt warns on a file without rows; callers check for that themselves
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(fh, delimiter=",", ndmin=2)
