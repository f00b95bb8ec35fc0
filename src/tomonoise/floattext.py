"""Exact, vectorized dataset text for float64 columns: '%.17g' digits out, the same doubles back in.

Writing. Both formats write a value as its '%.17g' text; JSON adds '.0'
after an integer text, so that json.loads reads every number as a float and
-0.0 keeps its sign. The 17 significant digits of a double v are
round-half-even of |v| 10^(16 - E), E its decimal exponent. For the fixed
notation '%.17g' uses, -4 <= E <= 16, the power 10^(16 - E) is an exact
double, and Dekker's two-product (1971) gives the product exactly as p + e;
p is then an even integer, so the digits are p plus e rounded half-even.
Values sorted by sign and E take a few slice copies per class to place the
digits, the point and the leading zeros; trailing zeros are cut as '%g' cuts
them.

Reading. A field -?digits[.digits] is m / 10^f with an integer m < 10^18 and
f <= 22, where 10^f is exact; its digits are read eight to a uint64 word
(SWAR). Below 2^53 m is an exact double and one division is correctly rounded
(Clinger 1990). Above, the quotient is corrected once by its residual
z 10^f - m, from Dekker's product, and certified by the residual of the
result: inside half the gap to z's neighbour, z is the nearest double. A JSON
dataset's samples are the same fields once each piece of its
'[[x, phi], [x, phi]]' text is rewritten as lines.

Everything this cannot certify goes through the converters it replaces, per
value: '%.17g' % v for exponent notation (|v| < 1e-4 or |v| >= 1e17) and
non-finite values; float() for fields with an exponent or a '+', longer than
24 bytes, with m >= 10^18 or more than 22 decimals, or with a residual within
rounding of half a gap. A piece of a CSV file holding anything else (blank or
comment lines, spaces, nan, another column count) sends the whole read back
to np.loadtxt, and a JSON samples array holding anything but rows of JSON
numbers (other spacing, NaN, another column count, trailing bytes) sends the
whole file back to json.loads. So every byte written and every double read
are those of '%.17g' % v, np.loadtxt and json.loads. The reader takes any
JSON number, so files written as json.dumps writes them read the same.
"""

from __future__ import annotations

import os
import re
import warnings

import numpy as np

#: Characters of text read per piece; each piece is cut after its last newline.
READ_CHARS = 1 << 17
#: Bytes before each piece of text read, so that every field has a full window of words before its end.
PAD = 24
#: Bytes of the longest text of a value: '%.17g' of a double.
FIELD = 24
#: Exact doubles 10^k, k = 0..22.
POW10 = np.array([float(10**k) for k in range(23)])
#: Integer powers 10^k, k = 0..17.
IPOW10 = 10 ** np.arange(18, dtype=np.int64)
#: Veltkamp's constant 2^27 + 1, which splits a double into two 26-bit halves.
SPLIT = 134217729.0
#: Decimal exponents with fixed notation in '%.17g'.
E_MIN, E_MAX = -4, 16
#: A residual certifies a rounding when it is this much clear of the half-gap either way.
MARGIN = 2.0**-30

_ORD = {c: ord(c) for c in "0.,-\n"}
#: What the JSON writer puts between one row of numbers and the next.
JSON_ROW_END = b"], ["
#: A JSON number that json.loads reads with float(): one with a fraction or an exponent.
_JSON_FLOAT = re.compile(rb"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)")


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
    """x = a 10^(16 - e) exactly as p + err, and -1, 0 or 1 as x lies below, in or above [10^16, 10^17).

    Dekker's product is exact, and p >= 10^16 > 2^53 is an even integer, so
    rounding x half-even is rounding err half-even.
    """
    p, err = _two_product(a, POW10[16 - e])
    below = (p < 1e16) | ((p == 1e16) & (err < 0.0))
    above = (p > 1e17) | ((p == 1e17) & (err >= 0.0))
    return p, err, above.astype(np.intp) - below


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
    p, err, shift = _significand(safe, e)
    for _ in range(2):  # log10 may round across a power of ten: step E once toward it
        off = np.flatnonzero(shift)
        if not off.size:
            break
        e[off] = np.clip(e[off] + shift[off], E_MIN - 1, E_MAX)
        p[off], err[off], shift[off] = _significand(safe[off], e[off])
    outside = ~(fixed | zero) | (shift != 0) | (e < E_MIN)
    d = p.astype(np.int64) + np.rint(err).astype(np.int64)
    carry = d == IPOW10[17]  # 17 nines rounded up: one digit more
    d[carry] = IPOW10[16]
    e[carry] += 1
    d[zero] = 0
    e[zero] = 0
    return d, e, outside


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


def _format_column(v: np.ndarray, out: np.ndarray, size: np.ndarray, point: int) -> None:
    """Write the text of each value of v into the start of its row of out and its length into size.

    The text is '%.17g', with '.0' after an integral value if point is 2 and
    none if it is 0. Values are sorted by sign and exponent, so that each such
    class lays out its digits with a few slice copies, and the rows go back to
    their places at the end.
    """
    d, e, outside = _float_digits(v)
    cls = (np.signbit(v) * (E_MAX - E_MIN + 1) + (e - E_MIN)).astype(np.uint8)
    cls[outside] = 0
    order = np.argsort(cls, kind="stable")
    digits = _digit_bytes(d[order])
    # digits left after trailing zeros are stripped
    sig = np.full(v.size, 17)
    ends_in_zero = np.flatnonzero(digits[:, 16] == _ORD["0"])
    nonzero = digits[ends_in_zero, ::-1] != _ORD["0"]
    sig[ends_in_zero] = np.where(nonzero.any(axis=1), 17 - nonzero.argmax(axis=1), 0)
    # an integral value of 17 digits has its '.0' one byte past the digits
    field = np.full((v.size, out.shape[1]), _ORD["0"], dtype=np.uint8)
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
            tail = sig[rows] - exp
            sig[rows] = sign + exp + 1 + np.where(tail > 1, tail, point)
        else:  # '0.', -E - 1 zeros, d0..d16
            body[:, : 1 - exp] = _ZEROS[: 1 - exp]
            body[:, 1 - exp : 18 - exp] = digits[rows]
            sig[rows] += sign + 1 - exp
        start = stop
    out[order] = field
    size[order] = sig
    left = np.flatnonzero(outside)
    if left.size:
        texts = ["%.17g" % value for value in v[left].tolist()]
        texts = [(t + ".0" if point and t.lstrip("-").isdigit() else t).encode() for t in texts]
        padded = b"".join(text.ljust(FIELD) for text in texts)
        out[left, :FIELD] = np.frombuffer(padded, dtype=np.uint8).reshape(-1, FIELD)
        size[left] = [len(text) for text in texts]


def _join(columns, delimiters, point: int) -> np.ndarray:
    """Text of the rows of the columns as a uint8 array, each value followed by its column's delimiter.

    point is 2 for a '.0' after an integral value, else 0.
    """
    n, ncols = columns[0].size, len(columns)
    width = FIELD + max(map(len, delimiters))
    rows = np.empty((n, ncols, width), dtype=np.uint8)
    size = np.empty((n, ncols), dtype=np.uint8)
    for c, column in enumerate(columns):
        _format_column(np.asarray(column), rows[:, c], size[:, c], point)
    flat = rows.reshape(-1)
    ends = np.arange(0, n * ncols * width, width).reshape(n, ncols) + size
    for c, delimiter in enumerate(delimiters):
        for j, byte in enumerate(delimiter):
            flat[ends[:, c] + j] = byte
    size += np.array([len(delimiter) for delimiter in delimiters], dtype=np.uint8)
    return rows[np.arange(width, dtype=np.uint8) < size[..., None]]


def format_rows(columns) -> np.ndarray:
    """Text of the rows of float columns as a uint8 array, each value as '%.17g'.

    The bytes are those of (fmt + "," + ... + fmt + "\\n") % row for every row.
    """
    return _join(columns, [b","] * (len(columns) - 1) + [b"\n"], 0)


def format_json_rows(columns) -> np.ndarray:
    """Text of the rows of float columns inside a JSON array of arrays, as a uint8 array.

    Each value is its '%.17g' text, with '.0' after an integer text, so that
    json.loads reads every number back as the same float, -0.0 included. Each
    row's texts are joined by ', ' and followed by '], [': with '[[' before the
    rows and their last three bytes cut, they are a JSON array of the rows.
    """
    return _join(columns, [b", "] * (len(columns) - 1) + [JSON_ROW_END], 2)


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


def _parse(raw: bytes, ncols: int, json_numbers: bool = False) -> np.ndarray | None:
    """The numbers of lines of ncols comma-separated fields, flat, or None where raw holds anything else.

    raw is PAD bytes of padding, then whole lines of ASCII, the last one ending
    in a newline. With json_numbers, a field must also be a JSON number that
    json.loads reads as float() does, else None: no point without a digit on
    each side, no leading zero, no '-0' (an int, so 0.0), and a field that
    float() reads must hold a fraction or an exponent.
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
    first = starts + neg
    if json_numbers:
        lead, length = b[first], ends - first
        after = b[np.minimum(first + 1, b.size - 1)]
        if (
            (lead == _ORD["."]).any()
            or (b[ends - 1] == _ORD["."]).any()
            or ((lead == _ORD["0"]) & (length > 1) & (after != _ORD["."])).any()
            or (neg & (lead == _ORD["0"]) & (length == 1)).any()
        ):
            return None
    m, frac_len, odd = _field_digits(padded, first + PAD, ends + PAD)
    values, unsure = _quotient(m, frac_len)
    np.negative(values, out=values, where=neg)
    for i in np.flatnonzero(odd | unsure):
        field = bytes(raw[PAD + starts[i] : PAD + ends[i]])
        # float() reads more than np.loadtxt (spaces, '_', words) and than json.loads
        readable = _JSON_FLOAT.fullmatch(field) if json_numbers else not field.translate(None, b"0123456789.-+eE")
        if not readable:
            return None
        try:
            values[i] = float(field)
        except ValueError:
            return None
    return values


def _gather(pieces, ncols: int, expect: int, most: int) -> np.ndarray | None:
    """The flat values of each piece as rows of ncols numbers, or None at the first piece that is None.

    expect, the number of rows the caller expects, capped at most, sizes the
    first allocation.
    """
    rows = np.empty((min(max(expect, 0), most), ncols))
    filled = 0
    for values in pieces:
        if values is None:
            return None
        values = values.reshape(-1, ncols)
        if filled + len(values) > len(rows):
            grown = np.empty((max(2 * len(rows), filled + len(values)), ncols))
            grown[:filled] = rows[:filled]
            rows = grown
        rows[filled : filled + len(values)] = values
        filled += len(values)
    return rows[:filled]


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
    pieces = (None if piece is None else _parse(piece, ncols) for piece in _line_pieces(fh))
    rows = _gather(pieces, ncols, expect, os.fstat(fh.fileno()).st_size // (2 * ncols))
    if rows is not None and len(rows):
        return rows
    fh.seek(start)
    with warnings.catch_warnings():
        # loadtxt warns on a file without rows; callers check for that themselves
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def _json_lines(text: bytes):
    """The writer's JSON rows 'x, phi], [x, phi' in text as a _parse piece, or None where text holds a newline or non-ASCII."""
    if not text.isascii() or b"\n" in text:
        return None
    return b" " * PAD + text.replace(JSON_ROW_END, b"\n").replace(b", ", b",") + b"\n"


def _json_pieces(fh):
    """The samples of a JSON dataset in the binary file fh, from its first number on, as _parse pieces.

    Each piece is cut after its last row end and rewritten as lines. The text
    must end in ']]}'; a piece of other text, or a row longer than READ_CHARS
    bytes, is None.
    """
    rest = b""
    for chunk in iter(lambda: fh.read(READ_CHARS), b""):
        text = rest + chunk
        cut = text.rfind(JSON_ROW_END)
        if cut >= 0:
            yield _json_lines(text[:cut])
            rest = text[cut + len(JSON_ROW_END) :]
        elif len(text) > READ_CHARS:
            yield None
            return
        else:
            rest = text
    yield _json_lines(rest[:-3]) if rest.endswith(b"]]}") else None


def read_json_rows(fh, ncols: int, expect: int) -> np.ndarray | None:
    """Rows of ncols numbers of a JSON dataset's samples in the binary file fh, from its first number on.

    The doubles are those json.loads reads. The text must be rows of JSON
    numbers, the numbers of a row joined by ', ' or ',' and the rows by '], [',
    up to a closing ']]}' at the end of the file; any other text gives None.
    expect, the number of rows the caller expects, sizes the first allocation.
    """
    pieces = (None if piece is None else _parse(piece, ncols, True) for piece in _json_pieces(fh))
    return _gather(pieces, ncols, expect, os.fstat(fh.fileno()).st_size // (4 * ncols))
