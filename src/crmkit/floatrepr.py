"""CSV rows of int and float columns, each float written as ``repr`` writes it.

``repr`` of a double is its shortest decimal that reads back as the same
double, the one nearest the double among those of that length, laid out by
CPython's ``'r'`` format.  The Schubfach algorithm (R. Giulietti, "The
Schubfach way to render doubles", 2020, in the form of Java's
``DoubleToDecimal``) finds the same digits with fixed-width integer
arithmetic, so numpy runs it over a whole column at once, its 64x64-bit
products built from 32-bit limbs of ``uint64`` arrays.  Every normal double
and ±0.0 goes through it; subnormal and non-finite values, which are rare,
are written by ``repr`` one at a time.

A float cell is 32 byte slots, 4 little-endian ``uint64`` units, NUL
where the cell has no character, and a comma in its last slot.  A double's
17 digits d0..d16 are its leading digit and two 8-digit units looked up
four digits at a time, and its cell is laid out as

    unit 0     the sign, "0." and up to three zeros, and d0, ending in its
               last slot
    units 1-3  d1..d16 with the point inserted, then "e", the exponent's
               sign and 2 or 3 digits ending in slot 6 of unit 3, and the
               comma

The point goes before d_p, for d0 followed by the point (p = 1) or a
decimal point position p in 2..16, and d_p..d16 move up one slot to make
room: a cell's units 1-3 are ``(A & K) | (B & S) | P`` for its digit units
A, the same moved up one byte, B, and masks K, S and P of its layout.  A
layout depends only on the notation, the position of the decimal point and
the digit count, so a table holds the masks of each of the 357 layouts.
A cell keeps its characters together: the NUL drop below passes a run of
NULs faster than NULs between characters.

An int 0 <= v < 10^4, the only kind crmkit writes (component indices, sample
sizes), is one unit of a table of 8 slots: its digits, then a comma.  An int
column with any other value is 4 units wide, and each such value is written
by ``str`` one at a time.  So a row of the atoms CSV is 72 slots.  The last
slot of a row, its last cell's comma, becomes a newline, and the NULs of a
block of rows are dropped in one ``translate`` of the block's bytes.

Rows go through in blocks of equal size, at most 4,096 rows.  One call
makes its block buffer and the kernel's work arrays once and every block
reuses them: the kernel writes each intermediate with ``out=`` or in place,
and its lookups (the powers of ten and shifts of an exponent, a layout's
masks) are ``take`` into preallocated rows, so only the first block touches
fresh pages.  Each block's text is appended to one ``bytearray``, which the
caller starts with a header, so the text is made once, as the bytes a file
holds.

Integer operands of ``uint64`` arithmetic are ``np.uint64``, so the code
means the same under numpy's value-based casting before 2.0.
"""

from __future__ import annotations

import numpy as np

__all__ = ["csv_rows"]

_U = np.uint64
_UNIT = np.dtype("<u8")  # 8 byte slots, the first in the lowest byte
_0, _1, _2, _4, _40 = _U(0), _U(1), _U(2), _U(4), _U(40)
_NOT3 = _U(2**64 - 4)
_S8, _S32, _S52, _S56, _S63 = _U(8), _U(32), _U(52), _U(56), _U(63)
_M32, _M52, _M63 = _U(2**32 - 1), _U(2**52 - 1), _U(2**63 - 1)
_HIDDEN = _U(1 << 52)
_E4, _E8, _E16 = _U(10**4), _U(10**8), _U(10**16)

_K_MIN, _K_MAX = -324, 292
_UP = np.array([0, 0, 0, 1, 0, 0, 1, 1], dtype=bool)  # by vb & 7: s + 1 is nearer, or even


def _g_table() -> tuple[np.ndarray, np.ndarray]:
    """g1, g0 per k in [-324, 292]: 10^-k = beta 2^r with 2^125 <= beta < 2^126,
    g = floor(beta) + 1 = g1 2^63 + g0, from exact integers."""
    pow10 = [1]
    for _ in range(-_K_MIN):
        pow10.append(pow10[-1] * 10)
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = ((-k * 913_124_641_741) >> 38) - 125  # floor(log2 10^-k) - 125
        if k <= 0:
            g.append((pow10[-k] >> r if r >= 0 else pow10[-k] << -r) + 1)
        else:
            g.append((1 << -r) // pow10[k] + 1)
    low = (1 << 63) - 1
    return np.array([x >> 63 for x in g], dtype=_U), np.array([x & low for x in g], dtype=_U)


def _exponent_tables():
    """Tables by the top 12 bits of a double, its sign and biased exponent e,
    plus 4096 where its fraction is 0: k + 341, h, g1, g0, the step from 4 c
    down to the lower end of the interval (2, or 1 at a power of two whose
    lower neighbour is closer), whether the double is written by ``repr``,
    and 1 + 10 neg - (1 for ±0.0), which picks the row of ``lead``.
    (k + 341 is the decimal point position k + 17 of a 17-digit f 10^k,
    plus 324.)

    Biased exponent 0 reads the rows of 1.0, so that ±0.0 goes through as
    ±1.0, and 2047 those of 2046; subnormal and non-finite values, written
    by ``repr``, are then overwritten.
    """
    row = np.arange(8192)
    biased, negative, pow2 = row & 2047, (row >> 11) & 1, row >= 4096
    zero = (biased == 0) & pow2
    by_repr = ((biased == 0) & ~pow2) | (biased == 2047)
    biased = np.where(biased == 0, 1023, np.minimum(biased, 2046))
    # a power of two has its lower neighbour closer, unless it is the least normal
    irregular = pow2 & (biased > 1)
    q = biased - 1075
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = q + ((-k * 913_124_641_741) >> 38) + 2
    g1, g0 = _g_table()
    lead = (1 + 10 * negative - zero).astype(np.uint8)
    return k + 341, h, g1[k - _K_MIN], g0[k - _K_MIN], (2 - irregular).astype(_U), by_repr, lead


_K, _H, _G1, _G0, _STEP, _BY_REPR, _LEAD_ROW = _exponent_tables()


def _tables():
    """The units a float cell is made of, its layout tables and the cells of
    the ints below 10^4, each unit 8 bytes read as a little-endian ``uint64``.

    ``digits`` row g < 10^4 holds g's four digits in its low four slots, and
    ``digits_hi`` the same in its high four.  ``lead`` row 20 c + 10 neg +
    d + 1 holds, ending in its last slot, the sign, "0." and c - 1 zeros
    where c > 0, and the digit d.

    A float of n digits has layout 17 (decpt + 3) + n - 1 in fixed notation
    (decpt in -3..16), 340 + n - 1 in exponent notation.  Row decpt + 324
    of ``layouts`` holds the layout of one digit at decpt, and of
    ``exponents`` unit 3 in exponent notation, "e", the sign of decpt - 1
    and its at least two digits ending in slot 6, and the comma in slot 7.
    ``masks`` has one column a layout and 8 rows: 20 c, where c is 1 - decpt
    for decpt <= 0 in fixed notation and else 0, then K1, S1 and P1 of unit
    1, K2, S2 and P2 of unit 2, and S3 of unit 3.

    ``last`` row j holds, for each 4-digit group g at d_{4j+1}..d_{4j+4}, the
    position 4 j + 4 - (the trailing zeros of g) of its last nonzero digit
    among d1..d16, 0 for 0000.

    ``ints`` row v holds v's digits, ending in slot 6, and a comma in slot 7.
    """
    d = np.arange(48, 58, dtype=np.uint8)
    four = np.zeros((10_000, 8), dtype=np.uint8)
    grid = four.reshape(10, 10, 10, 10, 8)
    for i in range(4):
        grid[..., i] = d.reshape((10,) + (1,) * (3 - i))
    lead = np.zeros((101, 8), dtype=np.uint8)
    for c in range(5):
        for neg in range(2):
            for digit in range(10):
                text = "-" * neg + ("0." + "0" * (c - 1)) * (c > 0) + str(digit)
                lead[20 * c + 10 * neg + digit + 1, 8 - len(text) :] = list(text.encode())

    decpt = np.arange(-324, 325)
    fixed = (decpt > -4) & (decpt <= 16)  # CPython's 'r' rule
    layouts = np.where(fixed, 17 * (decpt + 3), 340)
    exponents = np.zeros((649, 8), dtype=np.uint8)
    exponents[:, 7] = 44
    for row in np.flatnonzero(~fixed).tolist():
        text = f"e{decpt[row] - 1:+03d}".encode()
        exponents[row, 7 - len(text) : 7] = list(text)

    layout = np.arange(357)
    n = layout % 17 + 1
    decpt = layout // 17 - 3
    fixed = layout < 340
    end = np.where(fixed & (decpt >= 1), np.maximum(n, decpt + 1), n)  # digits shown
    # the point goes before d_moved+1, d1..d16 from there on moving up a slot
    moved = np.where(fixed, np.where(decpt >= 1, decpt - 1, 16), np.where(n > 1, 0, 16))
    ff = np.uint8(0xFF)
    i = np.arange(16)
    shown = i < end[:, None] - 1  # d_{i+1}
    k = (shown & (i < moved[:, None])) * ff  # slot i of A
    s = np.zeros((357, 24), dtype=np.uint8)
    s[:, 1:17] = (shown & (i >= moved[:, None])) * ff  # slot i + 1 of B
    p = np.zeros((357, 17), dtype=np.uint8)
    p[layout, moved] = 46
    rows = (k[:, :8], s[:, :8], p[:, :8], k[:, 8:], s[:, 8:16], p[:, 8:16], s[:, 16:])
    c20 = np.where(fixed & (decpt <= 0), 20 * (1 - decpt), 0).astype(_UNIT)
    masks = np.stack([c20] + [_units(row) for row in rows])

    zeros4 = np.zeros(10_000, dtype=np.int8)
    for step in (10, 100, 1000, 10_000):
        zeros4[::step] += 1
    last = np.where(zeros4 < 4, 4 - zeros4 + 4 * np.arange(4)[:, None], 0).astype(np.int8)

    v = np.arange(10_000)
    width = 1 + (v >= 10) + (v >= 100) + (v >= 1000)
    ints = np.zeros((10_000, 8), dtype=np.uint8)
    ints[:, 3:7] = four[:, :4] * (np.arange(4) >= 4 - width[:, None])
    ints[:, 7] = 44
    digits = _units(four)
    return (
        digits, digits << _S32, _units(lead), layouts, _units(exponents), masks, last, _units(ints)
    )


def _units(slots: np.ndarray) -> np.ndarray:
    """Rows of 8 byte slots as one little-endian ``uint64`` unit each."""
    return np.ascontiguousarray(slots).view(_UNIT).ravel()


_DIGITS, _DIGITS_HI, _LEAD, _LAYOUTS, _EXPONENTS, _MASKS, _LAST, _INTS = _tables()


class _Floats:
    """The float kernel over a block of ``rows`` rows of ``values``, one row
    of ``values`` a float column, which writes each value's cell into its
    column's ``cells`` (a (rows, 4) view of the block).

    Its work arrays are made once and every call reuses them: ``w``, 23 rows
    of one ``uint64`` per value, some read as ``int64``, and ``b``, 6 rows of
    one bool per value.  For Schubfach, ``w`` holds g1 and the limbs of g1
    and g0 (rows 0-4), cp (5-7), the temporaries of the products (8-16), vb,
    vbl and vbr (17-19), the low bit of c, k and h (20-22): the three
    products run as one pass over three rows.  The layout reuses the rows.
    """

    def __init__(self, rows: int, cells: list):
        self.values = np.empty((len(cells), rows))
        self.cells = cells
        self.w = np.empty((23, self.values.size), dtype=_U)
        self.b = np.empty((6, self.values.size), dtype=bool)

    def _rop(self, cp, out):
        """cp g 2^-127 rounded to odd into ``out``: its floor, with the lowest
        bit set when inexact, for g = g1 2^63 + g0 (rows 0-4 of ``w``: g1 and
        the 32-bit limbs of g1 and g0) and each of the three rows of cp,
        which is overwritten.

        x1 and y1 are the high 64 bits of g0 cp and g1 cp, from 32-bit limbs:
        as g0, g1 < 2^63 and cp < 2^60, the sum of the middle products stays
        below 2^64.
        """
        w = self.w
        g1, a0, a1, b0, b1 = w[:5]
        c1, z, t = w[8:11], w[11:14], w[14:17]
        np.multiply(g1, cp, out=z)
        z >>= _1
        np.right_shift(cp, _S32, out=c1)
        cp &= _M32
        for lo, hi in ((b0, b1), (a0, a1)):
            np.multiply(lo, cp, out=out)
            out >>= _S32
            out += np.multiply(hi, cp, out=t)
            out += np.multiply(lo, c1, out=t)
            out >>= _S32
            out += np.multiply(hi, c1, out=t)
            if lo is b0:
                z += out  # x1
        out += np.right_shift(z, _S63, out=t)
        z &= _M63
        z += _M63
        z >>= _S63
        out |= z

    def __call__(self) -> None:
        """Write the cell of each value, as ``repr`` writes it and followed by
        a comma."""
        w, b = self.w, self.b
        bits = self.values.view(_U).ravel()
        cp, v = w[5:8], w[17:20]
        vb, vbl, vbr = v
        odd, k, h = w[20], w[21].view(np.int64), w[22].view(np.int64)
        lead, fallback, x, y, z, exact = b
        frac, row = cp[0], vb.view(np.int64)
        # the row of the tables by exponent: sign and biased exponent, plus
        # 4096 where the fraction is 0
        np.right_shift(bits, _S52, out=vb)
        np.bitwise_and(bits, _M52, out=frac)
        np.equal(frac, _0, out=x)
        vb += np.multiply(x, _U(4096), out=odd)
        _BY_REPR.take(row, out=fallback, mode="clip")
        _LEAD_ROW.take(row, out=lead.view(np.uint8), mode="clip")

        # Schubfach: the shortest round-trip decimal f 10^k of each normal
        # double, f of 16 or 17 digits, trailing zeros included.  vb is
        # 4 v / 10^k for v the double, and vbl, vbr the same of the ends of
        # the interval of decimals that read back as v, each rounded to odd
        # and moved in by one where an odd c leaves the ends out (reading
        # rounds half to even).  A candidate of digits d is compared as 4 d.
        g1, a0, a1, b0, b1 = w[:5]
        _K.take(row, out=k, mode="clip")
        _H.take(row, out=h, mode="clip")
        _G1.take(row, out=g1, mode="clip")
        _G0.take(row, out=b1, mode="clip")
        _STEP.take(row, out=vbl, mode="clip")
        np.bitwise_and(g1, _M32, out=a0)
        np.right_shift(g1, _S32, out=a1)
        np.bitwise_and(b1, _M32, out=b0)
        b1 >>= _S32
        frac |= _HIDDEN  # c
        np.bitwise_and(frac, _1, out=odd)
        # cp: 4 c, 4 c - 2 (4 c - 1 at a power of two) and 4 c + 2, times 2^h
        cp[0] <<= _2
        np.subtract(cp[0], vbl, out=cp[1])
        np.add(cp[0], _2, out=cp[2])
        cp <<= h.view(_U)
        self._rop(cp, v)
        vbl += odd
        vbr -= odd
        # one digit fewer: 10 s' or 10 (s' + 1), when exactly one lies in the
        # interval (s = vb / 4 has 16 or 17 digits, so s >= 100 always holds);
        # else s or s + 1: the one in the interval, or the nearer, or the even
        s4, sp40, f4 = cp
        np.bitwise_and(vb, _NOT3, out=s4)
        np.floor_divide(s4, _40, out=sp40)
        sp40 *= _40
        np.less_equal(vbl, s4, out=x)
        np.add(s4, _4, out=f4)
        np.less_equal(f4, vbr, out=y)
        np.not_equal(x, y, out=exact)  # exactly one of s, s + 1 lies in it
        # nearer or even: s + 1 where vb - s4 = vb & 3 is 3, or 2 with s odd,
        # that is where vb & 7 is 3, 6 or 7
        vb &= _U(7)
        _UP.take(vb.view(np.int64), out=z, mode="clip")
        # z where neither or both lie in it, else y
        np.greater(z, exact, out=z)
        z |= np.bitwise_and(y, exact, out=x)
        np.multiply(z, _4, out=f4)
        f4 += s4
        np.less_equal(vbl, sp40, out=x)
        sp40 += _40
        np.less_equal(sp40, vbr, out=y)
        np.not_equal(x, y, out=exact)
        sp40 -= np.multiply(x, _40, out=vb)
        sp40 -= f4
        f4 += np.multiply(sp40, exact, out=vb)
        f4 >>= _2
        self._layout(f4, k)
        rows = self.values.shape[1]
        for i in np.flatnonzero(fallback).tolist():
            _write(self.cells[i // rows][i % rows], repr(float(self.values.flat[i])))

    def _layout(self, f, decpt) -> None:
        """Lay out each value's digits f, of 16 or 17 digits, into its cell;
        ``decpt`` is 324 plus the decimal point position of f as 17 digits."""
        w, (lead, _, short, x) = self.w, self.b[:4]
        top, hi, lo, g1, g2, g3, g4, wide = w[8:16]
        masks, layout = w[16:20], w[20].view(np.int64)
        # 17 digits, left-aligned
        np.less(f, _E16, out=short)
        np.multiply(short, _U(9), out=top)
        top += _1
        f *= top
        decpt -= short
        # 4-digit groups; numpy divides by a constant fast, but its remainder is slow
        np.floor_divide(f, _E16, out=top)
        f -= np.multiply(top, _E16, out=hi)
        np.floor_divide(f, _E8, out=hi)
        np.subtract(f, np.multiply(hi, _E8, out=lo), out=lo)
        for group, first, second in ((hi, g1, g2), (lo, g3, g4)):
            np.floor_divide(group, _E4, out=first)
            np.subtract(group, np.multiply(first, _E4, out=second), out=second)
        # n - 1, the position of the last nonzero digit among d1..d16
        last, other = x.view(np.int8), short.view(np.int8)
        _LAST[0].take(g1.view(np.int64), out=last, mode="clip")
        for j, g in ((1, g2), (2, g3), (3, g4)):
            np.maximum(last, _LAST[j].take(g.view(np.int64), out=other, mode="clip"), out=last)
        _LAYOUTS.take(decpt, out=layout, mode="clip")
        layout += last
        # unit 0: the sign, "0." and zeros, and d0; then A = (H, L), the
        # digit units, and B, A moved up one byte
        _MASKS[:4].take(layout, axis=1, out=masks, mode="clip")
        c20, k1, s1, p1 = masks
        np.add(top, lead.view(np.uint8), out=wide)
        wide += c20
        _LEAD.take(wide.view(np.int64), out=top, mode="clip")
        self._put(0, np.positive, top)
        h, l = hi, lo
        _DIGITS.take(g1.view(np.int64), out=h, mode="clip")
        h |= _DIGITS_HI.take(g2.view(np.int64), out=wide, mode="clip")
        _DIGITS.take(g3.view(np.int64), out=l, mode="clip")
        l |= _DIGITS_HI.take(g4.view(np.int64), out=wide, mode="clip")
        np.left_shift(h, _S8, out=top)
        top &= s1
        np.bitwise_and(h, k1, out=g1)
        g1 |= top
        self._put(1, np.bitwise_or, g1, p1)
        _MASKS[4:].take(layout, axis=1, out=masks, mode="clip")
        k2, s2, p2, s3 = masks
        np.right_shift(h, _S56, out=top)
        np.left_shift(l, _S8, out=g1)
        g1 |= top
        g1 &= s2
        np.bitwise_and(l, k2, out=g2)
        g2 |= g1
        self._put(2, np.bitwise_or, g2, p2)
        # the exponent, or nothing, and the comma
        l >>= _S56
        l &= s3
        _EXPONENTS.take(decpt, out=top, mode="clip")
        self._put(3, np.bitwise_or, l, top)

    def _put(self, unit: int, ufunc, *operands) -> None:
        """Write ``ufunc(*operands)`` of the values into ``unit`` of their cells."""
        operands = [x.reshape(self.values.shape) for x in operands]
        for j, cells in enumerate(self.cells):
            ufunc(*(x[j] for x in operands), out=cells[:, unit])


def _write(cell: np.ndarray, text: str) -> None:
    """Overwrite a cell of 4 units with ``text`` and the comma already in its
    last slot."""
    slots = cell.view(np.uint8)
    slots[:31] = 0
    slots[: len(text)] = np.frombuffer(text.encode(), dtype=np.uint8)


_BLOCK = 4096


def csv_rows(columns, head: bytes = b"") -> bytearray:
    """``head``, then one line per row of the equal-length columns, its cells
    joined by commas, as ASCII bytes.

    An integer (or boolean) column has its cells written as ``str(int(v))``
    writes them, any other column as ``repr(float(v))``.  Rows are laid out
    in blocks of equal size, at most 4,096 rows, so the slots of one block
    stay in cache; the float columns of a block go through the kernel
    together.
    """
    columns = [np.asarray(col) for col in columns]
    n = len(columns[0]) if columns else 0
    if any(len(col) != n for col in columns):
        raise ValueError(f"columns of unequal lengths {[len(col) for col in columns]}")
    text = bytearray(head)
    if n == 0:
        return text
    floats = [i for i, col in enumerate(columns) if col.dtype.kind not in "biu"]
    small = {
        i: (col >= 0) & (col < 10_000) for i, col in enumerate(columns) if col.dtype.kind in "biu"
    }
    # a float column, or an int column with a value off the table, is 4
    # units (32 slots) wide, any other int column 1 unit
    widths = [1 if i in small and small[i].all() else 4 for i in range(len(columns))]
    ends = np.cumsum(widths, dtype=int)
    starts = ends - widths
    rows = -(-n // -(-n // _BLOCK))
    buffer = bytearray(rows * int(ends[-1]) * 8)
    block = np.frombuffer(buffer, dtype=_UNIT).reshape(rows, -1)
    kernel = _Floats(rows, [block[:, starts[i] : ends[i]] for i in floats])
    for lo in range(0, n, rows):
        m = min(rows, n - lo)
        if floats:
            for j, i in enumerate(floats):
                kernel.values[j, :m] = columns[i][lo : lo + m]
            kernel.values[:, m:] = 0.0
            kernel()
        for i, ok in small.items():
            _int_cells(columns[i][lo : lo + m], ok[lo : lo + m], block[:m, starts[i] : ends[i]])
        block.view(np.uint8)[:, -1] = 10
        block[m:] = 0
        text += buffer.translate(None, b"\0")
    return text


def _int_cells(x: np.ndarray, small: np.ndarray, out: np.ndarray) -> None:
    """Write the ints of x into ``out``, their rows of units (1 or 4 a row),
    each as ``str`` writes it and followed by a comma; ``small`` marks the
    values 0 <= v < 10^4, which come from the table."""
    wide = out.shape[1] > 1
    index = np.where(small, x, 0) if wide else x
    _INTS.take(index.astype(np.intp, copy=False), out=out[:, -1], mode="clip")
    if wide:
        out[:, :-1] = _0
        for i in np.flatnonzero(~small).tolist():
            _write(out[i], str(int(x[i])))
