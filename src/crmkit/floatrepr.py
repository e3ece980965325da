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

Every float cell becomes 48 byte slots, one for each character that some
cell could need at that place, NUL where this cell has none, and a comma in
the last slot.  A cell's layout depends only on its notation, the position
of its decimal point and its digit count, so a table holds one byte mask per
layout, and a cell's slots are its digits, looked up four at a time, ANDed
with its layout's mask.

An int 0 <= v < 10^4, the only kind crmkit writes (component indices, sample
sizes), is one row of a table of 8 slots: its digits and a comma.  An int
column with any other value is 48 slots wide, and each such value is written
by ``str`` one at a time.  So each column has its own slot width, 8 or 48,
and a row of the atoms CSV is 104 slots.  The last slot of a row, its last
cell's comma, becomes a newline, and the NULs of a block of rows are dropped
in one pass over the block's bytes.

Integer operands of ``uint64`` arithmetic are ``np.uint64``, so the code
means the same under numpy's value-based casting before 2.0.
"""

from __future__ import annotations

import numpy as np

__all__ = ["csv_rows"]

_U = np.uint64
_0, _1, _2, _4, _10, _40 = _U(0), _U(1), _U(2), _U(4), _U(10), _U(40)
_NOT3 = _U(2**64 - 4)
_S32, _S52, _S63 = _U(32), _U(52), _U(63)
_M32, _M52, _M63 = _U(2**32 - 1), _U(2**52 - 1), _U(2**63 - 1)
_EXP_MASK, _MAX_NORMAL = _U(0x7FF), _U(0x7FE)
_E4, _E8, _E16 = _U(10**4), _U(10**8), _U(10**16)

_K_MIN, _K_MAX = -324, 292


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


_G1, _G0 = _g_table()


def _limbs(a):
    """a, with its low and high 32 bits."""
    return a, a & _M32, a >> _S32


def _rop(g1, g0, cp):
    """cp g 2^-127 rounded to odd: its floor, with the lowest bit set when
    inexact, for g = g1 2^63 + g0 (each from ``_limbs``).

    x1 and y1 are the high 64 bits of g0 cp and g1 cp, from 32-bit limbs:
    as g0, g1 < 2^63 and cp < 2^60, the sum of the middle products stays
    below 2^64.
    """
    c0, c1 = cp & _M32, cp >> _S32
    x1, y1 = (
        a1 * c1 + ((a1 * c0 + a0 * c1 + ((a0 * c0) >> _S32)) >> _S32) for _, a0, a1 in (g0, g1)
    )
    z = ((g1[0] * cp) >> _1) + x1
    return (y1 + (z >> _S63)) | (((z & _M63) + _M63) >> _S63)


def _shortest(biased, frac):
    """Shortest round-trip decimal f 10^k of each normal double (biased exponent
    1..2046, 52-bit fraction): f has 16 or 17 digits, trailing zeros included.

    vb is 4 v / 10^k for v the double, and vbl, vbr the same of the ends of
    the interval of decimals that read back as v, each rounded to odd and
    moved in by one where an odd c leaves the ends out (reading rounds half
    to even).  A candidate of digits d is compared as 4 d.
    """
    c = frac | _U(1 << 52)
    q = biased.astype(np.int64) - 1075
    # a power of two has its lower neighbour closer, unless it is the least normal
    irregular = (frac == _0) & (q > -1074)
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(_U)
    g1, g0 = _limbs(_G1[k - _K_MIN]), _limbs(_G0[k - _K_MIN])
    out = c & _1
    cb = c << _2
    vb = _rop(g1, g0, cb << h)
    vbl = _rop(g1, g0, (cb - _2 + irregular) << h) + out
    vbr = _rop(g1, g0, (cb + _2) << h) - out
    # one digit fewer: 10 s' or 10 (s' + 1), when exactly one lies in the
    # interval (s = vb / 4 has 16 or 17 digits, so s >= 100 always holds)
    s4 = vb & _NOT3
    sp40 = s4 // _40 * _40
    upin, wpin = vbl <= sp40, sp40 + _40 <= vbr
    # else s or s + 1: the one in the interval, or the nearer, or the even
    uin, win = vbl <= s4, s4 + _4 <= vbr
    mid = s4 + _2
    pick_t = np.where(uin != win, win, (vb > mid) | ((vb == mid) & ((s4 & _4) == _4)))
    f4 = np.where(upin != wpin, np.where(upin, sp40, sp40 + _40), s4 + pick_t * _4)
    return f4 >> _2, k


def _tables():
    """The 8-byte units a float cell is made of, its layout masks, ``zeros4``
    and the 8-slot cells of the ints below 10^4.

    A float cell is 6 units, 48 slots: a leading unit, four digit units, 17
    digits in all, and an exponent unit.  Unit g < 10^4 holds g's four
    digits, each followed by 0xFF (where a point may follow the digit).
    Unit 10^4 + 10 neg + d holds the sign, "0.000" and the leading digit d
    with its 0xFF.  Unit 10^4 + 20 + 324 + e holds "e", the signed exponent
    e with at least two digits, and in its last slot the comma after the cell.

    ``masks`` has one 48-slot mask a layout: 17 (decpt + 3) + n - 1 for a
    float of n digits in fixed notation (decpt in -3..16), 340 + n - 1 for
    one in exponent notation.

    ``zeros4`` holds the trailing zeros of each 4-digit group, 4 for 0000.

    ``ints`` row v holds the four digits of unit v without its leading zeros,
    and a comma in its last slot.
    """
    d = np.arange(48, 58, dtype=np.uint8)
    digits = np.full((10_020, 8), 0xFF, dtype=np.uint8)
    grid = digits[:10_000].reshape(10, 10, 10, 10, 8)
    for i in range(4):
        grid[..., 2 * i] = d.reshape((10,) + (1,) * (3 - i))
    digits[10_000:, :6] = np.frombuffer(b"\x000.000", dtype=np.uint8)
    digits[10_010:, 0] = 45
    digits[10_000:, 6] = np.tile(d, 2)
    e = np.arange(-324, 325)
    exponents = np.zeros((649, 8), dtype=np.uint8)
    exponents[:, 0], exponents[:, 1], exponents[:, 7] = 101, np.where(e < 0, 45, 43), 44
    exponents[:, 2:5] = digits[np.abs(e), 2::2][:, :3]
    exponents[np.abs(e) < 100, 2] = 0
    units = np.concatenate([digits, exponents]).view(_U).ravel()
    zeros4 = np.zeros(10_000, dtype=np.intp)
    for step in (10, 100, 1000, 10_000):
        zeros4[::step] += 1

    v = np.arange(10_000)
    ints = np.zeros((10_000, 8), dtype=np.uint8)
    ints[:, :4] = digits[:10_000, ::2]
    ints[:, :3] *= np.arange(3) >= (3 - (v >= 10) - (v >= 100) - (v >= 1000))[:, None]
    ints[:, 7] = 44

    layout = np.arange(357)
    n = layout % 17 + 1
    decpt = layout // 17 - 3
    fixed = layout < 340
    small = fixed & (decpt <= 0)
    end = np.where(fixed & (decpt >= 1), np.maximum(n, decpt + 1), n)
    point = np.where(fixed, decpt - 1, np.where(n == 1, -1, 0))  # the digit it follows
    masks = np.zeros((357, 48), dtype=np.uint8)
    masks[:, [0, 47]] = 0xFF
    masks[:, 1:3] = small[:, None] * np.uint8(0xFF)
    masks[:, 3:6] = (small[:, None] & (np.arange(3) >= 3 + decpt[:, None])) * np.uint8(0xFF)
    j = np.arange(17)
    masks[:, 6:40:2] = (j < end[:, None]) * np.uint8(0xFF)
    masks[:, 7:40:2] = (j == point[:, None]) * np.uint8(46)
    masks[:, 40:45] = ~fixed[:, None] * np.uint8(0xFF)
    return units, masks.view(_U), zeros4, ints.view(_U).ravel()


_UNITS, _MASKS, _ZEROS4, _INTS = _tables()


def _cells(x: np.ndarray) -> np.ndarray:
    """The (len(x), 6) units of the 48 slots of the floats of x, each as
    ``repr`` writes it and followed by a comma."""
    x = np.ascontiguousarray(x, dtype=float)
    bits = x.view(_U)
    biased = (bits >> _S52) & _EXP_MASK
    frac = bits & _M52
    zero = (biased == _0) & (frac == _0)
    fallback = ~zero & ((biased == _0) | (biased == _EXP_MASK))
    f, k = _shortest(np.clip(biased, _1, _MAX_NORMAL), frac)
    # 17 digits, left-aligned; zero is the digit 0 at decpt 1
    short = f < _E16
    f = np.where(short, f * _10, f) * ~zero
    decpt = np.where(zero, 1, k + 17 - short)
    # 4-digit groups; numpy divides by a constant fast, but its remainder is slow
    top = f // _E16
    rest = f - top * _E16
    hi = rest // _E8
    lo = rest - hi * _E8
    units = np.empty((len(x), 6), dtype=np.intp)
    units[:, 0] = top + _U(10_000) + (bits >> _S63) * _10
    for j, group in ((1, hi), (3, lo)):
        units[:, j] = q = group // _E4
        units[:, j + 1] = group - q * _E4
    units[:, 5] = 10_020 + 324 + decpt - 1  # the exponent unit of e = decpt - 1
    # n digits once the trailing zeros of the 4-digit groups are dropped
    z4, z3, z2, z1 = (_ZEROS4.take(units[:, i]) for i in (4, 3, 2, 1))
    n = 17 - (z4 + (z4 == 4) * (z3 + (z3 == 4) * (z2 + (z2 == 4) * z1)))
    fixed = (decpt > -4) & (decpt <= 16)  # CPython's 'r' rule
    layout = np.where(fixed, 17 * (decpt + 3), 340) + n - 1
    cells = _UNITS.take(units)
    np.bitwise_and(cells, _MASKS.take(layout, axis=0), out=cells)
    _write_each(cells, np.flatnonzero(fallback), lambda i: repr(x[i].item()))
    return cells


def _int_cells(x: np.ndarray, small: np.ndarray, out: np.ndarray) -> None:
    """Write the ints of x into ``out``, their rows of units (1 or 6 a row),
    each as ``str`` writes it and followed by a comma; ``small`` marks the
    values 0 <= v < 10^4, which come from the table."""
    out[:, -1] = _INTS.take(np.where(small, x, 0).astype(np.intp))
    if out.shape[1] > 1:
        out[:, :-1] = _0
        _write_each(out, np.flatnonzero(~small), lambda i: str(int(x[i])))


def _write_each(cells: np.ndarray, rows: np.ndarray, text_of) -> None:
    """Overwrite the 48-slot cells of the given rows with ``text_of(row)``
    and the comma already in their last slot."""
    slots = cells.view(np.uint8)
    for i in rows.tolist():
        text = text_of(i).encode()
        slots[i, :47] = 0
        slots[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)


_BLOCK = 4096


def csv_rows(columns) -> str:
    """One line per row of the equal-length columns, its cells joined by commas.

    An integer (or boolean) column has its cells written as ``str(int(v))``
    writes them, any other column as ``repr(float(v))``.  Rows are laid out
    in blocks of 4,096, so the slots of one block stay in cache; the float
    columns of a block go through the kernel together.
    """
    columns = [np.asarray(col) for col in columns]
    n = len(columns[0]) if columns else 0
    if any(len(col) != n for col in columns):
        raise ValueError(f"columns of unequal lengths {[len(col) for col in columns]}")
    floats = [i for i, col in enumerate(columns) if col.dtype.kind not in "biu"]
    small = {
        i: (col >= 0) & (col < 10_000) for i, col in enumerate(columns) if col.dtype.kind in "biu"
    }
    # a float column, or an int column with a value off the table, is 6
    # units (48 slots) wide, any other int column 1 unit
    widths = [1 if i in small and small[i].all() else 6 for i in range(len(columns))]
    ends = np.cumsum(widths, dtype=int)
    starts = ends - widths
    text = []
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        block = np.empty((hi - lo, ends[-1]), dtype=_U)
        if floats:
            values = np.column_stack([columns[i][lo:hi] for i in floats]).ravel()
            cells = _cells(values).reshape(hi - lo, len(floats), 6)
            for j, i in enumerate(floats):
                block[:, starts[i] : ends[i]] = cells[:, j]
        for i, ok in small.items():
            _int_cells(columns[i][lo:hi], ok[lo:hi], block[:, starts[i] : ends[i]])
        slots = block.view(np.uint8)
        slots[:, -1] = 10
        text.append(slots.tobytes().translate(None, b"\0"))
    return b"".join(text).decode()
