"""crmkit.floatrepr writes each float as repr does and each int as str does.

The reference for the atoms CSV is the per-row f-string loop that wrote it
before the column-wise formatter, kept here verbatim.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crmkit import floatrepr, sampler
from crmkit.floatrepr import csv_rows


def _repr_lines(values) -> str:
    return "".join(f"{v!r}\n" for v in values)


def _old_atoms_csv(header: str, component, locations, values) -> str:
    component = np.asarray(component, dtype=int)
    locations = np.asarray(locations, dtype=float)
    values = np.asarray(values, dtype=float)
    out = io.StringIO()
    out.write(header + "\n")
    for i in range(0, component.size, 1 << 14):
        block = slice(i, i + (1 << 14))
        rows = zip(component[block].tolist(), locations[block].tolist(), values[block].tolist())
        out.write("".join([f"{c},{z!r},{v!r}\n" for c, z, v in rows]))
    return out.getvalue()


def _old_table_csv(header, rows) -> str:
    def cell(v):
        return str(int(v)) if isinstance(v, (int, np.integer)) else repr(float(v))

    return "\n".join([",".join(header)] + [",".join(cell(v) for v in row) for row in rows]) + "\n"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_float_is_written_as_repr_writes_it(values):
    # st.floats() includes nan, +-inf, +-0.0 and subnormals
    assert csv_rows([np.array(values)]) == _repr_lines(values).encode()


def test_random_bit_patterns_are_written_as_repr_writes_them():
    bits = np.random.default_rng(20_260_419).integers(0, 2**64, size=200_000, dtype=np.uint64)
    values = bits.view(float)
    assert csv_rows([values]) == _repr_lines(values.tolist()).encode()


def _edge_values() -> list[float]:
    out = [0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308]
    out += [2.0**e for e in range(-1074, 1024)]
    for e in range(-323, 309):
        v = float(f"1e{e}")
        out += [v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)]
    out += [float(2**53 + k) for k in range(-300, 301)]
    # where repr changes notation: decpt -3/-4 (1e-4, 1e-5) and 16/17 (1e15, 1e16)
    for v in (1e-4, 9.999999999999999e-5, 1e-5, 1e15, 9999999999999998.0, 1e16, 1.5e16, 1e17):
        out += [v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)]
    # three-digit exponents, both signs, and one-digit mantissas
    out += [1e100, 1.5e-100, 9.87654321e-310, 1.2345678901234567e300, 3e-5, 7e22]
    out += [float(k) for k in range(-1000, 1001)] + [k / 8 for k in range(-100, 101)]
    out += [math.inf, math.nan]
    return out + [-v for v in out]


def test_edge_values_are_written_as_repr_writes_them():
    values = _edge_values()
    assert csv_rows([np.array(values)]) == _repr_lines(values).encode()


def test_int_columns_are_written_as_str_writes_them():
    ints = [0, 1, -1, 9, 10, 99, 100, 9999, 10_000, -10_000, 123_456_789, 10**16, 10**17 - 1]
    ints += [10**17, 10**18, 2**63 - 1, -(2**63)]  # past 17 digits: one at a time
    assert csv_rows([np.array(ints, dtype=np.int64)]) == "".join(f"{i}\n" for i in ints).encode()
    assert csv_rows([np.array([True, False])]) == b"1\n0\n"
    assert csv_rows([np.array([7], dtype=np.uint8)]) == b"7\n"
    uints = [2**63, 2**64 - 1, 0, 9999]  # past int64
    assert csv_rows([np.array(uints, dtype=np.uint64)]) == "".join(f"{i}\n" for i in uints).encode()


def _str_rows(*columns) -> str:
    return "".join(",".join(str(v) for v in row) + "\n" for row in zip(*columns))


@pytest.mark.parametrize(
    "ints",
    [
        [0, 9999, 10_000, -1, 2**63 - 1, -(2**63), 10**17, 10**18],
        list(range(0, 10_000, 7)),
        [5, 123_456_789_012_345_678, 0, -42, 9999, 10_000, 3],
    ],
)
def test_int_columns_of_small_and_large_values_are_written_as_str(ints):
    col = np.array(ints, dtype=np.int64)
    floats = np.linspace(-1.0, 2.5, len(ints))
    assert csv_rows([col]) == _str_rows(ints).encode()
    assert csv_rows([col, floats]) == _str_rows(ints, floats.tolist()).encode()
    assert csv_rows([floats, col]) == _str_rows(floats.tolist(), ints).encode()
    assert csv_rows([col, floats, col]) == _str_rows(ints, floats.tolist(), ints).encode()


def test_int_columns_span_blocks():
    ints = np.arange(-3, 2 * _BLOCK)
    small = ints % 10_000
    assert csv_rows([small, ints]) == _str_rows(small.tolist(), ints.tolist()).encode()
    assert csv_rows([np.array([], dtype=int)]) == b""


def test_columns_keep_their_order_and_kind():
    ints, floats = np.array([3, -12]), np.array([0.1, -2.5e-7])
    assert csv_rows([floats, ints, floats[::-1]]) == b"0.1,3,-2.5e-07\n-2.5e-07,-12,0.1\n"
    assert csv_rows([]) == b""
    assert csv_rows([np.array([], dtype=float), np.array([], dtype=int)]) == b""
    # the per-row loop stopped at the shortest column, writing a short CSV
    with pytest.raises(ValueError, match="unequal lengths"):
        csv_rows([ints, np.array([0.5])])


_BLOCK = floatrepr._BLOCK


@pytest.mark.parametrize("size", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_atoms_csv_matches_the_per_row_loop(size):
    rng = np.random.default_rng(size)
    component = np.sort(rng.integers(1, 40, size))  # indices of one and two digits
    locations = np.sort(rng.random(size) * 30.0)
    weights = rng.gamma(0.3, 1.0, size) * 10.0 ** rng.integers(-9, 9, size)
    header = ("component", "location", "weight")
    assert sampler._table_csv(header, (component, locations, weights)) == _old_atoms_csv(
        ",".join(header), component, locations, weights
    ).encode()


def test_likelihood_observations_match_the_per_row_loop():
    observations = [0.0, -0.0, -1.5, 3.0, 1.0, 2.0**53, 1e16, 5e-324, -2.5e-310]
    observations += [math.inf, -math.inf, math.nan]
    size = len(observations)
    component = [1, 2, 9, 10, 11, 99, 100, 123, 1_000, 10_000, 12_345, 7]
    locations = np.linspace(0.01, 1.0, size)
    header = "component,location,observation"
    draw = sampler.LikelihoodDraw(locations, np.array(observations), np.array(component), "")
    assert draw.csv_text() == _old_atoms_csv(header, component, locations, observations)


def test_cli_tables_match_the_per_cell_format():
    rows = [(n, 1.0 / n, n * 1e-9, 0.5, 2.0**-n) for n in (8, 32, 128, 512)]
    header = ("n", "estimate", "se", "oracle", "gap")
    assert sampler._table_csv(header, list(zip(*rows))) == _old_table_csv(header, rows).encode()
    assert sampler._table_csv(header, []) == _old_table_csv(header, []).encode()


def _significant_digits(text: str) -> int:
    mantissa = text.lstrip("-").split("e")[0].replace(".", "")
    return len(mantissa.strip("0"))


def _with_layout(rng, n: int, decpt: int) -> float:
    """A positive double whose repr has n significant digits, the first of
    them at decimal point position decpt (value = 0.d1..dn 10^decpt)."""
    while True:
        digits = rng.integers(0, 10, n)
        digits[[0, -1]] = rng.integers(1, 10, 2)
        value = float("0." + "".join(map(str, digits)) + f"e{decpt}")
        if _significant_digits(repr(value)) == n:
            return value


# every decimal point position of fixed notation (-3..16) and, in exponent
# notation, one- to three-digit exponents of both signs
_FIXED_DECPTS = range(-3, 17)
_EXPONENT_DECPTS = (-307, -150, -99, -9, -4, 17, 22, 100, 308)


def test_every_cell_layout_is_written_as_repr_writes_it():
    rng = np.random.default_rng(40)
    values = [
        sign * _with_layout(rng, n, decpt)
        for decpt in (*_FIXED_DECPTS, *_EXPONENT_DECPTS)
        for n in range(1, 18)
        for sign in (1.0, -1.0)
    ]
    texts = [repr(v) for v in values]
    fixed = sum("e" not in t for t in texts)
    assert fixed == 2 * 17 * len(_FIXED_DECPTS)
    exponents = {"-308", "-151", "-100", "-10", "-05", "+16", "+21", "+99", "+307"}
    assert {t.split("e")[1] for t in texts if "e" in t} == exponents
    assert csv_rows([np.array(values)]) == _repr_lines(values).encode()


@pytest.mark.parametrize("size", [_BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 1, 3 * _BLOCK + 7])
def test_fallback_cells_and_wide_ints_at_the_block_edges(size):
    rows = -(-size // -(-size // _BLOCK))  # the rows of one block
    edges = {r for lo in range(0, size, rows) for r in (lo - 1, lo, lo + 1) if 0 <= r < size}
    edges |= {4095, 4096, 4097} & set(range(size))
    rng = np.random.default_rng(size)
    ints = rng.integers(0, 10_000, size)
    floats = rng.random(size) * 10.0 ** rng.integers(-8, 8, size)
    odd = [math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 2.225073858507201e-308]
    wide = [-1, 10_000, 2**63 - 1, -(2**63), 123_456_789]
    for j, r in enumerate(sorted(edges)):
        floats[r] = odd[j % len(odd)]
        ints[r] = wide[j % len(wide)]
    other = floats[::-1].copy()
    rows = zip(ints.tolist(), floats.tolist(), other.tolist())
    expected = "".join(f"{i},{x!r},{y!r}\n" for i, x, y in rows)
    assert csv_rows([ints, floats, other]) == expected.encode()
