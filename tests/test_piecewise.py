import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from crmkit.errors import CrmError, DivergenceError
from crmkit.piecewise import Piece, PiecewiseFunction, checked_quad


def test_piece_kind_validation():
    with pytest.raises(CrmError):
        Piece(0.0, 1.0, "cubic")
    with pytest.raises(CrmError):
        Piece(1.0, 1.0, "const", c0=2.0)
    with pytest.raises(CrmError):
        Piece(0.0, 1.0, "func")


def test_piece_values_scalar_and_array():
    p = Piece(0.0, 2.0, "affine", c0=1.0, c1=2.0)
    assert p.value(0.5) == 2.0
    np.testing.assert_allclose(p.value(np.array([0.0, 1.0])), [1.0, 3.0])
    q = Piece(0.0, 2.0, "func", func=lambda z: z * z)
    assert q.value(1.5) == 2.25


def test_piece_integral_closed_forms():
    assert Piece(0.0, 10.0, "const", c0=3.0).integral(1.0, 4.0) == 9.0
    # affine 2 + z over [1, 3]: 2*2 + (9 - 1)/2 = 8
    assert Piece(0.0, 10.0, "affine", c0=2.0, c1=1.0).integral(1.0, 3.0) == 8.0
    # clipping to the piece interval
    assert Piece(2.0, 3.0, "const", c0=1.0).integral(0.0, 10.0) == 1.0
    assert Piece(2.0, 3.0, "const", c0=1.0).integral(4.0, 5.0) == 0.0


def test_piece_integral_func_quad():
    p = Piece(0.0, math.inf, "func", func=lambda z: math.exp(-z))
    assert p.integral(0.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-10)


def test_piece_integral_divergent_raises_with_partial():
    p = Piece(0.0, 1.0, "func", func=lambda z: 1.0 / z if z > 0 else math.inf)
    with pytest.raises(DivergenceError) as exc:
        p.integral(0.0, 1.0)
    assert exc.value.partial is not None


def test_checked_quad_runs_quad_once_and_keeps_its_partial():
    calls = []

    def f(z):
        calls.append(z)
        return 1.0 / z

    with pytest.raises(DivergenceError) as exc:
        checked_quad(f, 0.0, 1.0)
    single = len(calls)
    val, *_ = integrate.quad(f, 0.0, 1.0, epsabs=1e-12, epsrel=1e-10, limit=300, full_output=1)
    assert len(calls) == 2 * single  # the helper made exactly one quad call
    assert exc.value.partial == val
    assert checked_quad(f, 1.0, 1.0) == 0.0


def test_overlapping_pieces_rejected():
    with pytest.raises(CrmError, match="overlap"):
        PiecewiseFunction(
            [Piece(0.0, 2.0, "const", c0=1.0), Piece(1.0, 3.0, "const", c0=2.0)]
        )
    with pytest.raises(CrmError):
        PiecewiseFunction([])


def test_piecewise_lookup_and_domain():
    f = PiecewiseFunction(
        [Piece(0.0, 1.0, "const", c0=2.0), Piece(1.0, 2.0, "affine", c0=0.0, c1=3.0)]
    )
    assert f.lo == 0.0 and f.hi == 2.0
    assert f(0.5) == 2.0
    assert f(1.5) == 4.5
    # pieces cover (lo, hi]: a breakpoint belongs to the piece ending there
    assert f(1.0) == 2.0
    assert f(2.0) == 6.0
    assert f.defined_at(1.0) and not f.defined_at(2.5)
    assert not f.defined_at(0.0)
    assert f.breakpoints() == [0.0, 1.0, 2.0]
    assert f.piece_at(5.0) is None
    with pytest.raises(CrmError):
        f(5.0)


def test_piecewise_integral_spans_pieces_and_gaps():
    f = PiecewiseFunction(
        [Piece(0.0, 1.0, "const", c0=2.0), Piece(3.0, 4.0, "const", c0=5.0)]
    )
    # the gap (1, 3) contributes nothing
    assert f.integral(0.0, 4.0) == 7.0


def test_shifted_and_scaled():
    f = PiecewiseFunction([Piece(0.0, 2.0, "affine", c0=1.0, c1=1.0)])
    assert f.shifted(2.0)(1.0) == 4.0
    assert f.scaled(0.5)(1.0) == 1.0


def test_is_exact_distinguishes_func_pieces():
    assert PiecewiseFunction.constant(1.0).is_exact()
    assert not PiecewiseFunction.from_callable(lambda z: z).is_exact()


@given(
    a=st.floats(0.0, 5.0),
    b=st.floats(0.0, 5.0),
    c=st.floats(0.0, 5.0),
)
def test_integral_additivity(a, b, c):
    lo, mid, hi = sorted((a, b, c))
    f = PiecewiseFunction(
        [Piece(0.0, 2.0, "affine", c0=1.0, c1=0.5), Piece(2.0, 6.0, "const", c0=0.25)]
    )
    whole = f.integral(lo, hi)
    split = f.integral(lo, mid) + f.integral(mid, hi)
    assert whole == pytest.approx(split, abs=1e-12)
