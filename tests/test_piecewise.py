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


def test_a_closed_form_integral_that_is_not_finite_raises():
    for piece in (
        Piece(0.0, math.inf, "const", c0=2.0),
        Piece(0.0, math.inf, "affine", c0=1.0, c1=0.5),
        Piece(0.0, math.inf, "affine", c0=-1.0, c1=1.0),  # -inf + inf at the parent
    ):
        with pytest.raises(DivergenceError, match="not finite") as exc:
            piece.integral(0.0, math.inf)
        assert exc.value.partial == math.inf
    # a zero piece has zero mass however long it runs
    assert Piece(0.0, math.inf, "const", c0=0.0).integral(0.0, math.inf) == 0.0
    assert Piece(0.0, math.inf, "affine").integral(1.0, math.inf) == 0.0
    assert PiecewiseFunction.constant(0.0).integral(0.0, math.inf) == 0.0


def _ratio(c0, c1, d0, d1, lo, hi):
    return Piece(lo, hi, "ratio", c0=c0, c1=c1, d0=d0, d1=d1)


def test_ratio_piece_value_and_validation():
    p = _ratio(1.0, 2.0, 3.0, 1.0, 0.0, 2.0)
    assert p.value(1.0) == 0.75
    np.testing.assert_array_equal(p.value(np.array([0.0, 1.0])), [1.0 / 3.0, 0.75])
    with pytest.raises(CrmError, match="d1"):
        Piece(0.0, 1.0, "ratio", c0=1.0, d0=2.0, d1=0.0)


def test_ratio_integral_matches_quadrature(ratio_branch):
    _, p = ratio_branch
    for a, b in ((p.lo, p.hi), (p.lo, 0.5 * (p.lo + p.hi)), (p.lo + 0.1, p.hi - 0.2)):
        want = checked_quad(lambda z: p.value(z), a, b)
        assert p.integral(a, b) == pytest.approx(want, rel=1e-12)
    assert p.integral(p.hi, p.hi + 1.0) == 0.0


def test_ratio_integral_divergence_is_exact():
    # 1/(2z) from 0: the denominator vanishes at the lower end
    with pytest.raises(DivergenceError, match="vanishes at z=") as exc:
        _ratio(1.0, 0.0, 0.0, 2.0, 0.0, 1.0).integral(0.0, 1.0)
    assert exc.value.partial == math.inf
    # (1 + z)/(1 - z) on (0, 2]: the pole at z = 1 lies inside
    with pytest.raises(DivergenceError, match="vanishes at z=1.0"):
        _ratio(1.0, 1.0, 1.0, -1.0, 0.0, 2.0).integral(0.5, 1.5)
    assert _ratio(1.0, 1.0, 1.0, -1.0, 0.0, 2.0).integral(0.0, 0.5) == pytest.approx(
        2.0 * math.log(2.0) - 0.5, rel=1e-14
    )
    with pytest.raises(DivergenceError, match="infinite"):
        _ratio(1.0, 0.0, 1.0, 1.0, 0.0, math.inf).integral(0.0, math.inf)
    # a denominator that cancels leaves a constant, whatever its zero
    assert _ratio(2.0, 2.0, 1.0, 1.0, -3.0, 2.0).integral(-3.0, 2.0) == 10.0


@pytest.mark.parametrize("delta", [0.5, -0.25])
def test_ratio_shifted_keeps_the_kind(delta):
    p = _ratio(1.0, 2.0, 3.0, 1.0, 0.0, 2.0)
    q = p.shifted(delta)
    assert q.kind == "ratio"
    z = np.linspace(0.1, 2.0, 7)
    np.testing.assert_allclose(q.value(z), p.value(z) + delta, rtol=1e-15)
    assert q.integral(0.0, 2.0) == pytest.approx(p.integral(0.0, 2.0) + 2.0 * delta, rel=1e-14)


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


def test_shifted():
    f = PiecewiseFunction([Piece(0.0, 2.0, "affine", c0=1.0, c1=1.0)])
    assert f.shifted(2.0)(1.0) == 4.0


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


def _mixed():
    return PiecewiseFunction(
        [
            Piece(0.0, 1.0, "const", c0=2.0),
            Piece(1.0, 2.5, "affine", c0=0.3, c1=1.7),
            Piece(2.5, 4.0, "func", func=lambda z: math.sqrt(z) + 1.0 / 3.0),
        ]
    )


def test_array_call_equals_the_scalar_loop():
    f = _mixed()
    rng = np.random.default_rng(5)
    z = np.concatenate(
        [
            [np.nextafter(0.0, 1.0), 1.0, np.nextafter(1.0, 2.0), 2.5, np.nextafter(2.5, 3.0), 4.0],
            rng.uniform(0.0, 4.0, size=200),
        ]
    )
    want = np.array([f(float(zz)) for zz in z])
    got = f(z)
    assert got.tobytes() == want.tobytes()
    # a shared breakpoint takes the left piece's value
    assert got[1] == 2.0 and got[3] == 0.3 + 1.7 * 2.5
    assert f(z.reshape(2, -1)).tobytes() == want.tobytes()
    assert f(np.empty(0)).shape == (0,)


def test_array_call_names_the_first_uncovered_z():
    f = PiecewiseFunction([Piece(0.0, 1.0, "const", c0=1.0), Piece(2.0, 3.0, "const", c0=2.0)])
    with pytest.raises(CrmError, match=r"^z=1\.5 outside the covered domain$"):
        f(np.array([0.5, 2.5, 1.5, 5.0]))
    with pytest.raises(CrmError, match=r"^z=0\.0 outside"):
        f(np.array([0.0, 0.5]))


def test_array_call_inside_one_piece_is_a_float_array_of_the_input_shape():
    f = _mixed()
    z = np.linspace(1.05, 2.45, 12).reshape(3, 4)  # all inside the affine piece
    got = f(z)
    assert got.shape == (3, 4) and got.tobytes() == np.array([f(float(zz)) for zz in z.ravel()]).tobytes()
    one = PiecewiseFunction([Piece(0.0, 2.0, "const", c0=2)])  # an int coefficient
    assert one(z[:1]).dtype == np.float64 and one(z[:1]).shape == (1, 4)
    assert one(np.array(0.5)).shape == () and one(np.array(0.5)) == 2.0
    with pytest.raises(CrmError, match=r"^z=2\.05 outside the covered domain$"):
        one(np.array([0.5, 2.05, 3.0]))
