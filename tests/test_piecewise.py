import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from crmkit import quadpack
from crmkit.errors import CrmError, DivergenceError
from crmkit.piecewise import Piece, PiecewiseFunction, checked_quad


def test_piece_kind_validation():
    with pytest.raises(CrmError):
        Piece(0.0, 1.0, "cubic")
    with pytest.raises(CrmError):
        Piece(1.0, 1.0, "const", c0=2.0)
    with pytest.raises(CrmError):
        Piece(0.0, 1.0, "func")
    for name in ("c0", "c1", "d0", "d1"):
        for value in (math.nan, math.inf, -math.inf, 10**400, True):
            with pytest.raises(CrmError, match=f"^piece on \\(0.0, 1.0\\] has {name} = {value}, not a finite number$"):
                Piece(0.0, 1.0, "ratio", **{"c0": 1.0, "d1": 1.0, name: value})


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

    def f(zs):
        calls.append(len(zs))
        return 1.0 / zs

    with pytest.raises(DivergenceError, match="did not stabilize: the limit of 300 subintervals") as exc:
        checked_quad(f, 0.0, 1.0)
    single = len(calls)
    val, _, last, ier = quadpack.qag(f, 0.0, 1.0)
    assert (last, ier) == (300, 1)
    # one call per step: the first rule's 21 nodes, then both halves' 42 per bisection
    assert calls == ([21] + [42] * (last - 1)) * 2 and single == last
    want, *_ = integrate.quad(lambda z: 1.0 / z, 0.0, 1.0, epsabs=1e-12, epsrel=1e-10, limit=300, full_output=1)
    assert exc.value.partial == val == want
    assert checked_quad(f, 1.0, 1.0) == 0.0


def test_checked_quad_over_points_gives_each_points_own_double(monkeypatch):
    # 1/sqrt(c + z) on (0, 1): the first rule settles c = 1 and c = 2; c = 0,
    # whose integrand is singular at 0, bisects, in the same batch
    def f(zs, c):
        return 1.0 / np.sqrt(c[..., None] + zs)

    points = np.array([[1.0, 0.0, 2.0]])
    singles = [checked_quad(lambda zs, c=c: f(zs, np.float64(c)), 0.0, 1.0) for c in points.ravel().tolist()]
    qag, runs = quadpack.qag, []

    def counted(g, a, b, points=None):
        rows = qag(g, a, b, points)
        if points is not None:
            runs.append((a, b, [row[2] for row in rows]))
        return rows

    monkeypatch.setattr(quadpack, "qag", counted)
    got = checked_quad(f, 0.0, 1.0, points)
    ((a, b, lasts),) = runs
    assert got.shape == (1, 3) and got.ravel().tolist() == singles
    assert (a, b) == (0.0, 1.0) and lasts[0] == lasts[2] == 1 < lasts[1]
    assert checked_quad(f, 0.0, 1.0, np.float64(2.0)) == singles[2]
    # an infinite end takes the same one batch; an empty window is zeros of the points' shape
    def decay(zs, c):
        return np.exp(-c[..., None] * zs)

    want = [checked_quad(lambda zs, c=c: decay(zs, np.float64(c)), 0.0, math.inf) for c in (1.0, 4.0)]
    runs.clear()
    assert checked_quad(decay, 0.0, math.inf, np.array([1.0, 4.0])).tolist() == want
    assert [(a, b) for a, b, _ in runs] == [(0.0, math.inf)]
    assert checked_quad(f, 1.0, 1.0, points).tolist() == [[0.0, 0.0, 0.0]]


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


def test_defined_at_over_an_array_is_one_mask_per_piece():
    # a shared breakpoint at 1, a gap on (2, 3], then a piece on (3, 4]
    f = PiecewiseFunction(
        [
            Piece(0.0, 1.0, "const", c0=2.0),
            Piece(1.0, 2.0, "affine", c0=0.0, c1=3.0),
            Piece(3.0, 4.0, "const", c0=5.0),
        ]
    )
    zs = np.array([0.0, 0.5, 1.0, np.nextafter(1.0, 2.0), 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, math.nan])
    want = [False, True, True, True, True, False, False, True, True, False, False]
    got = f.defined_at(zs)
    assert got.dtype == np.bool_ and got.tolist() == want
    assert f.defined_at(zs[:10].reshape(2, 5)).tolist() == [want[:5], want[5:10]]
    assert f.defined_at(np.empty(0)).shape == (0,)
    # a scalar is a batch of one that gives back a bool; a 0-d array stays 0-d
    assert [f.defined_at(z) for z in zs.tolist()] == want
    assert type(f.defined_at(np.float64(2.5))) is bool and type(f.defined_at(1.0)) is bool
    assert f.defined_at(np.array(1.0)).shape == () and f.defined_at(np.array(1.0))
    assert type(f(np.float64(1.5))) is float and f(1.5) == 4.5
    with pytest.raises(CrmError, match=r"^z=nan outside the covered domain$"):
        f(math.nan)


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


def _by_piece_at(f, zs):
    """f at each z from the piece that ``piece_at``'s scalar (lo, hi] loop picks."""
    return np.array([float(f.piece_at(z).value(z)) for z in np.ravel(zs).tolist()])


def test_array_call_equals_the_scalar_loop():
    f = _mixed()
    rng = np.random.default_rng(5)
    z = np.concatenate(
        [
            [np.nextafter(0.0, 1.0), 1.0, np.nextafter(1.0, 2.0), 2.5, np.nextafter(2.5, 3.0), 4.0],
            rng.uniform(0.0, 4.0, size=200),
        ]
    )
    want = _by_piece_at(f, z)
    got = f(z)
    assert np.array([f(float(zz)) for zz in z]).tobytes() == want.tobytes()
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
    assert got.shape == (3, 4) and got.tobytes() == _by_piece_at(f, z).tobytes()
    one = PiecewiseFunction([Piece(0.0, 2.0, "const", c0=2)])  # an int coefficient
    assert one(z[:1]).dtype == np.float64 and one(z[:1]).shape == (1, 4)
    assert one(np.array(0.5)).shape == () and one(np.array(0.5)) == 2.0
    with pytest.raises(CrmError, match=r"^z=2\.05 outside the covered domain$"):
        one(np.array([0.5, 2.05, 3.0]))


@pytest.mark.parametrize(
    "piece",
    [
        Piece(0.0, 2.0, "const", c0=3.0),
        Piece(0.0, 2.0, "affine", c0=1.5, c1=-0.5),
        Piece(0.0, 2.0, "ratio", c0=3.0, c1=1.0, d0=1.0, d1=1.0),
        Piece(0.0, 2.0, "ratio", c0=1.0, c1=1.0, d0=3.0, d1=1.0),
        Piece(0.0, 2.0, "func", func=lambda z: math.exp(-z) + 0.5),
    ],
    ids=["const", "affine", "ratio K>0", "ratio K<0", "func"],
)
def test_locate_inverts_the_integral_over_a_window_inside_the_piece(piece):
    # the window is clipped as integral clips it: (-1, 1.7] is (0, 1.7] here,
    # and (0.3, 1.7] starts inside the piece, where its clipped copy starts
    for a, b in ((-1.0, 1.7), (0.3, 1.7), (0.3, 5.0)):
        lo, hi = max(a, piece.lo), min(b, piece.hi)
        mass = piece.integral(a, b)
        rem = np.concatenate([[0.0], np.random.default_rng(4).uniform(0.0, mass, 20), [mass]])
        z = piece.locate(rem, a, b)
        assert z.tobytes() == replace(piece, lo=lo, hi=hi).locate(rem, lo, hi).tobytes()
        assert z[0] == pytest.approx(lo, abs=1e-12) and z[-1] == pytest.approx(hi, rel=1e-12)
        # closed forms may round a few ulps past an end, which the sampler clamps
        assert np.all((lo - 1e-12 <= z) & (z <= hi * (1 + 1e-12)))
        got = [piece.integral(lo, zz) for zz in z.tolist()]
        np.testing.assert_allclose(got, rem, rtol=1e-10, atol=1e-12 * mass)


def test_locate_on_a_func_piece_brackets_its_window():
    # brentq on (a, b) itself: a zero remainder is a, the window's mass is b
    piece = Piece(0.0, math.inf, "func", func=lambda z: math.exp(-z))
    a, b = 0.25, 1.5
    mass = piece.integral(a, b)
    z = piece.locate(np.array([0.0, mass]), a, b)
    assert z.tolist() == [a, b]


def test_a_windows_integral_is_the_base_measures_increment_to_the_bit():
    from crmkit.levy import BaseMeasure

    # gaps (1, 2] and (4, 5], a func piece, and pieces that miss most windows
    density = PiecewiseFunction(
        [
            Piece(0.0, 1.0, "affine", c0=0.3, c1=0.7),
            Piece(2.0, 3.0, "ratio", c0=1.0, c1=2.0, d0=1.0, d1=3.0),
            Piece(3.0, 4.0, "func", func=lambda z: math.exp(-z) + 0.1 * z),
            Piece(5.0, 8.0, "const", c0=1.0 / 3.0),
        ]
    )
    base = BaseMeasure(density)
    windows = [
        (0.0, 8.0), (0.1, 0.7), (0.5, 2.5), (1.2, 1.8), (1.5, 3.5), (2.9, 3.1),
        (3.3, 4.6), (4.2, 4.8), (4.5, 6.0), (-1.0, 10.0), (7.5, 9.0), (9.0, 12.0), (2.0, 2.0), (3.0, 1.0),
    ]
    for a, b in windows:
        assert density.integral(a, b).hex() == base.increment(a, b).hex(), (a, b)
