"""Exponential-polynomial stretches: closed-form location integrals.

Where one coordinate of the path is affine and the base cancels the family's
normaliser to a polynomial q(z), the Levy density's location integral is
int q(z) e^{E(z)} dz with E affine in z.  Here each case is written out by
hand, q and E from its density, and integrated in mpmath at 80 digits by the
antiderivative e^{E} sum_k (-1)^k q^{(k)} / E'^{k+1}, a route the code does
not take.
"""

import math

import mpmath as mp
import numpy as np
import pytest

import crmkit
from crmkit import quadpack, verify
from crmkit.errors import NaturalSpaceError
from crmkit.expfam import ParameterPath, make_family
from crmkit.levy import BaseMeasure, LevyContext, density_table, laplace_exponent, levy_density_u
from crmkit.piecewise import Piece, PiecewiseFunction

INF = math.inf


def _pieces(*pieces):
    return PiecewiseFunction(list(pieces))


def _pareto_term(a0, a1):
    """Term n = 2 of a Pareto series with alpha(z) = a0 + a1 z on (0.25, 1]: shape
    2 alpha(z), base dz / (2 alpha(z)), weight u = ln s; scale 1."""
    (series, _) = crmkit.parse_sample_config(
        {"pareto_series": {"components": 2, "scale": 1.0, "support": [0.25, 1.0], "alpha": {"affine": [a0, a1]}}}
    )
    return series[1]


def _beta_decomposition(c0, c1, hi, n0, n1):
    """Beta(1, c0 + c1 z) over the base (n0 + n1 z) / (c0 + c1 z) on (0, hi], u = ln s."""
    path = ParameterPath([_pieces(Piece(0.0, hi, "const", c0=1.0)), _pieces(Piece(0.0, hi, "affine", c0=c0, c1=c1))])
    base = BaseMeasure(_pieces(Piece(0.0, hi, "ratio", c0=n0, c1=n1, d0=c0, d1=c1)))
    return LevyContext.build(make_family("beta"), path, base, k=1)


def _gamma_decomposition(r0, r1, hi):
    """Gamma(2, r0 + r1 z) over the base 1/8 on (0, hi], u = s."""
    path = ParameterPath([_pieces(Piece(0.0, hi, "const", c0=2.0)), _pieces(Piece(0.0, hi, "affine", c0=r0, c1=r1))])
    return LevyContext.build(make_family("gamma"), path, BaseMeasure.lebesgue(0.125, hi=hi), k=2)


# case: (context, lo, (q's coefficients in z, E(z) = E0 + E1 z) at u, as mpf)
def _pareto_parts(a0, a1):
    # p(s) s' / (2 alpha) = s^{-2 alpha}, s = e^u: q = 1, E = -2 alpha(z) u
    return lambda u: ([mp.mpf(1)], -2 * mp.mpf(a0) * u, -2 * mp.mpf(a1) * u)


def _beta_parts(c0, c1, n0, n1):
    # b (1 - s)^{b - 1} (n0 + n1 z)/b, times s' = e^u: q = (n0 + n1 z) e^u, E = (b(z) - 1) ln(1 - e^u)
    def parts(u):
        log_1ms = mp.log1p(-mp.exp(u))
        return [mp.mpf(n0) * mp.exp(u), mp.mpf(n1) * mp.exp(u)], (mp.mpf(c0) - 1) * log_1ms, mp.mpf(c1) * log_1ms
    return parts


def _gamma_parts(r0, r1):
    # b^2 s e^{-b s} / 8: q = s (r0 + r1 z)^2 / 8, E = -(r0 + r1 z) s
    def parts(s):
        r0_, r1_ = mp.mpf(r0), mp.mpf(r1)
        return [s * r0_ ** 2 / 8, s * 2 * r0_ * r1_ / 8, s * r1_ ** 2 / 8], -r0_ * s, -r1_ * s
    return parts


CASES = {
    # degree 0, lambda_1 = -2 a1 u: negative, then positive
    "pareto_up": (lambda: _pareto_term(0.0, 1.0), 0.25, _pareto_parts(0.0, 1.0)),
    "pareto_down": (lambda: _pareto_term(2.0, -1.0), 0.25, _pareto_parts(2.0, -1.0)),
    # ratio base, degree 1, lambda_1 = c1 ln(1 - s)
    "beta_up": (lambda: _beta_decomposition(3.0, 1.0, INF, 1.0, 1.0), 0.0, _beta_parts(3.0, 1.0, 1.0, 1.0)),
    "beta_down": (lambda: _beta_decomposition(5.0, -1.0, 2.0, 3.0, -1.0), 0.0, _beta_parts(5.0, -1.0, 3.0, -1.0)),
    # degree 2, lambda_1 = -r1 s
    "gamma_up": (lambda: _gamma_decomposition(0.5, 0.5, INF), 0.0, _gamma_parts(0.5, 0.5)),
    "gamma_down": (lambda: _gamma_decomposition(2.0, -0.5, 2.0), 0.0, _gamma_parts(2.0, -0.5)),
}


def _mp_density(parts, lo, t, u):
    """The 80-digit location integral over (lo, t] by the antiderivative, or where
    E' (t - lo) is below 1e-30 by e^{E} = e^{E0} sum_i (E' z)^i / i!, four terms."""
    with mp.workdps(80):
        q, e0, e1 = parts(mp.mpf(u))
        a, b = mp.mpf(lo), mp.mpf(t)
        if abs(e1) * max(abs(a), abs(b)) < mp.mpf(10) ** -30:
            moments = [sum(c * (b ** (j + i + 1) - a ** (j + i + 1)) / (j + i + 1) for j, c in enumerate(q))
                       for i in range(5)]
            return mp.exp(e0) * sum(e1 ** i / mp.factorial(i) * m for i, m in enumerate(moments))

        def antiderivative(z):
            derivs, total, coeffs = [], mp.mpf(0), list(q)
            while coeffs:  # q^{(k)}(z) for k = 0, 1, ...
                derivs.append(sum(c * z ** i for i, c in enumerate(coeffs)))
                coeffs = [i * c for i, c in enumerate(coeffs)][1:]
            for k, d in enumerate(derivs):
                total += (-1) ** k * d / e1 ** (k + 1)
            return mp.exp(e0 + e1 * z) * total

        return antiderivative(b) - antiderivative(a)


def _points(case):
    """(t, u): mu = |lambda_1| h from 1e-12 to 700 at two horizons, and u toward each
    end of the weight image, where s rounds onto the support's end."""
    out = []
    for frac in (0.5, 1.0):
        if case.startswith("pareto"):
            h, slope = 0.75 * frac, 2.0
        else:
            h, slope = 2.0 * frac, (1.0 if case.startswith("beta") else 0.5)
        t = (0.25 if case.startswith("pareto") else 0.0) + h
        for mu in (1e-12, 1e-6, 1e-3, 0.05, 0.3, 0.9, 2.0, 5.0, 20.0, 100.0, 700.0):
            w = mu / (slope * h)
            if case.startswith("beta"):  # ln(1 - e^u) = -w, u = -e^{-w} to the double where w is large
                out.append((t, math.log(-math.expm1(-w)) if w < 40.0 else -math.exp(-w)))
            else:
                out.append((t, w))
        ends = {"pareto": (1e-300, 1e-17, 300.0), "beta": (-700.0, -1e-17, -1e-300), "gamma": (1e-300, 1e-17, 1000.0)}
        out += [(t, u) for u in ends[case.split("_")[0]]]
    return out


# the largest distance from the 80-digit value, in units of the value's ulp: the
# nearest double is within 0.5, and a long-double evaluation rounds to the other
# neighbour only within a few long-double ulps of a midpoint
ULPS = {"pareto_up": 0.5, "pareto_down": 0.5, "beta_up": 0.5, "beta_down": 0.5, "gamma_up": 1.0, "gamma_down": 1.0}


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_closed_form_holds_to_an_80_digit_value(case):
    make, lo, parts = CASES[case]
    ctx = make()
    worst = 0.0
    for t, u in _points(case):
        got = levy_density_u(ctx, t, u)
        want = _mp_density(parts, lo, t, u)
        if float(want) == 0.0:
            assert got == 0.0, (t, u, got)
            continue
        worst = max(worst, float(abs(mp.mpf(got) - want) / math.ulp(float(want))))
    assert worst <= ULPS[case]


def _refuse_quad(*args, **kwargs):
    raise AssertionError("QUADPACK was called")


def test_the_decompositions_take_their_densities_without_quadpack(monkeypatch):
    contexts = [
        verify.gamma_decomposition_context(1, 2),
        verify.beta_decomposition_context(2),
        _pareto_term(0.0, 1.0),
    ]
    us = [(0.05, 1.0, 4.0), (-3.0, -0.5, -0.05), (0.05, 1.0, 3.0)]
    want = [[levy_density_u(ctx, 1.5, u) for u in points] for ctx, points in zip(contexts, us)]
    monkeypatch.setattr(quadpack, "qag", _refuse_quad)
    for ctx, points, values in zip(contexts, us, want):
        assert [levy_density_u(ctx, 1.5, u) for u in points] == values
        assert [v for _, _, v in density_table(ctx, 1.5, points)] == values
    # the Laplace exponent's tilt integrand stays on QUADPACK
    with pytest.raises(AssertionError, match="QUADPACK was called"):
        laplace_exponent(contexts[0], 1.5, 1.0)


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_batch_of_u_with_points_at_the_support_end_gives_each_one_point_double(case):
    make, _, _ = CASES[case]
    ctx = make()
    for t in sorted({t for t, _ in _points(case)}):
        us = [u for t_, u in _points(case) if t_ == t]
        singles = [levy_density_u(ctx, t, u) for u in us]
        assert all(type(v) is float and math.isfinite(v) for v in singles)
        assert levy_density_u(ctx, t, np.array(us)).tolist() == singles


def test_a_beta_inverse_that_rounds_onto_the_support_end_is_evaluated_from_u():
    # u = -1e-17 maps to s = e^u, which rounds to 1.0; 1 - s = -expm1(u) does not
    ctx = verify.beta_decomposition_context(2)
    got = levy_density_u(ctx, 1.0, -1e-17)
    want = _mp_density(_beta_parts(3.0, 1.0, 1.0, 1.0), 0.0, 1.0, -1e-17)
    assert got == float(want) > 0.0
    # k = 2: s = 1 - e^u rounds to 1.0 as u falls; the density there is e^{u} times
    # the beta(2, 3) density at 1 - s = e^u, (1 - s)^2 s^1 12 ~ 12 e^{3u}
    beta = make_family("beta")
    path = ParameterPath.constant([2.0, 3.0])
    flipped = LevyContext.build(beta, path, BaseMeasure.lebesgue(1.0), k=2)
    u = -40.0
    with mp.workdps(40):
        s = -mp.expm1(mp.mpf(u))
        want = 12 * s * (1 - s) ** 2 * mp.exp(mp.mpf(u))
    assert levy_density_u(flipped, 1.0, u) == pytest.approx(float(want), rel=1e-15)


def test_an_affine_eta_leaving_the_natural_space_inside_a_stretch_keeps_its_error():
    # the rate 1 - z leaves the natural space at z = 1, inside the stretch (0, 2]:
    # the stretch is no exponential-polynomial one, and QUADPACK's first batch of
    # nodes names its first, the centre z = 1
    path = ParameterPath([_pieces(Piece(0.0, 2.0, "const", c0=2.0)), _pieces(Piece(0.0, 2.0, "affine", c0=1.0, c1=-1.0))])
    ctx = LevyContext.build(make_family("gamma"), path, BaseMeasure.lebesgue(1.0, hi=2.0), k=2, require_conditions=False)
    assert ctx._plan.stretches[0].poly is None
    with pytest.raises(NaturalSpaceError) as exc:
        levy_density_u(ctx, 2.0, 0.7)
    assert str(exc.value) == "gamma: rate must be positive, got 0.0"
    assert exc.value.index == 0
