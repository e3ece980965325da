import dataclasses
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
from scipy import special

from crmkit import expfam, levy, piecewise, quadpack, verify
from crmkit.config import load_json, parse_sample_config
from crmkit.errors import (
    ConditionError,
    CrmError,
    DivergenceError,
    NaturalSpaceError,
    SupportError,
)
from crmkit.expfam import ParameterPath, make_family
from crmkit.levy import (
    BaseMeasure,
    FiniteActivity,
    LevyContext,
    NotTimeHomogeneous,
    check_conditions,
    classify_activity,
    density_table,
    laplace_exponent,
    levy_density_s,
    levy_density_u,
    levy_integrand,
    stat_laplace,
)
from crmkit.piecewise import Piece, PiecewiseFunction


def test_base_measure_validation():
    with pytest.raises(CrmError):
        BaseMeasure(PiecewiseFunction.constant(1.0), jumps=((1.0, -2.0),))
    with pytest.raises(CrmError):
        BaseMeasure(PiecewiseFunction.constant(1.0), jumps=((-1.0, 2.0),))
    # an infinite mass used to reach numpy's Poisson draw, an infinite location the
    # config hash; an int beyond the double range raised OverflowError
    jumps = [(0.5, math.nan), (math.nan, 1.0), (0.5, math.inf), (math.inf, 1.0), (-math.inf, 1.0), (0.5, 10**400)]
    for jump in jumps:
        with pytest.raises(CrmError, match=r"^base measure jump \(.*\) must be finite$"):
            BaseMeasure(PiecewiseFunction.constant(1.0), jumps=(jump,))


@pytest.mark.parametrize(
    "piece",
    [
        Piece(0.0, math.inf, "const", c0=-1.0),
        Piece(0.0, 2.0, "affine", c0=1.0, c1=-1.0),
        Piece(0.0, math.inf, "affine", c0=5.0, c1=-1e-9),
        Piece(0.0, 2.0, "ratio", c0=1.0, d0=-1.0, d1=1.0),  # 1/(z - 1): a pole inside
        Piece(0.0, 1.0, "ratio", c0=-1.0, d0=0.0, d1=2.0),  # -1/(2z): a pole on its left end
        Piece(0.0, 1.0, "ratio", c0=-1.0, d0=1.0, d1=-1.0),  # -1/(1 - z): a pole on its right end
        Piece(0.0, math.inf, "ratio", c0=2.0, c1=-1.0, d0=1.0, d1=1.0),  # (2 - z)/(1 + z)
    ],
    ids=["const", "affine", "affine-tail", "ratio-inner-pole", "ratio-left-pole", "ratio-right-pole", "ratio-tail"],
)
def test_a_negative_base_density_is_refused_where_the_base_is_made(piece):
    with pytest.raises(CrmError) as exc:
        BaseMeasure(PiecewiseFunction([piece]))
    assert str(exc.value) == f"base density {piece.kind} piece on ({piece.lo}, {piece.hi}] must be nonnegative"


def test_a_base_density_that_is_nonnegative_or_a_func_builds():
    with pytest.raises(CrmError, match="const piece on"):
        BaseMeasure.lebesgue(-1.0)
    # 1/(2z) from 0 and 1/(1 - z) up to 1: a pole on an end builds, and its mass diverges
    for piece in (
        Piece(0.0, 1.0, "ratio", c0=1.0, d0=0.0, d1=2.0),
        Piece(0.0, 1.0, "ratio", c0=1.0, d0=1.0, d1=-1.0),
    ):
        with pytest.raises(DivergenceError):
            BaseMeasure(PiecewiseFunction([piece])).increment(0.0, 1.0)
    for piece in (
        Piece(0.0, 1.0, "affine", c0=1.0, c1=-1.0),  # 0 at its right end
        Piece(0.0, math.inf, "affine", c0=0.0, c1=2.0),
        Piece(1.0, 2.0, "ratio", c0=-1.0, c1=1.0, d0=1.0, d1=1.0),  # (z - 1)/(z + 1), 0 at 1
        Piece(0.0, 1.5, "ratio", c0=-1.0, c1=-2.0, d0=-1.0, d1=-0.5),  # a negative denominator
        Piece(0.0, math.inf, "ratio", c0=2.0, c1=2.0, d0=1.0, d1=1.0),  # the constant 2
        Piece(0.0, 1.0, "func", func=lambda z: -1.0),  # not checked
    ):
        BaseMeasure(PiecewiseFunction([piece]))


def test_base_measure_window_convention():
    base = BaseMeasure(PiecewiseFunction.constant(0.0), jumps=((1.0, 2.0),))
    # jumps land in half-open windows (a, b]: the jump at 1 belongs to (0, 1]
    assert base.increment(0.0, 1.0) == 2.0
    assert base.increment(1.0, 2.0) == 0.0
    assert base.increment(0.5, 1.5) == 2.0
    assert base.jumps_in(1.0, 2.0) == []


def test_segments_total_is_the_increment_double_and_each_window_its_part():
    base = BaseMeasure(
        PiecewiseFunction(
            [
                Piece(0.0, 0.3, "const", c0=0.1),
                Piece(0.3, 0.7, "affine", c0=0.2, c1=1.0 / 3.0),
                Piece(0.7, 1.1, "ratio", c0=1.0, c1=0.7, d0=0.3, d1=1.1),
                Piece(1.1, 1.9, "func", func=lambda z: math.exp(-z) / 3.0),
                Piece(1.9, 4.0, "const", c0=0.7),
            ]
        ),
        jumps=((0.2, 0.1), (1.5, 1.0 / 7.0), (3.0, 0.3)),
    )
    for a, b in ((0.0, 2.5), (0.1, 1.5), (0.25, 0.3), (1.2, 1.3), (0.0, 10.0), (4.0, 5.0)):
        pieces, jumps, total = base.segments(a, b)
        assert total.hex() == base.increment(a, b).hex(), (a, b)
        assert jumps == base.jumps_in(a, b)
        for piece, lo, hi, mass in pieces:
            assert (lo, hi) == (max(a, piece.lo), min(b, piece.hi)) and lo < hi
            assert mass == piece.integral(a, b)
        assert [p for p, *_ in pieces] == [p for p in base.density.pieces if p.lo < b and a < p.hi]


def test_null_and_atoms_constructors():
    assert BaseMeasure.null().increment(0.0, 100.0) == 0.0
    atoms = BaseMeasure.atoms([(0.5, 1.0), (2.0, 3.0)])
    assert atoms.increment(0.0, 1.0) == 1.0
    assert atoms.increment(0.0, 2.0) == 4.0


def test_conditions_pass_for_gamma_constant(gamma_const_ctx):
    report = gamma_const_ctx.report
    assert report.passed
    assert {c.name for c in report.checks} == {
        "invertible_statistic",
        "path_in_natural_space",
        "contraction_closure",
    }


def test_conditions_fail_for_pareto_contraction():
    pareto = make_family("pareto", scale=1.0)
    path = ParameterPath.constant([-3.0])
    report = check_conditions(pareto, path, 1, grid=np.linspace(0.1, 2.0, 9))
    failed = report.check("contraction_closure")
    assert not failed.passed
    assert failed.witnesses  # the contraction factor that exits the space

    with pytest.raises(ConditionError):
        LevyContext.build(pareto, path, BaseMeasure.lebesgue(1.0), k=1)
    ctx = LevyContext.build(
        pareto, path, BaseMeasure.lebesgue(1.0), k=1, require_conditions=False
    )
    assert not ctx.report.passed


def test_a_strict_context_cannot_hold_a_failed_report():
    """Made directly or by ``dataclasses.replace``, a strict context with a
    failed report raises, carrying that report."""
    pareto = make_family("pareto", scale=1.0)
    ctx = LevyContext.build(
        pareto,
        ParameterPath.constant([-3.0]),
        BaseMeasure.lebesgue(1.0),
        k=1,
        require_conditions=False,
    )
    assert not ctx.report.passed
    with pytest.raises(ConditionError, match="^construction conditions fail: ") as exc:
        LevyContext(ctx.family, ctx.path, ctx.base, ctx.k, ctx.report)
    assert exc.value.report is ctx.report
    with pytest.raises(ConditionError) as exc:
        dataclasses.replace(ctx, require_conditions=True)
    assert exc.value.report is ctx.report


def test_levy_density_s_constant_context(gamma_const_ctx):
    # constant path: dL_t(s) = t * 1.5 * p(s | 2, 3)
    for t in (0.5, 2.0):
        for s in (0.3, 1.0, 2.5):
            want = t * 1.5 * expfam.density(gamma_const_ctx.family, [2.0, 3.0], s)
            assert levy_density_s(gamma_const_ctx, t, s) == pytest.approx(want, rel=1e-9)


def test_levy_density_s_rejects_outside_support(gamma_const_ctx):
    with pytest.raises(SupportError):
        levy_density_s(gamma_const_ctx, 1.0, -0.5)


def test_levy_integrand_is_pointwise_product(gamma_const_ctx):
    z, s = 0.7, 1.3
    want = expfam.density(gamma_const_ctx.family, [2.0, 3.0], s) * 1.5
    assert levy_integrand(gamma_const_ctx, z, s) == pytest.approx(want, rel=1e-12)
    assert levy_integrand(gamma_const_ctx, -5.0, s) == 0.0


def test_levy_integrand_at_an_array_of_s_gives_each_one_point_double():
    ss = np.array([0.05, 0.2, 0.5, 0.8, 0.95])
    for n in (1, 2, 5):
        ctx = verify.beta_decomposition_context(n)
        for z in (0.25, 0.75, 1.5, 3.0):
            got = levy_integrand(ctx, z, ss)
            assert got.shape == ss.shape
            assert got.tolist() == [levy_integrand(ctx, z, s) for s in ss.tolist()]
    # where the base density is undefined, zeros of the shape of s
    ctx = verify.beta_decomposition_context(1)
    assert levy_integrand(ctx, -1.0, ss.reshape(5, 1)).tolist() == [[0.0]] * 5
    with pytest.raises(SupportError, match=r"^beta: s=1\.5 outside the support \(0\.0, 1\.0\)$"):
        levy_integrand(ctx, 0.5, np.array([0.5, 1.5, 2.0]))


def test_levy_density_u_pushforward_identity(gamma_const_ctx):
    # k = 2 uses T(s) = s whose inverse is the identity
    assert levy_density_u(gamma_const_ctx, 1.0, 0.9) == pytest.approx(
        levy_density_s(gamma_const_ctx, 1.0, 0.9), rel=1e-12
    )


def test_levy_density_u_log_jacobian():
    ctx = LevyContext.build(
        make_family("gamma"),
        ParameterPath.constant([2.0, 3.0]),
        BaseMeasure.lebesgue(1.0),
        k=1,
    )
    u = -0.3  # s = e^u, jacobian e^u
    s = math.exp(u)
    assert levy_density_u(ctx, 1.0, u) == pytest.approx(
        levy_density_s(ctx, 1.0, s) * s, rel=1e-10
    )


def test_levy_density_u_where_the_inverse_overflows_is_read_from_u(pareto_linear_ctx):
    # u = ln s and s = e^1000 overflows, but the density in u, int_0^1 z e^{-1000 z} dz,
    # is 1.0e-6: it is read from u, to the nearest double or one neighbour
    got = levy_density_u(pareto_linear_ctx, 1.0, 1000.0)
    with mp.workdps(50):
        want = mp.quad(lambda z: z * mp.exp(-1000 * z), [0, mp.mpf(1) / 100, 1])
    assert float(abs(got - want)) <= math.ulp(float(want))
    assert got == pytest.approx(1.0e-6, rel=1e-12)


def test_levy_density_u_rejects_outside_image(gamma_const_ctx):
    with pytest.raises(SupportError):
        levy_density_u(gamma_const_ctx, 1.0, -1.0)


def _beta_log_transform(a, b, theta):
    """E[X^{-theta}] for X ~ Beta(a, b)."""
    return math.exp(
        special.gammaln(a - theta) + special.gammaln(a + b)
        - special.gammaln(a) - special.gammaln(a + b - theta)
    )


def _loglog_transform(e1, e2, k, theta):
    """E[e^{-theta T_k}] for pareto_loglog (scale 1) through w = ln x."""
    with mp.workdps(30):
        e1, e2, theta = mp.mpf(e1), mp.mpf(e2), mp.mpf(theta)
        s = -(e1 + 1)
        if s == 0:  # on the face w ~ Pareto(1, alpha)
            alpha = -e2 - 1
            if k == 1:
                return float(alpha * theta**alpha * mp.gammainc(-alpha, theta, mp.inf))
            return float(alpha / (alpha + theta))
        if k == 1:
            ratio = mp.gammainc(e2 + 1, s + theta, mp.inf) / mp.gammainc(e2 + 1, s, mp.inf)
            return float((s / (s + theta)) ** (e2 + 1) * ratio)
        ratio = mp.gammainc(e2 + 1 - theta, s, mp.inf) / mp.gammainc(e2 + 1, s, mp.inf)
        return float(s**theta * ratio)


# (family, eta, k) -> E[e^{-theta T_k}] in closed form
_TRANSFORMS = {
    "gamma": lambda eta, k, th: (
        math.exp(special.gammaln(eta[0] - th) - special.gammaln(eta[0]) + th * math.log(eta[1]))
        if k == 1
        else (eta[1] / (eta[1] + th)) ** eta[0]
    ),
    "beta": lambda eta, k, th: _beta_log_transform(eta[k - 1], eta[2 - k], th),
    "pareto": lambda eta, k, th: (-eta[0] - 1.0) / (-eta[0] - 1.0 + th),
    "pareto_loglog": lambda eta, k, th: _loglog_transform(eta[0], eta[1], k, th),
    "lognormal": lambda eta, k, th: math.sqrt(eta[0] / (eta[0] + th)),
    "poisson": lambda eta, k, th: math.exp(math.exp(eta[0]) * math.expm1(-th)),
    "bernoulli": lambda eta, k, th: 1.0 + special.expit(eta[0]) * math.expm1(-th),
}

_ETAS = {
    "gamma": ([0.7, 1.5], [2.0, 3.0], [5.5, 0.4]),
    "beta": ([2.0, 3.0], [0.8, 0.6], [4.5, 1.2]),
    "pareto": ([-3.0], [-1.4]),
    "pareto_loglog": ([-2.0, -2.5], [-1.5, 0.7], [-1.0, -2.5], [-1.0, -4.0]),
    "lognormal": ([0.5], [4.0]),
    "poisson": ([-1.0], [math.log(2.0)], [2.5]),
    "bernoulli": ([-2.0], [0.0], [3.0]),
}


def test_stat_laplace_covers_every_family():
    assert set(_TRANSFORMS) == set(expfam.family_names()) == set(_ETAS)


@pytest.mark.parametrize("name", sorted(_ETAS))
def test_stat_laplace_matches_closed_forms(name):
    spec = make_family(name)
    for eta in _ETAS[name]:
        for k in range(1, spec.dimension + 1):
            for theta in (0.1, 0.25, 0.5):
                want = _TRANSFORMS[name](eta, k, theta)
                got = stat_laplace(spec, eta, k, theta)
                assert got == pytest.approx(want, rel=1e-10), (eta, k, theta)


def test_stat_laplace_gamma_log_statistic_is_finite_below_the_shape():
    # x^{-1/2} p(x | 0.7, 1.5) is singular at 0 and still integrable
    gamma = make_family("gamma")
    assert stat_laplace(gamma, [0.7, 1.5], 1, 0.5) == pytest.approx(4.331565958873871, rel=1e-10)


@pytest.mark.parametrize(
    "name, eta", [("gamma", [0.7, 1.5]), ("gamma", [2.0, 3.0]), ("beta", [1.5, 2.0])]
)
def test_stat_laplace_diverges_exactly_at_the_abscissa(name, eta):
    # E[X^{-theta}] is finite for theta < eta_1 and infinite from eta_1 on
    spec = make_family(name)
    shape = eta[0]
    below = stat_laplace(spec, eta, 1, shape * (1.0 - 1e-9))
    assert math.isfinite(below) and below > 1e6
    for theta in (shape, shape + 1e-9, shape + 1.0):
        with pytest.raises(DivergenceError, match="eta_1") as exc:
            stat_laplace(spec, eta, 1, theta)
        assert exc.value.partial == math.inf


def test_stat_laplace_rejects_eta_outside_the_natural_space():
    with pytest.raises(NaturalSpaceError):
        stat_laplace(make_family("gamma"), [-0.5, 1.0], 2, 0.5)
    with pytest.raises(NaturalSpaceError):
        stat_laplace(make_family("beta"), [0.0, 1.0], 1, 0.5)


def test_laplace_exponent_gamma_log_statistic():
    ctx = LevyContext.build(
        make_family("gamma"), ParameterPath.constant([0.7, 1.5]), BaseMeasure.lebesgue(1.0), k=1
    )
    assert laplace_exponent(ctx, 2.0, 0.5) == pytest.approx(
        2.0 * (1.0 - 4.331565958873871), rel=1e-10
    )


def test_laplace_exponent_constant_oracle(gamma_const_ctx):
    # E[e^{-x}] at (2, 3) is (3/4)^2; psi(2, 1) = 2 * 1.5 * (1 - 9/16)
    assert laplace_exponent(gamma_const_ctx, 2.0, 1.0) == pytest.approx(
        3.0 * (1.0 - 9.0 / 16.0), rel=1e-10
    )
    assert laplace_exponent(gamma_const_ctx, 0.0, 1.0) == 0.0
    assert laplace_exponent(gamma_const_ctx, 2.0, 0.0) == 0.0


def test_laplace_exponent_affine_path_oracle():
    # eta(z) = (1, 1+z), k=2: E[e^{-x}] = (1+z)/(2+z), so
    # psi(t, 1) = int_0^t dz/(2+z) = ln((2+t)/2)
    path = ParameterPath(
        [
            PiecewiseFunction.constant(1.0),
            PiecewiseFunction([Piece(0.0, math.inf, "affine", c0=1.0, c1=1.0)]),
        ]
    )
    ctx = LevyContext.build(make_family("gamma"), path, BaseMeasure.lebesgue(1.0), k=2)
    for t in (0.5, 1.0, 3.0):
        assert laplace_exponent(ctx, t, 1.0) == pytest.approx(
            math.log((2.0 + t) / 2.0), rel=1e-9
        )


def test_laplace_exponent_divergent_base_reports_partial():
    base = BaseMeasure(PiecewiseFunction.from_callable(lambda z: 1.0 / z, lo=0.0, hi=1.0))
    ctx = LevyContext.build(
        make_family("gamma"), ParameterPath.constant([2.0, 3.0]), base, k=2
    )
    with pytest.raises(DivergenceError) as exc:
        laplace_exponent(ctx, 1.0, 1.0)
    assert exc.value.partial is not None


_ETA_23 = ParameterPath.constant([2.0, 3.0])
# two equal adjacent const base pieces, and a constant func path
_SPLIT_BASE = BaseMeasure(
    PiecewiseFunction([Piece(0.0, 1.0, "const", c0=1.5), Piece(1.0, math.inf, "const", c0=1.5)])
)
_FUNC_PATH = ParameterPath(
    [PiecewiseFunction.from_callable(lambda z: 2.0), PiecewiseFunction.from_callable(lambda z: 3.0)]
)

# (family, path, base, k, t, exact mass A_0((0, t])): each is time homogeneous
_HOMOGENEOUS = (
    # the log statistics have images with an infinite lower end
    ("gamma", _ETA_23, BaseMeasure.lebesgue(1.5), 1, 1.0, 1.5),
    ("beta", _ETA_23, BaseMeasure.lebesgue(0.8), 1, 1.0, 0.8),
    ("beta", _ETA_23, BaseMeasure.lebesgue(0.8), 2, 1.0, 0.8),
    ("gamma", _ETA_23, _SPLIT_BASE, 2, 1.0, 1.5),
    ("gamma", _FUNC_PATH, BaseMeasure.lebesgue(1.5), 2, 1.0, 1.5),
    # an atom override where A_0 has no point mass leaves the measure alone
    ("gamma", _ETA_23.with_override(1.0, (4.0, 2.0)), BaseMeasure.lebesgue(1.5), 2, 0.5, 0.75),
)


def test_classify_finite_activity(gamma_const_ctx):
    act = classify_activity(gamma_const_ctx, 2.0)
    assert isinstance(act, FiniteActivity)
    assert act.total_mass == pytest.approx(3.0, rel=1e-6)
    assert act.rate == pytest.approx(1.5, rel=1e-6)
    # normalized weight density at a point
    assert act.weight_density(1.0) == pytest.approx(
        expfam.density(gamma_const_ctx.family, [2.0, 3.0], 1.0), rel=1e-6
    )

    for family, path, base, k, t, mass in _HOMOGENEOUS:
        ctx = LevyContext.build(make_family(family), path, base, k=k)
        act = classify_activity(ctx, t)
        assert isinstance(act, FiniteActivity), (family, k, act)
        assert (act.total_mass, act.rate) == (mass, mass / t)
        # the closed-form pushforward is dL_t(u) normalized by the mass, at
        # one u or over an array of u
        us = np.array([float(ctx.stat().value(s)) for s in (0.3, 0.6)])
        for u in us:
            assert act.weight_density(u) == pytest.approx(
                levy_density_u(ctx, t, u) / mass, rel=1e-10
            )
        np.testing.assert_allclose(act.weight_density(us), levy_density_u(ctx, t, us) / mass, rtol=1e-10)
        assert act.weight_density(us).tolist() == [act.weight_density(u) for u in us]


def test_classify_not_time_homogeneous(pareto_linear_ctx):
    act = classify_activity(pareto_linear_ctx, 1.0)
    assert isinstance(act, NotTimeHomogeneous)
    assert act.witnesses

    gamma = make_family("gamma")
    jump = BaseMeasure(PiecewiseFunction.constant(1.0), ((1.5, 0.25),))
    short = ParameterPath(
        [PiecewiseFunction.constant(2.0, hi=1.5), PiecewiseFunction.constant(3.0, hi=1.5)]
    )
    # (path, base, mass A_0((0, 1]), the witness z all lie in)
    cases = (
        (_ETA_23, BaseMeasure.lebesgue(1.0, lo=0.5), 0.5, (0.0, 0.5)),
        (_ETA_23, jump, 1.0, (1.0, 1.5)),
        (short, BaseMeasure.lebesgue(1.0), 1.0, (1.5, 2.0)),
    )
    for path, base, mass, (z_lo, z_hi) in cases:
        act = classify_activity(LevyContext.build(gamma, path, base, k=2), 1.0)
        assert isinstance(act, NotTimeHomogeneous)
        assert act.total_mass == mass
        assert act.witnesses and all(z_lo < w[0] <= z_hi for w in act.witnesses), act.witnesses

    act = classify_activity(verify.beta_decomposition_context(2), 1.0)
    assert isinstance(act, NotTimeHomogeneous)
    assert act.total_mass == pytest.approx(1.0 - 2.0 * math.log(4.0 / 3.0), rel=1e-12)


def test_classify_activity_runs_no_quadrature_on_a_const_context(gamma_const_ctx, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return piecewise.checked_quad(*args)

    monkeypatch.setattr(levy, "checked_quad", counted)
    act = classify_activity(gamma_const_ctx, 2.0)
    act.weight_density(1.0)
    assert isinstance(act, FiniteActivity) and calls == []


def test_classify_infinite_activity():
    base = BaseMeasure(PiecewiseFunction.from_callable(lambda z: 1.0 / z, lo=0.0, hi=1.0))
    ctx = LevyContext.build(
        make_family("gamma"), ParameterPath.constant([2.0, 3.0]), base, k=2
    )
    assert isinstance(classify_activity(ctx, 1.0), levy.InfiniteActivity)
    # the detail carries the partial base mass
    assert "partial 214.96" in classify_activity(ctx, 1.0).detail


def test_classify_null_base():
    ctx = LevyContext.build(
        make_family("gamma"),
        ParameterPath.constant([2.0, 3.0]),
        BaseMeasure.null(),
        k=2,
    )
    act = classify_activity(ctx, 1.0)
    assert isinstance(act, FiniteActivity)
    assert act.total_mass == 0.0 and act.rate == 0.0


def test_density_table_rows(gamma_const_ctx):
    rows = levy.density_table(gamma_const_ctx, 1.0, [0.5, 1.0])
    assert len(rows) == 2
    t, u, val = rows[0]
    assert (t, u) == (1.0, 0.5)
    assert val == pytest.approx(levy_density_u(gamma_const_ctx, 1.0, 0.5), rel=1e-12)


@pytest.mark.parametrize("k", [0, 3])
def test_stat_laplace_rejects_a_statistic_index_out_of_range(k):
    with pytest.raises(CrmError, match="statistic index k"):
        stat_laplace(make_family("gamma"), [2.0, 3.0], k, 1.0)


def test_path_check_records_witnesses():
    path = ParameterPath(
        [
            PiecewiseFunction([Piece(0.0, 2.0, "affine", c0=2.0, c1=-2.0)]),
            PiecewiseFunction.constant(3.0),
        ]
    )
    gamma = make_family("gamma")
    check = check_conditions(gamma, path, 2, [0.5, 1.0, 1.5, 2.5]).check("path_in_natural_space")
    assert not check.passed
    assert check.detail == "3 of 4 grid points fail"
    assert check.witnesses == (
        (1.0, "gamma: shape must be positive, got 0.0"),
        (1.5, "gamma: shape must be positive, got -1.0"),
        (2.5, "path undefined"),
    )
    assert check_conditions(gamma, path, 2, [0.25, 0.5, 0.75]).check("path_in_natural_space").passed


def test_contraction_check_names_each_point_that_only_it_fails():
    # pareto's eta < -1 is closed under the contraction eps * eta only for
    # eta < -10, so eta = -12 + 2z passes both checks for z < 1, fails only
    # the contraction at eps = 0.1 for 1 <= z < 5.5, and fails (2) from z = 5.5
    path = ParameterPath([PiecewiseFunction([Piece(0.0, math.inf, "affine", c0=-12.0, c1=2.0)])])
    report = check_conditions(make_family("pareto"), path, 1, [0.5, 1.5, 3.0, 5.0, 5.5, 6.0])
    assert report.check("invertible_statistic").passed
    natural = report.check("path_in_natural_space")
    assert natural.detail == "2 of 6 grid points fail"
    assert natural.witnesses == (
        (5.5, "pareto: coordinate must be < -1, got -1.0"),
        (6.0, "pareto: coordinate must be < -1, got 0.0"),
    )
    closure = report.check("contraction_closure")
    assert not closure.passed
    assert closure.detail == "3 grid points leave the natural space under contraction"
    assert closure.witnesses == ((1.5, 0.1), (3.0, 0.1), (5.0, 0.1))


@pytest.mark.parametrize("scale, first", [(1.0 + 1e-6, 1), (math.nan, 0)])
def test_the_invertibility_check_holds_stat_terms_to_every_statistic(scale, first):
    # beta's stat_terms at k = 1 with its other statistic ln(1 - x) scaled: off by a
    # relative 1e-6 it misses 1e-10 from the grid's second point on, where
    # |ln(1 - x)| = 0.01 (1e-6 at the first), and nan misses everywhere
    beta = make_family("beta")

    def stat_terms(k, u):
        carrier, (log_x, log_1mx), tilt = beta.stat_terms(k, u)
        return carrier, [log_x, log_1mx * scale], tilt

    path, xs = ParameterPath.constant([2.0, 3.0]), beta.support.grid(101)
    check = check_conditions(dataclasses.replace(beta, stat_terms=stat_terms), path, 1, [1.0]).checks[0]
    assert (check.passed, check.witnesses) == (False, tuple(xs[first : first + 3].tolist()))
    assert check_conditions(beta, path, 1, [1.0]).check("invertible_statistic").passed
    undeclared = check_conditions(dataclasses.replace(beta, stat_terms=None), path, 1, [1.0]).checks[0]
    assert not undeclared.passed
    assert undeclared.detail == "statistic 'log_x' declares no differentiable inverse"


def test_path_check_records_a_raising_path_piece_as_a_witness():
    path = ParameterPath(
        [
            PiecewiseFunction([Piece(0.0, 2.0, "func", func=lambda z: math.log(1.0 - z))]),
            PiecewiseFunction.constant(3.0),
        ]
    )
    gamma = make_family("gamma")
    result = check_conditions(gamma, path, 2, [0.5, 1.5])
    check = result.check("path_in_natural_space")
    assert not check.passed
    assert check.witnesses == (
        (0.5, "gamma: shape must be positive, got -0.6931471805599453"),
        (1.5, "math domain error"),
    )


def _shape_undefined_beyond_3(z):
    if np.any(np.asarray(z) > 3.0):
        raise ValueError("shape undefined beyond z = 3")
    return 2.5 - np.asarray(z)


# reports whose check (2) leaves the one-batch evaluation for the point walk
# (a gap between pieces; a func piece that raises on part of the grid; an
# atom override on the one grid point the pieces leave uncovered), and an
# unenforced pareto_series component that fails closure at every point: the
# repr of each as recorded before check (2) became one batch, but for check
# (1)'s round-trip error, which stat_terms gives back exactly for pareto_series
_FAILING_REPORTS = {
    "override in a gap": (
        "ConditionReport(checks=(ConditionCheck(name='invertible_statistic', passed=True, "
        "detail='max relative round-trip error 0.000e+00', witnesses=()), "
        "ConditionCheck(name='path_in_natural_space', passed=False, detail='1 of 41 grid points fail', "
        "witnesses=((1.0001, 'path undefined'),)), "
        "ConditionCheck(name='contraction_closure', passed=True, "
        "detail='0 grid points leave the natural space under contraction', witnesses=())))"
    ),
    "gap": (
        "ConditionReport(checks=(ConditionCheck(name='invertible_statistic', passed=True, "
        "detail='max relative round-trip error 0.000e+00', witnesses=()), "
        "ConditionCheck(name='path_in_natural_space', passed=False, detail='6 of 16 grid points fail', "
        "witnesses=((0.75, 'gamma: shape must be positive, got -0.125'), "
        "(1.0, 'gamma: shape must be positive, got -0.5'), (1.25, 'path undefined'), "
        "(1.5, 'path undefined'), (1.75, 'path undefined'))), "
        "ConditionCheck(name='contraction_closure', passed=True, "
        "detail='0 grid points leave the natural space under contraction', witnesses=())))"
    ),
    "raising func": (
        "ConditionReport(checks=(ConditionCheck(name='invertible_statistic', passed=True, "
        "detail='max relative round-trip error 0.000e+00', witnesses=()), "
        "ConditionCheck(name='path_in_natural_space', passed=False, detail='6 of 10 grid points fail', "
        "witnesses=((2.5, 'gamma: shape must be positive, got 0.0'), "
        "(3.0, 'gamma: shape must be positive, got -0.5'), (3.5, 'shape undefined beyond z = 3'), "
        "(4.0, 'shape undefined beyond z = 3'), (4.5, 'shape undefined beyond z = 3'))), "
        "ConditionCheck(name='contraction_closure', passed=True, "
        "detail='0 grid points leave the natural space under contraction', witnesses=())))"
    ),
    "pareto_series": (
        "ConditionReport(checks=(ConditionCheck(name='invertible_statistic', passed=True, "
        "detail='max relative round-trip error 0.000e+00', witnesses=()), "
        "ConditionCheck(name='path_in_natural_space', passed=True, detail='0 of 38 grid points fail', "
        "witnesses=()), ConditionCheck(name='contraction_closure', passed=False, "
        "detail='38 grid points leave the natural space under contraction', "
        "witnesses=((0.26553179421567275, 0.1), (0.28202853495757746, 0.1), (0.296875, 0.1), "
        "(0.29955017162921255, 0.1), (0.31816037812126996, 0.1)))))"
    ),
}


@pytest.mark.parametrize("name", sorted(_FAILING_REPORTS))
def test_a_failing_condition_report_keeps_its_repr(name):
    gamma = make_family("gamma")
    rate = PiecewiseFunction.constant(3.0)
    if name == "gap":
        shape = PiecewiseFunction(
            [Piece(0.0, 1.0, "affine", c0=1.0, c1=-1.5), Piece(2.0, math.inf, "const", c0=2.0)]
        )
        reports = [check_conditions(gamma, ParameterPath([shape, rate]), 2, np.linspace(0.25, 4.0, 16))]
    elif name == "override in a gap":
        # 1.0001 is a breakpoint, so on the default grid, and no piece covers it
        shape = PiecewiseFunction(
            [Piece(0.0, 1.0, "const", c0=2.0), Piece(1.0001, math.inf, "const", c0=2.0)]
        )
        path = ParameterPath([shape, rate], {1.0001: (2.0, 3.0)})
        reports = [check_conditions(gamma, path, 2, levy._default_grid(path))]
    elif name == "raising func":
        shape = PiecewiseFunction([Piece(0.0, math.inf, "func", func=_shape_undefined_beyond_3)])
        reports = [check_conditions(gamma, ParameterPath([shape, rate]), 2, np.linspace(0.5, 5.0, 10))]
    else:
        config = Path(__file__).resolve().parents[1] / "configs" / "pareto_series.json"
        contexts, _ = parse_sample_config(load_json(config.read_text()))
        reports = [ctx.report for ctx in contexts]
    assert [repr(report) for report in reports] == [_FAILING_REPORTS[name]] * len(reports)


def _two_stretch_shape(middle):
    """Gamma shape 2 on (0, 1], ``middle`` on (1, 2], 3 beyond; rate 3."""
    shape = PiecewiseFunction(
        [
            Piece(0.0, 1.0, "const", c0=2.0),
            Piece(1.0, 2.0, "const", c0=middle),
            Piece(2.0, math.inf, "const", c0=3.0),
        ]
    )
    return ParameterPath([shape, PiecewiseFunction.constant(3.0)])


_GAPPED_BASE = BaseMeasure(
    PiecewiseFunction([Piece(0.0, 0.5, "const", c0=1.0), Piece(2.0, math.inf, "const", c0=2.0)])
)


def test_a_constant_stretch_evaluates_the_log_partition_once():
    gamma = make_family("gamma")
    calls = []

    def counted(eta):
        calls.append(tuple(eta))
        return gamma.log_partition_fn(eta)

    family = dataclasses.replace(gamma, log_partition_fn=counted)
    ctx = LevyContext.build(family, _two_stretch_shape(2.5), _GAPPED_BASE, k=2)
    calls.clear()
    # cuts 0, 0.5, 1, 2, 3; base pieces overlap (0, 0.5] and (2, 3] only
    levy_density_u(ctx, 3.0, 0.7)
    assert calls == [(2.0, 3.0), (3.0, 3.0)]
    calls.clear()
    # the context keeps each stretch's A(eta): 1 - E[exp(-theta T_2)] needs A
    # at the tilted eta alone, and a second density call needs none
    laplace_exponent(ctx, 3.0, 1.0)
    assert calls == [(2.0, 4.0), (3.0, 4.0)]
    calls.clear()
    levy_density_u(ctx, 2.5, 0.7)
    assert calls == []


def test_an_override_on_a_point_mass_keeps_the_constant_stretch_rule():
    gamma = make_family("gamma")
    calls = []

    def counted(eta):
        calls.append(tuple(eta))
        return gamma.log_partition_fn(eta)

    family = dataclasses.replace(gamma, log_partition_fn=counted)
    base = BaseMeasure(PiecewiseFunction.constant(1.0, 0.0, 2.0), ((1.25, 2.0),))
    path = ParameterPath.constant([2.0, 3.0]).with_override(1.25, (3.0, 4.0))
    ctx = LevyContext.build(family, path, base, k=2)
    calls.clear()
    # quadrature nodes lie strictly inside (0, 1.25] and (1.25, 2]; the override
    # is reached only through the point mass
    levy_density_u(ctx, 2.0, 0.7)
    assert calls == [(2.0, 3.0), (2.0, 3.0), (3.0, 4.0)]


def test_an_invalid_eta_where_no_base_piece_lies_is_not_evaluated():
    gamma = make_family("gamma")
    path = _two_stretch_shape(-1.0)
    ctx = LevyContext.build(gamma, path, _GAPPED_BASE, k=2, require_conditions=False)
    assert not ctx.report.passed
    with pytest.raises(NaturalSpaceError):
        expfam.density(gamma, path.eval(1.5), 0.7)
    # the base covers (0, 0.5] with mass 0.5 at eta (2, 3) and (2, 3] with
    # mass 2 at eta (3, 3): the closed form h(eta) A_0 on each stretch, each
    # in long double and rounded once, which gives the double nearest the sum
    with mp.workdps(40):
        s = mp.mpf(0.7)
        density = lambda a: 3**a * s ** (a - 1) * mp.exp(-3 * s) / mp.gamma(a)  # rate 3
        want = 0.5 * density(2) + 2 * density(3)
    assert levy_density_s(ctx, 3.0, 0.7) == float(want) > 0
    # a base piece over (1, 2] makes the location integral evaluate the invalid eta
    covered = LevyContext.build(gamma, path, BaseMeasure.lebesgue(1.0), k=2, require_conditions=False)
    with pytest.raises(NaturalSpaceError):
        levy_density_s(covered, 3.0, 0.7)


def test_unbounded_windows_diverge_or_carry_no_mass(gamma_const_ctx):
    assert BaseMeasure.null().increment(0.0, math.inf) == 0.0
    assert isinstance(classify_activity(gamma_const_ctx, math.inf), levy.InfiniteActivity)
    with pytest.raises(DivergenceError) as exc:
        laplace_exponent(gamma_const_ctx, math.inf, 1.0)
    assert exc.value.partial == math.inf
    null = LevyContext.build(make_family("gamma"), _ETA_23, BaseMeasure.null(), k=2)
    assert laplace_exponent(null, math.inf, 1.0) == 0.0


def _gamma_tilt(eta, k, theta):
    """E[exp(-theta T_k)] under gamma(shape, rate): T_2 = x, T_1 = ln x."""
    shape, rate = eta
    if k == 2:
        return (rate / (rate + theta)) ** shape
    return math.exp(math.lgamma(shape - theta) - math.lgamma(shape) + theta * math.log(rate))


def _gamma_density_u(eta, k, u):
    """Density of u = T_k(x) under gamma(shape, rate)."""
    shape, rate = eta
    x = u if k == 2 else math.exp(u)
    log_px = shape * math.log(rate) + (shape - 1.0) * math.log(x) - rate * x - math.lgamma(shape)
    px = math.exp(log_px)
    return px if k == 2 else px * x


_OVERRIDDEN = _ETA_23.with_override(0.5, (4.0, 2.0)).with_override(1.25, (3.0, 1.5))

# name: (path, base, k, t, theta, [(eta, A_0 mass at that eta over (0, t])])
_CONSTANT_PATHS = {
    "gamma_k1": (
        ParameterPath.constant([1.5, 2.0]), BaseMeasure.lebesgue(1.0), 1, 1.0, 0.5,
        [((1.5, 2.0), 1.0)],
    ),
    "gamma_k2": (_ETA_23, BaseMeasure.lebesgue(1.5), 2, 2.0, 2.0, [((2.0, 3.0), 3.0)]),
    "piecewise": (
        _two_stretch_shape(3.0), BaseMeasure.lebesgue(1.0), 2, 3.0, 1.0,
        [((2.0, 3.0), 1.0), ((3.0, 3.0), 2.0)],
    ),
    # the override at 0.5 lies inside a stretch, the one at 1.25 on a point mass
    "override": (
        _OVERRIDDEN, BaseMeasure(PiecewiseFunction.constant(1.0), ((1.25, 2.0),)), 2, 2.0, 1.0,
        [((2.0, 3.0), 2.0), ((3.0, 1.5), 2.0)],
    ),
    "gap_jump": (
        _ETA_23, BaseMeasure(_GAPPED_BASE.density, ((1.0, 0.7),)), 2, 3.0, 1.0,
        [((2.0, 3.0), 0.5 + 2.0 + 0.7)],
    ),
}


class _NoQuadrature(Exception):
    pass


def _refuse_quad(*args, **kwargs):
    raise _NoQuadrature


@pytest.mark.parametrize("name", sorted(_CONSTANT_PATHS))
def test_a_constant_path_needs_no_location_quadrature(name, monkeypatch):
    path, base, k, t, theta, masses = _CONSTANT_PATHS[name]
    ctx = LevyContext.build(make_family("gamma"), path, base, k=k)
    # QUADPACK runs neither its first rule nor a bisection
    monkeypatch.setattr(quadpack, "qag", _refuse_quad)
    want = sum(mass * (1.0 - _gamma_tilt(eta, k, theta)) for eta, mass in masses)
    assert laplace_exponent(ctx, t, theta) == pytest.approx(want, rel=1e-13)
    us = (0.2, 0.7, 2.5)
    table = density_table(ctx, t, us)
    for u, (t_row, u_row, got) in zip(us, table):
        want = sum(mass * _gamma_density_u(eta, k, u) for eta, mass in masses)
        assert (t_row, u_row) == (t, u)
        assert levy_density_u(ctx, t, u) == got == pytest.approx(want, rel=1e-13)


_AFFINE_RATE = ParameterPath(
    [
        PiecewiseFunction.constant(1.0),
        PiecewiseFunction([Piece(0.0, math.inf, "affine", c0=1.0, c1=1.0)]),
    ]
)
# the same rate under a shape that is no integer: gamma's normaliser b^a / Gamma(a)
# is then no polynomial in b, so the stretch is general and reaches QUADPACK
_FRACTIONAL_SHAPE = ParameterPath([PiecewiseFunction.constant(1.5), *_AFFINE_RATE.components[1:]])


def _spied_lasts(monkeypatch) -> list:
    """The subinterval count of each row :func:`quadpack.qag` integrates, a list per call."""
    qag, lasts = quadpack.qag, []

    def spied(f, a, b, points=None):
        rows = qag(f, a, b, points)
        lasts.append([rows[2]] if points is None else [row[2] for row in rows])
        return rows

    monkeypatch.setattr(quadpack, "qag", spied)
    return lasts


def test_an_affine_path_takes_one_gauss_kronrod_pass_and_no_quad(monkeypatch):
    ctx = LevyContext.build(make_family("gamma"), _FRACTIONAL_SHAPE, BaseMeasure.lebesgue(1.0), k=2)
    lasts = _spied_lasts(monkeypatch)
    # the doubles quad returned after its first 21-point pass, where it stops
    assert repr(laplace_exponent(ctx, 1.0, 1.0)) == "0.5404709633906973"
    assert repr(levy_density_u(ctx, 1.0, 0.7)) == "0.5924289373864544"
    assert lasts == [[1], [1]]


def test_an_override_off_the_point_masses_leaves_the_densities_alone(monkeypatch):
    """An override at the centre of an affine stretch, where the base has no
    point mass, changes no density: the stretch still takes one 21-point
    pass, and the integrand in z reads the path without the override."""
    gamma = make_family("gamma")
    path = ParameterPath(
        [
            PiecewiseFunction([Piece(0.0, 2.0, "affine", c0=2.0, c1=0.5)]),
            PiecewiseFunction([Piece(0.0, 2.0, "const", c0=3.0)]),
        ]
    )
    base = BaseMeasure.lebesgue(1.0, hi=2.0)
    plain = LevyContext.build(gamma, path, base, k=2)
    ctx = LevyContext.build(gamma, path.with_override(1.0, (7.0, 0.5)), base, k=2)
    lasts = _spied_lasts(monkeypatch)
    assert levy_density_u(ctx, 2.0, 0.3) == levy_density_u(plain, 2.0, 0.3)
    assert laplace_exponent(ctx, 2.0, 1.0) == laplace_exponent(plain, 2.0, 1.0)
    assert lasts == [[1]] * 4
    assert levy_integrand(ctx, 1.0, 0.3) == levy_integrand(plain, 1.0, 0.3) > 0.5


def _func_base(f):
    return BaseMeasure(PiecewiseFunction.from_callable(f, lo=0.0, hi=1.0))


def test_a_singular_base_is_rejected_by_the_pass_and_integrated_by_quad(monkeypatch):
    ctx = LevyContext.build(
        make_family("gamma"), _AFFINE_RATE, _func_base(lambda z: 1.0 / math.sqrt(z)), k=2
    )
    lasts = _spied_lasts(monkeypatch)
    # the doubles quad gives on each whole stretch, one point each, bisected
    assert repr(laplace_exponent(ctx, 1.0, 1.0)) == "0.8704197513671034"
    assert repr(levy_density_u(ctx, 1.0, 0.7)) == "1.0242459459911837"
    assert [len(rows) for rows in lasts] == [1, 1] and all(rows[0] > 1 for rows in lasts)


@pytest.mark.parametrize(
    "call, partial",
    [((laplace_exponent, 1.0), 107.27908535363332), ((levy_density_u, 0.7), 106.80978319978722)],
    ids=["laplace_exponent", "levy_density_u"],
)
def test_a_divergent_base_under_an_affine_path_keeps_its_partial(call, partial):
    ctx = LevyContext.build(make_family("gamma"), _AFFINE_RATE, _func_base(lambda z: 1.0 / z), k=2)
    fn, arg = call
    with pytest.raises(DivergenceError, match=r"integral over \(0.0, 1.0\) did not stabilize") as exc:
        fn(ctx, 1.0, arg)
    assert exc.value.partial == partial


def test_a_tilt_leaving_the_natural_space_inside_an_affine_stretch_diverges():
    # T_1 = ln x: the tilted shape 1 - z leaves the natural space at z = 1
    shape = PiecewiseFunction([Piece(0.0, 1.5, "affine", c0=2.0, c1=-1.0)])
    path = ParameterPath([shape, PiecewiseFunction.constant(3.0, 0.0, 1.5)])
    ctx = LevyContext.build(make_family("gamma"), path, BaseMeasure.lebesgue(1.0), k=1)
    assert repr(laplace_exponent(ctx, 0.9, 1.0)) == "-6.007755278982138"
    with pytest.raises(DivergenceError) as exc:
        laplace_exponent(ctx, 1.5, 1.0)
    assert exc.value.partial == math.inf
    assert str(exc.value) == (
        "gamma: E[exp(-1.0 T_1)] is infinite, the tilted coordinate eta_1 = "
        "-0.4804298963878788 leaves the natural space (gamma: shape must be "
        "positive, got -0.4804298963878788)"
    )


@pytest.mark.parametrize(
    "f",
    [lambda z: 1.0 - 2.0 * z + 0.5 * z ** 3, np.exp, lambda z: 1.0 / (1.0 + z)],
    ids=["cubic", "exp", "reciprocal"],
)
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.3, 2.7), (1.0, 1.5), (2.0, 9.0)])
def test_the_qk21_port_returns_quads_double_where_quad_stops_after_21_nodes(f, a, b):
    val, _, info = scipy.integrate.quad(f, a, b, epsabs=1e-12, epsrel=1e-10, limit=300, full_output=1)
    assert info["neval"] == 21
    result, _, last, ier = quadpack.qag(f, a, b)
    assert (result, last, ier) == (val, 1, 0)


def test_the_qk21_port_declines_where_quad_subdivides():
    f = lambda z: 1.0 / math.sqrt(z)
    _, _, info = scipy.integrate.quad(f, 0.0, 1.0, epsabs=1e-12, epsrel=1e-10, limit=300, full_output=1)
    assert info["neval"] > 21
    assert quadpack.qag(lambda zs: 1.0 / np.sqrt(zs), 0.0, 1.0)[2] > 1
    assert quadpack.qag(lambda zs: np.full(zs.shape, math.nan), 0.0, 1.0)[2] > 1
    # one row per point: each row stops or bisects on its own values
    want = scipy.integrate.quad(np.exp, 0.0, 1.0, epsabs=1e-12, epsrel=1e-10, limit=300)[0]
    fs = (lambda zs: 1.0 / np.sqrt(zs), np.exp, lambda zs: np.full(zs.shape, math.nan))

    def rows(zs, points):
        zs = np.broadcast_to(zs, points.shape + zs.shape[-1:])
        return np.stack([fs[p](z) for p, z in zip(points.tolist(), zs)])

    (_, _, last0, _), (result, _, last1, ier), (_, _, last2, _) = quadpack.qag(rows, 0.0, 1.0, np.arange(3))
    assert (result, last1, ier) == (want, 1, 0) and last0 > 1 and last2 > 1


@pytest.mark.parametrize("t", [math.nan, -1.0])
def test_a_nan_or_negative_horizon_is_refused_where_the_inverse_overflows(t):
    ctx = LevyContext.build(
        make_family("gamma"), ParameterPath.constant([2.0, 3.0]), BaseMeasure.lebesgue(1.0), k=1
    )
    assert levy_density_u(ctx, 1.0, 800.0) == 0.0  # exp(800) overflows
    with pytest.raises(CrmError, match=f"time must be positive, got t={t}"):
        levy_density_u(ctx, t, 800.0)


def test_a_nan_horizon_or_theta_is_refused(gamma_unit_ctx):
    nan = math.nan
    with pytest.raises(CrmError, match="time must be nonnegative, got nan"):
        laplace_exponent(gamma_unit_ctx, nan, 1.0)
    with pytest.raises(CrmError, match="theta must be a finite number >= 0, got nan"):
        laplace_exponent(gamma_unit_ctx, 1.0, nan)
    with pytest.raises(CrmError, match="time must be positive, got t=nan"):
        classify_activity(gamma_unit_ctx, nan)
    with pytest.raises(CrmError, match="time must be positive, got t=nan"):
        levy_density_u(gamma_unit_ctx, nan, 0.5)


def test_a_bool_horizon_is_refused_and_an_infinite_one_ends_at_the_base(gamma_unit_ctx):
    # True used to read as t = 1
    for call in (
        lambda t: levy_density_s(gamma_unit_ctx, t, 0.5),
        lambda t: levy_density_u(gamma_unit_ctx, t, 0.5),
        lambda t: classify_activity(gamma_unit_ctx, t),
    ):
        with pytest.raises(CrmError, match=r"^time must be positive, got t=True$"):
            call(True)
    with pytest.raises(CrmError) as exc:
        laplace_exponent(gamma_unit_ctx, True, 1.0)
    assert str(exc.value) == "time must be nonnegative, got True"
    # t = inf is the whole line: over a base on (0, 2] it is t = 2, and over an
    # unbounded base the location mass diverges
    base = BaseMeasure(PiecewiseFunction([Piece(0.0, 2.0, "const", c0=1.0)]))
    ctx = LevyContext.build(make_family("gamma"), ParameterPath.constant([2.0, 3.0]), base, k=2)
    assert laplace_exponent(ctx, math.inf, 1.0) == laplace_exponent(ctx, 2.0, 1.0) == 0.8749999999999998
    with pytest.raises(DivergenceError):
        laplace_exponent(gamma_unit_ctx, math.inf, 1.0)


@pytest.mark.parametrize("window", [(0.0, math.nan), (math.nan, 1.0)], ids=["nan-end", "nan-start"])
def test_a_nan_window_end_is_refused_naming_the_window(gamma_unit_ctx, window):
    a, b = window
    with pytest.raises(CrmError, match=rf"base measure window \({a}, {b}\] has a NaN end"):
        gamma_unit_ctx.base.increment(a, b)


def _affine(c0, c1):
    return PiecewiseFunction([Piece(0.0, math.inf, "affine", c0=c0, c1=c1)])


_SHAPE_PATH = [_affine(2.0, 0.5), PiecewiseFunction.constant(3.0)]
_LOGLOG_FACE = [PiecewiseFunction.constant(-1.0), _affine(-2.5, -0.5)]

def _loglog_face(k, u, t):
    """The 50-digit density at u of ``_LOGLOG_FACE`` over (0, t] and a unit base: the
    face's law of w = ln x is Pareto with shape alpha = 1.5 + 0.5 z, so u = w has
    density alpha u^{-alpha - 1} (k = 1) and u = ln w density alpha e^{-alpha u} (k = 2)."""
    with mp.workdps(50):
        u = mp.mpf(u)

        def density(z):
            alpha = mp.mpf(1.5) + z / 2
            return alpha * (u ** (-alpha - 1) if k == 1 else mp.exp(-alpha * u))

        return mp.quad(density, [0, t])


# name: (family, path, k, t, us, the last u's density: "zero" where it is below
# the least double, "face" where it is _loglog_face's, else "positive"); each
# path is affine in z: the beta, gamma and pareto stretches are
# exponential-polynomial, the pareto_loglog ones take the 21-point pass.  At the
# last u of gamma_k1, pareto and loglog_k1 the inverse s overflows, and at
# loglog_k2's e^{e^7} does
_INVERTIBLE = {
    "beta_k1": ("beta", _SHAPE_PATH, 1, 1.5, (-3.0, -0.7, -0.05), "positive"),
    "beta_k2": ("beta", _SHAPE_PATH, 2, 1.5, (-3.0, -0.7, -0.05), "positive"),
    "gamma_k1": ("gamma", _SHAPE_PATH, 1, 1.5, (-2.0, 0.0, 1.0, 800.0), "zero"),
    "gamma_k2": ("gamma", _SHAPE_PATH, 2, 1.5, (0.1, 1.0, 3.0), "positive"),
    "pareto": ("pareto", [_affine(-3.0, -1.0)], 1, 1.5, (0.1, 1.0, 4.0, 800.0), "zero"),
    "loglog_k1": ("pareto_loglog", _LOGLOG_FACE, 1, 1.5, (1.1, 2.0, 3.5, 800.0), "face"),
    "loglog_k2": ("pareto_loglog", _LOGLOG_FACE, 2, 1.5, (0.1, 0.7, 1.2, 7.0), "face"),
}


@pytest.mark.parametrize("name", sorted(_INVERTIBLE))
def test_a_batch_of_u_gives_each_one_point_double(name):
    family, path, k, t, us, last = _INVERTIBLE[name]
    ctx = LevyContext.build(
        make_family(family), ParameterPath(path), BaseMeasure.lebesgue(1.0), k=k, require_conditions=False
    )
    singles = [levy_density_u(ctx, t, u) for u in us]
    assert all(type(v) is float for v in singles)
    assert all(v > 0 for v in singles[:-1])
    if last == "zero":
        assert singles[-1] == 0.0
    elif last == "face":  # QUADPACK's first rule on a smooth integrand
        assert singles[-1] == pytest.approx(float(_loglog_face(k, us[-1], t)), rel=1e-12, abs=0.0)
    else:
        assert singles[-1] > 0
    batch = levy_density_u(ctx, t, np.array(us))
    assert batch.shape == (len(us),) and batch.tolist() == singles
    s = np.array([float(_INVERSES[family, k][0](u)) for u in us[:-1]])
    assert levy_density_s(ctx, t, s).tolist() == [levy_density_s(ctx, t, x) for x in s]
    assert [row[2] for row in density_table(ctx, t, us)] == singles


def test_a_batch_raises_the_one_point_error_of_its_first_bad_point(gamma_const_ctx):
    for fn, bad, good in ((levy_density_u, -1.0, 0.5), (levy_density_s, -0.5, 0.5)):
        with pytest.raises(SupportError) as one:
            fn(gamma_const_ctx, 1.0, bad)
        with pytest.raises(SupportError) as batch:
            fn(gamma_const_ctx, 1.0, np.array([good, bad, bad - 1.0]))
        assert str(batch.value) == str(one.value)


def test_density_table_walks_the_locations_once(monkeypatch):
    ctx = LevyContext.build(make_family("gamma"), _AFFINE_RATE, BaseMeasure.lebesgue(1.0), k=2)
    us = (0.2, 0.7, 1.5, 2.5)
    calls = []
    z_integral = levy._z_integral

    def counted(*args):
        calls.append(args)
        return z_integral(*args)

    monkeypatch.setattr(levy, "_z_integral", counted)
    rows = density_table(ctx, 1.0, us)
    assert len(calls) == 1
    assert rows == [(1.0, u, levy_density_u(ctx, 1.0, u)) for u in us]


# shape: const 2 on (0, 1], affine on (1, 2.5], const 3 beyond; rate 2.  With
# the base's pieces and point masses the cuts are 0, 0.5, 0.75, 1, 1.5, 2, 2.5,
# 3: constant stretches below 1 and above 2.5, quadrature between.
_PLAN_PATH = ParameterPath(
    [
        PiecewiseFunction(
            [
                Piece(0.0, 1.0, "const", c0=2.0),
                Piece(1.0, 2.5, "affine", c0=1.5, c1=0.5),
                Piece(2.5, math.inf, "const", c0=3.0),
            ]
        ),
        PiecewiseFunction.constant(2.0),
    ]
)
_PLAN_BASE = BaseMeasure(
    PiecewiseFunction(
        [
            Piece(0.0, 0.75, "const", c0=1.0),
            Piece(0.75, 2.0, "affine", c0=0.5, c1=0.25),
            Piece(2.0, math.inf, "const", c0=0.3),
        ]
    ),
    ((0.5, 0.4), (1.5, 0.2), (3.0, 0.1)),
)
_PLAN_PATHS = {
    "plain": _PLAN_PATH,
    # one override on a point mass, one inside the affine stretch
    "override": _PLAN_PATH.with_override(0.5, (4.0, 1.0)).with_override(1.2, (3.0, 1.5)),
}

# (path, t): levy_density_u at u = 0.6, laplace_exponent at theta = 0.8 and
# levy_density_u at u = (0.2, 0.6, 2.0), as the per-call walk of the
# breakpoints gave them: t on a breakpoint, just above it, and inside the
# infinite last stretch
_PLAN_PINNED = {
    ("plain", 1.0): (
        "0.9611860287648148", "0.6512755102040815",
        "[0.7130529489704113, 0.9611860287648148, 0.19483260867890984]",
    ),
    ("plain", 1.0000001): (
        "0.9611860829797736", "0.6512755469387763",
        "[0.7130529891896134, 0.9611860829797736, 0.19483261966829363]",
    ),
    ("plain", 3.7): (
        "1.9567730589488068", "1.6035431170277024",
        "[1.1981584543746902, 1.9567730589488068, 0.5638362054854194]",
    ),
    ("override", 1.0): (
        "0.6799424728888549", "0.8172531952881746",
        "[0.4989871906406483, 0.6799424728888549, 0.20840138196115388]",
    ),
    ("override", 1.0000001): (
        "0.6799425271038136", "0.8172532320228695",
        "[0.4989872308598504, 0.6799425271038136, 0.20840139295053767]",
    ),
    ("override", 3.7): (
        "1.6755295030728468", "1.7695208021117956",
        "[0.9840926960449272, 1.6755295030728468, 0.5774049787676634]",
    ),
}


@pytest.mark.parametrize("name, t", sorted(_PLAN_PINNED))
def test_the_plan_clipped_at_t_keeps_the_doubles_of_the_walk(name, t):
    ctx = LevyContext.build(make_family("gamma"), _PLAN_PATHS[name], _PLAN_BASE, k=2)
    density, laplace, batch = _PLAN_PINNED[name, t]
    # twice: the second call reads the plan and the A(eta) the first one kept
    for _ in range(2):
        assert repr(levy_density_u(ctx, t, 0.6)) == density
        assert repr(laplace_exponent(ctx, t, 0.8)) == laplace
        us = (0.2, 0.6, 2.0)
        assert repr(levy_density_u(ctx, t, np.array(us)).tolist()) == batch
        assert repr([levy_density_u(ctx, t, u) for u in us]) == batch


def test_a_context_builds_its_plan_once_and_a_copy_builds_its_own(monkeypatch):
    built = []
    plan = levy._Plan

    def counted(ctx):
        built.append(ctx)
        return plan(ctx)

    monkeypatch.setattr(levy, "_Plan", counted)
    ctx = LevyContext.build(make_family("gamma"), _PLAN_PATH, _PLAN_BASE, k=2)
    assert built == []
    levy_density_u(ctx, 1.0, 0.6)
    density_table(ctx, 3.7, (0.2, 0.6))
    laplace_exponent(ctx, 2.0, 0.8)
    assert isinstance(classify_activity(ctx, 1.0), NotTimeHomogeneous)
    levy_integrand(ctx, 1.2, 0.6)
    assert len(built) == 1 and built[0] is ctx
    copy = dataclasses.replace(ctx)
    assert levy_density_u(copy, 1.0, 0.6) == levy_density_u(ctx, 1.0, 0.6)
    assert len(built) == 2 and built[1] is copy
    assert copy._plan is not ctx._plan


def test_a_failed_bind_is_not_kept():
    ctx = LevyContext.build(
        make_family("gamma"), ParameterPath.constant([-1.0, 2.0]), BaseMeasure.lebesgue(1.0), k=2,
        require_conditions=False,
    )
    for call, arg in ((levy_density_u, 0.6), (levy_density_u, 0.6), (laplace_exponent, 0.8)):
        with pytest.raises(NaturalSpaceError) as exc:
            call(ctx, 1.0, arg)
        assert str(exc.value) == "gamma: shape must be positive, got -1.0"


def test_a_horizon_beyond_the_paths_domain_names_the_first_node_outside_it():
    # the path ends at z = 2 and the base does not: quadrature on (2, 3] starts at 2.5
    path = ParameterPath(
        [
            PiecewiseFunction([Piece(0.0, 2.0, "affine", c0=2.0, c1=0.5)]),
            PiecewiseFunction.constant(3.0, 0.0, 2.0),
        ]
    )
    ctx = LevyContext.build(make_family("gamma"), path, BaseMeasure.lebesgue(1.0), k=2)
    assert levy_density_u(ctx, 2.0, 0.6) > 0
    for call, arg in ((levy_density_u, 0.6), (laplace_exponent, 0.8), (levy_density_u, np.array([0.2, 0.6]))):
        with pytest.raises(CrmError) as exc:
            call(ctx, 3.0, arg)
        assert str(exc.value) == "z=2.5 outside the covered domain"


@pytest.mark.parametrize(
    "zero",
    [
        Piece(1.0, math.inf, "const", c0=0.0),
        Piece(1.0, math.inf, "affine", c0=0.0, c1=0.0),
        Piece(1.0, math.inf, "ratio", c0=0.0, c1=0.0, d0=1.0, d1=1.0),
    ],
    ids=["const", "affine", "ratio"],
)
def test_a_stretch_over_a_zero_base_piece_evaluates_no_integrand(zero):
    # the shape 3 - z leaves the natural space at z = 3, where the base is 0
    shape = PiecewiseFunction([Piece(0.0, math.inf, "affine", c0=3.0, c1=-1.0)])
    path = ParameterPath([shape, PiecewiseFunction.constant(2.0)])
    base = BaseMeasure(PiecewiseFunction([Piece(0.0, 1.0, "const", c0=1.0), zero]))
    ctx = LevyContext.build(make_family("gamma"), path, base, k=2, require_conditions=False)
    assert repr(levy_density_s(ctx, 2.5, 0.7)) == "0.6053914607047293"
    assert levy_density_s(ctx, 4.0, 0.7) == levy_density_s(ctx, 2.5, 0.7)
    assert laplace_exponent(ctx, 4.0, 0.8) == laplace_exponent(ctx, 2.5, 0.8)
    # as a constant path over the same base already did
    constant = LevyContext.build(make_family("gamma"), ParameterPath.constant([3.0, 2.0]), base, k=2)
    assert levy_density_s(constant, 4.0, 0.7) == levy_density_s(constant, 2.5, 0.7)


# gamma with shape 3 - z and rate 2 over Lebesgue, unenforced: the first pass over
# (0, 4] leaves the natural space past z = 3, and its third node is the first to
_LEAVING_SHAPE = PiecewiseFunction([Piece(0.0, math.inf, "affine", c0=3.0, c1=-1.0)])
# a func shape that is infinite past z = 1.5, so the pass over (0, 2] meets inf
_INF_SHAPE = PiecewiseFunction.from_callable(lambda z: math.inf if z > 1.5 else 2.0)


@pytest.mark.parametrize(
    "call, arg",
    [(levy_density_u, 0.7), (levy_density_u, np.array([0.2, 0.7])), (laplace_exponent, 0.8), (levy_density_s, 0.7)],
    ids=["density-u", "density-u-batch", "laplace", "density-s"],
)
def test_a_node_outside_the_natural_space_raises_with_its_index(call, arg):
    path = ParameterPath([_LEAVING_SHAPE, PiecewiseFunction.constant(2.0)])
    ctx = LevyContext.build(make_family("gamma"), path, BaseMeasure.lebesgue(1.0), k=2, require_conditions=False)
    with pytest.raises(NaturalSpaceError) as exc:
        call(ctx, 4.0, arg)
    assert str(exc.value) == "gamma: shape must be positive, got -0.9478130570343435"
    assert (exc.value.index, exc.value.coord) == (2, 1)


@pytest.mark.parametrize(
    "call, arg",
    [(levy_density_u, 0.7), (levy_density_u, np.array([0.2, 0.7])), (laplace_exponent, 0.8)],
    ids=["density-u", "density-u-batch", "laplace"],
)
def test_a_path_not_finite_at_a_node_names_that_z(call, arg):
    path = ParameterPath([_INF_SHAPE, PiecewiseFunction.constant(2.0)])
    ctx = LevyContext.build(make_family("gamma"), path, BaseMeasure.lebesgue(1.0), k=2, require_conditions=False)
    with pytest.raises(CrmError) as exc:
        call(ctx, 2.0, arg)
    assert type(exc.value) is CrmError
    assert str(exc.value) == "parameter path not finite at z=1.9739065285171717: [inf  2.]"


@pytest.mark.parametrize("k, image", [(1, "(-inf, inf) of statistic 'log_x'"), (2, "(0.0, inf) of statistic 'x'")])
@pytest.mark.parametrize("u", [math.nan, np.array([0.5, math.nan])], ids=["one", "batch"])
def test_a_nan_u_is_outside_the_image(k, image, u):
    ctx = LevyContext.build(make_family("gamma"), _AFFINE_RATE, BaseMeasure.lebesgue(1.0), k=k)
    with pytest.raises(SupportError) as exc:
        levy_density_u(ctx, 1.0, u)
    assert str(exc.value) == f"u=nan outside the image {image}"


@pytest.mark.parametrize("bad", [0, 1, 99_999], ids=["first", "second", "last"])
def test_a_batch_names_its_first_point_outside_the_support_or_image(bad):
    ctx = LevyContext.build(make_family("gamma"), _AFFINE_RATE, BaseMeasure.lebesgue(1.0), k=2)
    points = np.linspace(0.5, 2.0, 100_000)
    points[bad], points[bad + 1:] = -1.0, -2.0  # later bad points are not named
    with pytest.raises(SupportError) as exc:
        levy_density_s(ctx, 1.0, points)
    assert str(exc.value) == "gamma: s=-1.0 outside the support (0.0, inf)"
    with pytest.raises(SupportError) as exc:
        levy_density_u(ctx, 1.0, points.reshape(1000, 100))
    assert str(exc.value) == "u=-1.0 outside the image (0.0, inf) of statistic 'x'"
    # the entry is named as the input holds it, an integer as an integer
    with pytest.raises(SupportError) as exc:
        levy_density_s(ctx, 1.0, [1, 2, -3, -4])
    assert str(exc.value) == "gamma: s=-3 outside the support (0.0, inf)"


def test_one_density_checks_its_node_batch_once_where_it_is_made(monkeypatch):
    # each check of the 21 etas of the one pass runs once; none runs through _as_eta
    ctx = LevyContext.build(make_family("gamma"), _FRACTIONAL_SHAPE, BaseMeasure.lebesgue(1.0), k=2)
    calls = []
    check_natural, check_finite = expfam.ExpFamilySpec.check_natural, expfam._check_finite_path

    def natural(spec, eta):
        calls.append(("check_natural", np.shape(eta)))
        return check_natural(spec, eta)

    def finite(zs, etas):
        calls.append(("_check_finite_path", np.shape(etas)))
        return check_finite(zs, etas)

    def refused(*args, **kwargs):
        raise AssertionError("the node batch is bound through _as_eta")

    monkeypatch.setattr(expfam.ExpFamilySpec, "check_natural", natural)
    monkeypatch.setattr(expfam, "_check_finite_path", finite)
    monkeypatch.setattr(expfam, "_as_eta", refused)
    assert levy_density_u(ctx, 1.2, 1.0) > 0
    assert calls == [("_check_finite_path", (21, 2)), ("check_natural", (2, 21))]


def test_one_density_checks_t_once_and_enters_one_errstate(monkeypatch):
    # the door checks t and sets the floating-point state once for the whole walk:
    # no second check of t behind it, no errstate of its own in any layer under it
    ctx = LevyContext.build(make_family("gamma"), _AFFINE_RATE, BaseMeasure.lebesgue(1.0), k=2)
    want = levy_density_u(ctx, 1.2, 1.0)  # builds the plan outside the count
    times, entered = [], []
    check_time, errstate = levy._check_time, np.errstate

    def counted_time(*args, **kwargs):
        times.append(args)
        return check_time(*args, **kwargs)

    class CountedErrstate:
        def __init__(self, **kwargs):
            self.state = errstate(**kwargs)

        def __enter__(self):
            entered.append(1)
            return self.state.__enter__()

        def __exit__(self, *exc):
            return self.state.__exit__(*exc)

    monkeypatch.setattr(levy, "_check_time", counted_time)
    monkeypatch.setattr(np, "errstate", CountedErrstate)
    assert levy_density_u(ctx, 1.2, 1.0) == want
    assert times == [(1.2,)]
    assert len(entered) == 1


# (family, k, eta, u): points at the ends of the statistic's image, where the
# inverse underflows, overflows or rounds onto the end of the support
_IMAGE_EDGES = [
    ("beta", 1, (1.0, 2.0), (-1e-17, -5e-324, -700.0, -746.0)),
    ("beta", 2, (1.0, 2.0), (-1e-17, -5e-324, -700.0, -746.0)),
    ("gamma", 1, (1.5, 2.0), (700.0, -700.0, 710.0, -746.0)),
]


@pytest.mark.parametrize("name, k, eta, us", _IMAGE_EDGES)
def test_points_at_the_image_edges_raise_or_give_a_finite_density_alone_and_in_an_array(name, k, eta, us):
    ctx = LevyContext.build(make_family(name), ParameterPath.constant(eta), BaseMeasure.lebesgue(1.0), k=k)

    def alone(u):
        try:
            return levy_density_u(ctx, 1.0, u)
        except SupportError as exc:
            return exc

    singles = {u: alone(u) for u in us}
    for value in singles.values():
        assert isinstance(value, SupportError) or (math.isfinite(value) and value >= 0.0)
    for pair in [(a, b) for a in us for b in us]:
        raised = [singles[u] for u in pair if isinstance(singles[u], SupportError)]
        if raised:
            with pytest.raises(SupportError) as exc:
                levy_density_u(ctx, 1.0, np.array(pair))
            assert str(exc.value) == str(raised[0])
        else:
            got = levy_density_u(ctx, 1.0, np.array(pair))
            assert [v.hex() for v in got.tolist()] == [singles[u].hex() for u in pair]


def test_a_beta_weight_density_near_zero_holds_to_8_ulps_on_a_constant_path():
    # k = 2: u = ln(1 - s), density 12 (1 - e^u) e^{3u}; s = 1 - e^u would cancel near
    # u = 0, and the density is read from u
    ctx = LevyContext.build(make_family("beta"), ParameterPath.constant([2.0, 3.0]), BaseMeasure.lebesgue(1.0), k=2)
    for u in (-1e-3, -1e-6, -1e-9):
        got = levy_density_u(ctx, 1.0, u)
        with mp.workdps(50):
            want = 12 * -mp.expm1(mp.mpf(u)) * mp.exp(3 * mp.mpf(u))
        assert float(abs(got - want)) <= 8 * math.ulp(float(want)), u


def test_a_constant_path_weight_density_is_rounded_once_from_long_double():
    # gamma (1.5, 2), k = 1: the density's exponent 1.5u - A - 2e^u reaches -660 at
    # u = 5.8, where the rounding of a double exponent alone costs hundreds of ulps
    ctx = LevyContext.build(make_family("gamma"), ParameterPath.constant([1.5, 2.0]), BaseMeasure.lebesgue(1.0), k=1)
    us = np.linspace(5.0, 5.8, 41)
    for u, got in zip(us.tolist(), levy_density_u(ctx, 1.0, us).tolist()):
        with mp.workdps(50):
            u_ = mp.mpf(u)
            want = mp.exp(mp.mpf(1.5) * u_ - (mp.loggamma(mp.mpf(1.5)) - mp.mpf(1.5) * mp.log(2)) - 2 * mp.exp(u_))
        assert float(abs(got - want)) <= 4 * math.ulp(float(want)), u


def test_a_constant_path_family_density_is_rounded_once_from_long_double():
    # beta (2, 3), k = 1, at s = e^-700 and e^-40: the exponent ln s - A + ... is
    # about -700 and -40, where a double exponent alone costs 405 and 12 ulps
    ctx = LevyContext.build(make_family("beta"), ParameterPath.constant([2.0, 3.0]), BaseMeasure.lebesgue(1.0), k=1)
    for s in (math.exp(-700.0), math.exp(-40.0)):
        got = levy_density_s(ctx, 1.0, s)
        with mp.workdps(40):
            want = 12 * mp.mpf(s) * (1 - mp.mpf(s)) ** 2
        assert float(abs(got - want)) <= math.ulp(float(want)), s


def _loglog_const(eta, k):
    return LevyContext.build(
        make_family("pareto_loglog"), ParameterPath.constant(eta), BaseMeasure.lebesgue(1.0), k=k,
        require_conditions=False,
    )


def test_a_loglog_face_density_past_the_double_range_of_s_holds_to_4_ulps():
    # on the face (-1, eta_2) w = ln x is Pareto(1, alpha = -1 - eta_2): u = w has density
    # alpha u^{-alpha - 1} (k = 1) and v = ln w density alpha e^{-alpha v} (k = 2), while
    # s = e^u overflows past u = 709.78 and s = e^{e^v} past v = 6.57.  The tilt
    # eta_1 + 1 = 0 drops ln x from the exponent, so no term larger than the density's
    # own exponent is summed
    for eta_2, k, us in ((-3.0, 2, (7.0, 8.0, 10.0, 50.0)), (-3.0, 1, (1e3, 1e6, 1e12, 1e100))):
        ctx, alpha = _loglog_const([-1.0, eta_2], k), -1 - eta_2
        for u in us:
            got = levy_density_u(ctx, 1.0, u)
            with mp.workdps(50):
                want = alpha * (mp.mpf(u) ** (-alpha - 1) if k == 1 else mp.exp(-alpha * mp.mpf(u)))
            assert float(abs(got - want)) <= 4 * math.ulp(float(want)), (k, u)


def test_a_loglog_density_where_e_to_the_v_overflows_is_its_own_double():
    # k = 2 at v = 800, where T_1 = e^v is past the largest double: off the face the
    # density is 0.0, on it alpha e^{-alpha v}, a normal double for alpha near 0.001
    # (-1 - eta_2 at the double eta_2 = -1.001); alone and in a batch with a v inside
    # the double range
    us = np.array([1.0, 800.0])
    off = _loglog_const([-2.0, -2.5], 2)
    assert levy_density_u(off, 1.0, 800.0) == 0.0 < levy_density_u(off, 1.0, 1.0)
    assert levy_density_u(off, 1.0, us).tolist() == [levy_density_u(off, 1.0, 1.0), 0.0]
    face = _loglog_const([-1.0, -1.001], 2)
    got = levy_density_u(face, 1.0, 800.0)
    with mp.workdps(50):
        alpha = -1 - mp.mpf(-1.001)
        want = alpha * mp.exp(-alpha * 800)
    assert float(abs(got - want)) <= 4 * math.ulp(float(want))
    assert levy_density_u(face, 1.0, us).tolist() == [levy_density_u(face, 1.0, 1.0), got]
    assert [row[2] for row in density_table(face, 1.0, us)] == [levy_density_u(face, 1.0, 1.0), got]


# (family, k) -> (s = T_k^{-1}(u), ln|ds/du|) for every registered statistic with an
# inverse: the reference that the family's stat_terms, its one declaration, is held to
_INVERSES = {
    ("beta", 1): (np.exp, lambda u: u),
    ("beta", 2): (lambda u: 1.0 - np.exp(u), lambda u: u),
    ("gamma", 1): (np.exp, lambda u: u),
    ("gamma", 2): (lambda u: u, lambda u: 0.0 * u),
    ("pareto", 1): (np.exp, lambda u: u),
    ("pareto_loglog", 1): (np.exp, lambda u: u),
    ("pareto_loglog", 2): (lambda v: np.exp(np.exp(v)), lambda v: np.exp(v) + v),
}

# (family, k) -> (eta, u inside the image) for every registered statistic with an inverse
_WEIGHT_POINTS = {
    ("beta", 1): ((2.0, 3.0), (-3.0, -0.5, -0.01)),
    ("beta", 2): ((2.0, 3.0), (-3.0, -0.5, -0.01)),
    ("gamma", 1): ((2.0, 3.0), (-2.0, 0.5, 3.0)),
    ("gamma", 2): ((2.0, 3.0), (0.1, 1.0, 5.0)),
    ("pareto", 1): ((-3.0,), (0.1, 1.0, 5.0)),
    ("pareto_loglog", 1): ((-2.0, -2.5), (1.1, 2.0, 5.0)),
    ("pareto_loglog", 2): ((-2.0, -2.5), (0.1, 1.0, 2.0)),
}


def test_weight_points_cover_every_registered_statistic_with_an_inverse():
    invertible = {
        (name, k)
        for name in expfam.family_names()
        if (family := make_family(name)).stat_terms is not None
        for k in range(1, family.dimension + 1)
    }
    assert invertible == set(_WEIGHT_POINTS) == set(_INVERSES)


@pytest.mark.parametrize("name, k", sorted(_WEIGHT_POINTS))
def test_stat_terms_agree_with_the_terms_at_the_inverse_plus_the_log_jacobian(name, k):
    # a family's stat_terms, the one declaration of its statistics' inverse, held
    # to the terms at the reference inverse plus ln|ds/du|: at interior u they agree
    # to a relative 1e-13 (0 exactly where one is 0), the tilt's
    # sum_j sign_j tilt_j T_j added to the carrier
    family, (inverse, log_jacobian) = make_family(name), _INVERSES[name, k]
    us = np.array(_WEIGHT_POINTS[name, k][1])
    carrier, values, tilt = family.stat_terms(k, us)
    for j, value in enumerate(values if tilt is not None else ()):
        carrier = carrier + family.stats[j].sign * tilt[j] * value
    s_carrier, s_values = expfam._terms(family, inverse(us))
    s_carrier = s_carrier + log_jacobian(us)
    for got, want in zip([carrier, *values], [s_carrier, *s_values]):
        assert np.broadcast_to(got, us.shape).tolist() == pytest.approx(
            np.broadcast_to(want, us.shape).tolist(), rel=1e-13, abs=0.0
        )


def _refuse(*args):
    raise AssertionError("a term was evaluated at s")


@pytest.mark.parametrize("name, k", sorted(_WEIGHT_POINTS))
def test_weight_densities_never_evaluate_the_terms_at_s(name, k):
    # no s = T_k^{-1}(u) is formed: with every statistic's value and the carrier
    # refusing, each weight density reads stat_terms alone and keeps its doubles
    eta, us = _WEIGHT_POINTS[name, k]
    ctx = LevyContext.build(
        make_family(name), ParameterPath.constant(list(eta)), BaseMeasure.lebesgue(1.0), k=k,
        require_conditions=False,
    )
    want = [levy_density_u(ctx, 1.0, u) for u in us]
    family = ctx.family
    stats = tuple(dataclasses.replace(stat, value=_refuse) for stat in family.stats)
    spied = dataclasses.replace(ctx, family=dataclasses.replace(family, stats=stats, log_carrier=_refuse))
    assert [levy_density_u(spied, 1.0, u) for u in us] == want
    assert levy_density_u(spied, 1.0, np.array(us)).tolist() == want
    assert [row[2] for row in density_table(spied, 1.0, us)] == want
    activity = classify_activity(spied, 1.0)
    assert isinstance(activity, FiniteActivity)
    assert activity.weight_density(np.array(us)).tolist() == want


def _set_grid(path, cuts=()):
    # the grid as a Python set of numpy scalars built it, the reference
    lo = max(c.lo for c in path.components)
    hi = min(c.hi for c in path.components)
    hi_eff = hi if np.isfinite(hi) else max(10.0, lo + 10.0)
    lo_eff = max(lo, 1e-4 * max(1.0, hi_eff))
    pts = set(np.geomspace(lo_eff if lo_eff > 0 else 1e-4, hi_eff, 24))
    pts.update(np.linspace(lo_eff, hi_eff, 17))
    pts.update(b for b in [*path.breakpoints(), *cuts] if lo < b < hi)
    return np.asarray(sorted(p for p in pts if lo < p and p <= hi), dtype=float)


_FINITE_PATH = ParameterPath(
    [
        PiecewiseFunction(
            [Piece(0.0, 1.0, "const", c0=2.0), Piece(1.0, 1.5, "affine", c0=1.0, c1=1.0)]
        ),
        PiecewiseFunction.constant(3.0, 0.0, 1.5),
    ]
)


@pytest.mark.parametrize(
    "path, cuts",
    [
        (ParameterPath.constant([2.0, 3.0]), [0.5, 20.0]),
        # cuts on a spaced point, repeated, at and past the domain's ends
        (ParameterPath.constant([2.0, 3.0]), [1e-3, 10.0, 5.0, 5.0, 0.0, -1.0, np.inf]),
        (ParameterPath.constant([2.0, 3.0]), []),
        # a finite domain (0, 1.5] with a breakpoint at 1 and cuts at its end
        (_FINITE_PATH, [1.0, 1.5, 0.75]),
    ],
)
def test_default_grid_equals_the_set_built_grid(path, cuts):
    grid = levy._default_grid(path, cuts)
    assert grid.tobytes() == _set_grid(path, cuts).tobytes()
    assert np.all(np.diff(grid) > 0)


@pytest.mark.parametrize("name", ["gamma.json", "pareto_series.json"])
def test_default_grid_of_each_config_component_equals_the_set_built_grid(name):
    config = Path(__file__).resolve().parents[1] / "configs" / name
    contexts, _ = parse_sample_config(load_json(config.read_text()))
    for ctx in contexts:
        cuts = ctx.base.breakpoints()
        assert levy._default_grid(ctx.path, cuts).tobytes() == _set_grid(ctx.path, cuts).tobytes()


@pytest.mark.parametrize("k", [True, 1.0, 1.5])
def test_a_context_refuses_a_statistic_index_that_is_not_an_integer(k):
    with pytest.raises(CrmError, match=r"^gamma: statistic index k must satisfy 1 <= k <= 2, got"):
        LevyContext.build(make_family("gamma"), _AFFINE_RATE, BaseMeasure.lebesgue(1.0), k=k)


def _unchecked(name, eta, k=1):
    """A context of the family at a constant eta over a unit Lebesgue base, built unenforced."""
    return LevyContext.build(
        make_family(name), ParameterPath.constant(eta), BaseMeasure.lebesgue(1.0), k=k, require_conditions=False
    )


# refusal -> (call, its error type, its exact message)
_LEVY_REFUSALS = {
    "unknown-check": (lambda: _unchecked("gamma", [2.0, 3.0], 2).report.check("nope"), KeyError, "'nope'"),
    "path-dimension": (
        lambda: check_conditions(make_family("gamma"), ParameterPath.constant([1.0]), 1, [1.0]),
        CrmError,
        "path dimension 1 != family dimension 2",
    ),
    "empty-grid": (
        lambda: check_conditions(make_family("gamma"), ParameterPath.constant([2.0, 3.0]), 2, []),
        CrmError,
        "condition grid must be nonempty and strictly positive",
    ),
    "no-inverse": (
        lambda: levy_density_u(_unchecked("lognormal", [2.0]), 1.0, 0.5),
        CrmError,
        "statistic 'half_sq_centered_log' has no declared inverse",
    ),
    # stat_terms is a statistic's one declared inverse: a spec built without it has none
    "no-stat-terms": (
        lambda: levy_density_u(
            dataclasses.replace(
                _unchecked("gamma", [2.0, 3.0], 2),
                family=dataclasses.replace(make_family("gamma"), stat_terms=None),
            ),
            1.0,
            0.5,
        ),
        CrmError,
        "statistic 'x' has no declared inverse",
    ),
    "discrete-activity": (
        lambda: classify_activity(_unchecked("poisson", [0.0]), 1.0),
        CrmError,
        "activity classification needs a continuous support",
    ),
}


@pytest.mark.parametrize("case", sorted(_LEVY_REFUSALS))
def test_a_levy_refusal_names_its_cause(case):
    call, error, message = _LEVY_REFUSALS[case]
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
