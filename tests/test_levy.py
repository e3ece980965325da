import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
from scipy import special

from crmkit import expfam, levy, piecewise, verify
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
    for jump in ((0.5, math.nan), (math.nan, 1.0)):
        with pytest.raises(CrmError, match="must be nonnegative"):
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


def test_levy_density_u_overflow_tail_is_zero(pareto_linear_ctx):
    # u = ln s; exp(u) overflows well before u = 1000, the measure is long gone
    assert levy_density_u(pareto_linear_ctx, 1.0, 1000.0) == 0.0


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
    # each evaluation of 1 - E[exp(-theta T_2)] needs A at eta and at the tilted eta
    laplace_exponent(ctx, 3.0, 1.0)
    assert calls == [(2.0, 3.0), (2.0, 4.0), (3.0, 3.0), (3.0, 4.0)]


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
    # mass 2 at eta (3, 3): the closed form h(eta) A_0 on each stretch
    want = 0.5 * expfam.density(gamma, [2.0, 3.0], 0.7)
    want += 2.0 * expfam.density(gamma, [3.0, 3.0], 0.7)
    assert levy_density_s(ctx, 3.0, 0.7) == want > 0
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
    monkeypatch.setattr(scipy.integrate, "quad", _refuse_quad)
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


def test_an_affine_path_takes_one_gauss_kronrod_pass_and_no_quad(monkeypatch):
    ctx = LevyContext.build(make_family("gamma"), _AFFINE_RATE, BaseMeasure.lebesgue(1.0), k=2)
    monkeypatch.setattr(scipy.integrate, "quad", _refuse_quad)
    # the doubles quad returned after its first 21-point pass
    assert repr(laplace_exponent(ctx, 1.0, 1.0)) == "0.4054651081081644"
    assert repr(levy_density_u(ctx, 1.0, 0.7)) == "0.5150251081337565"


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
    monkeypatch.setattr(scipy.integrate, "quad", _refuse_quad)
    assert levy_density_u(ctx, 2.0, 0.3) == levy_density_u(plain, 2.0, 0.3)
    assert laplace_exponent(ctx, 2.0, 1.0) == laplace_exponent(plain, 2.0, 1.0)
    assert levy_integrand(ctx, 1.0, 0.3) == levy_integrand(plain, 1.0, 0.3) > 0.5


def _func_base(f):
    return BaseMeasure(PiecewiseFunction.from_callable(f, lo=0.0, hi=1.0))


def test_a_singular_base_is_rejected_by_the_pass_and_integrated_by_quad(monkeypatch):
    ctx = LevyContext.build(
        make_family("gamma"), _AFFINE_RATE, _func_base(lambda z: 1.0 / math.sqrt(z)), k=2
    )
    calls = []
    quad = scipy.integrate.quad

    def counted(f, a, b, **kwargs):
        calls.append((a, b))
        return quad(f, a, b, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counted)
    # the doubles quad gives on each whole stretch
    assert repr(laplace_exponent(ctx, 1.0, 1.0)) == "0.8704197513671034"
    assert repr(levy_density_u(ctx, 1.0, 0.7)) == "1.0242459459911837"
    assert calls == [(0.0, 1.0), (0.0, 1.0)]


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
    assert levy._gk21(lambda zs: f(zs), a, b) == [val]


def test_the_qk21_port_declines_where_quad_subdivides():
    f = lambda z: 1.0 / math.sqrt(z)
    _, _, info = scipy.integrate.quad(f, 0.0, 1.0, epsabs=1e-12, epsrel=1e-10, limit=300, full_output=1)
    assert info["neval"] > 21
    assert levy._gk21(lambda zs: 1.0 / np.sqrt(zs), 0.0, 1.0) == [None]
    assert levy._gk21(lambda zs: np.full(zs.shape, math.nan), 0.0, 1.0) == [None]
    # one row per point: each row is declined or accepted on its own values
    want = scipy.integrate.quad(np.exp, 0.0, 1.0, epsabs=1e-12, epsrel=1e-10, limit=300)[0]
    rows = lambda zs: np.stack([1.0 / np.sqrt(zs), np.exp(zs), np.full(zs.shape, math.nan)])
    assert levy._gk21(rows, 0.0, 1.0) == [None, want, None]


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
    with pytest.raises(CrmError, match="theta must be nonnegative, got nan"):
        laplace_exponent(gamma_unit_ctx, 1.0, nan)
    with pytest.raises(CrmError, match="time must be positive, got t=nan"):
        classify_activity(gamma_unit_ctx, nan)
    with pytest.raises(CrmError, match="time must be positive, got t=nan"):
        levy_density_u(gamma_unit_ctx, nan, 0.5)


@pytest.mark.parametrize("window", [(0.0, math.nan), (math.nan, 1.0)], ids=["nan-end", "nan-start"])
def test_a_nan_window_end_is_refused_naming_the_window(gamma_unit_ctx, window):
    a, b = window
    with pytest.raises(CrmError, match=rf"base measure window \({a}, {b}\] has a NaN end"):
        gamma_unit_ctx.base.increment(a, b)


def _affine(c0, c1):
    return PiecewiseFunction([Piece(0.0, math.inf, "affine", c0=c0, c1=c1)])


_SHAPE_PATH = [_affine(2.0, 0.5), PiecewiseFunction.constant(3.0)]
_LOGLOG_FACE = [PiecewiseFunction.constant(-1.0), _affine(-2.5, -0.5)]

# name: (family, path, k, t, us, whether the inverse overflows at the last u);
# each path is affine in z, so each stretch takes the 21-point pass
_INVERTIBLE = {
    "beta_k1": ("beta", _SHAPE_PATH, 1, 1.5, (-3.0, -0.7, -0.05), False),
    "beta_k2": ("beta", _SHAPE_PATH, 2, 1.5, (-3.0, -0.7, -0.05), False),
    "gamma_k1": ("gamma", _SHAPE_PATH, 1, 1.5, (-2.0, 0.0, 1.0, 800.0), True),
    "gamma_k2": ("gamma", _SHAPE_PATH, 2, 1.5, (0.1, 1.0, 3.0), False),
    "pareto": ("pareto", [_affine(-3.0, -1.0)], 1, 1.5, (0.1, 1.0, 4.0, 800.0), True),
    "loglog_k1": ("pareto_loglog", _LOGLOG_FACE, 1, 1.5, (1.1, 2.0, 3.5, 800.0), True),
    "loglog_k2": ("pareto_loglog", _LOGLOG_FACE, 2, 1.5, (0.1, 0.7, 1.2, 7.0), True),
}


@pytest.mark.parametrize("name", sorted(_INVERTIBLE))
def test_a_batch_of_u_gives_each_one_point_double(name):
    family, path, k, t, us, overflows = _INVERTIBLE[name]
    ctx = LevyContext.build(
        make_family(family), ParameterPath(path), BaseMeasure.lebesgue(1.0), k=k, require_conditions=False
    )
    singles = [levy_density_u(ctx, t, u) for u in us]
    assert all(type(v) is float for v in singles)
    assert all(v > 0 for v in singles[:-1]) and (singles[-1] == 0.0) == overflows
    batch = levy_density_u(ctx, t, np.array(us))
    assert batch.shape == (len(us),) and batch.tolist() == singles
    s = np.array([float(ctx.stat().inverse(u)) for u in us[:-1]])
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
