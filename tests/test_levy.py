import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special

from crmkit import expfam, levy
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


def test_gate_refuses_strict_failed_context():
    pareto = make_family("pareto", scale=1.0)
    ctx = LevyContext.build(
        pareto,
        ParameterPath.constant([-3.0]),
        BaseMeasure.lebesgue(1.0),
        k=1,
        require_conditions=False,
    )
    object.__setattr__(ctx, "require_conditions", True)
    with pytest.raises(ConditionError):
        ctx.gate()


def test_levy_density_s_constant_context(gamma_const_ctx):
    # constant path: dL_t(s) = t * 1.5 * p(s | 2, 3)
    for t in (0.5, 2.0):
        for s in (0.3, 1.0, 2.5):
            want = t * 1.5 * expfam.density(gamma_const_ctx.family, [2.0, 3.0], s)
            assert levy_density_s(gamma_const_ctx, t, s) == pytest.approx(want, rel=1e-9)


def test_levy_density_s_window_additivity(gamma_const_ctx):
    s = 0.7
    whole = levy_density_s(gamma_const_ctx, 2.0, s)
    left = levy_density_s(gamma_const_ctx, 2.0, s, z_window=(0.0, 0.8))
    right = levy_density_s(gamma_const_ctx, 2.0, s, z_window=(0.8, 2.0))
    assert whole == pytest.approx(left + right, rel=1e-9)


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


def test_classify_finite_activity(gamma_const_ctx):
    act = classify_activity(gamma_const_ctx, 2.0)
    assert isinstance(act, FiniteActivity)
    assert act.total_mass == pytest.approx(3.0, rel=1e-6)
    assert act.rate == pytest.approx(1.5, rel=1e-6)
    # normalized weight density at a point
    assert act.weight_density(1.0) == pytest.approx(
        expfam.density(gamma_const_ctx.family, [2.0, 3.0], 1.0), rel=1e-6
    )


def test_classify_not_time_homogeneous(pareto_linear_ctx):
    act = classify_activity(pareto_linear_ctx, 1.0)
    assert isinstance(act, NotTimeHomogeneous)
    assert act.witnesses


def test_classify_infinite_activity():
    base = BaseMeasure(PiecewiseFunction.from_callable(lambda z: 1.0 / z, lo=0.0, hi=1.0))
    ctx = LevyContext.build(
        make_family("gamma"), ParameterPath.constant([2.0, 3.0]), base, k=2
    )
    assert isinstance(classify_activity(ctx, 1.0), levy.InfiniteActivity)


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
