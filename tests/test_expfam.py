import math

import numpy as np
import pytest
from scipy import integrate, special

from crmkit import expfam
from crmkit.errors import CrmError, DerivativeDomainError, NaturalSpaceError


def test_registry_contents():
    assert expfam.family_names() == (
        "bernoulli",
        "beta",
        "gamma",
        "lognormal",
        "pareto",
        "pareto_loglog",
        "poisson",
    )
    with pytest.raises(CrmError, match="unknown family"):
        expfam.make_family("weibull")


def test_natural_space_checks():
    beta = expfam.make_family("beta")
    with pytest.raises(NaturalSpaceError) as exc:
        beta.check_natural(np.array([0.0, 1.0]))
    assert exc.value.coord == 1

    pareto = expfam.make_family("pareto")
    with pytest.raises(NaturalSpaceError):
        pareto.check_natural(np.array([-1.0]))

    loglog = expfam.make_family("pareto_loglog")
    loglog.check_natural(np.array([-1.0, -2.0]))  # on the face
    with pytest.raises(NaturalSpaceError):
        loglog.check_natural(np.array([-1.0, -0.5]))
    with pytest.raises(NaturalSpaceError):
        loglog.check_natural(np.array([-0.5, -2.0]))


def test_log_partition_closed_forms():
    beta = expfam.make_family("beta")
    a, b = 2.0, 3.0
    want = special.betaln(a, b)
    assert expfam.log_partition(beta, [a, b]) == pytest.approx(want, rel=1e-12)

    gamma = expfam.make_family("gamma")
    assert expfam.log_partition(gamma, [a, b]) == pytest.approx(
        special.gammaln(a) - a * math.log(b), rel=1e-12
    )


@pytest.mark.parametrize(
    "name,eta",
    [
        ("beta", [2.0, 3.0]),
        ("gamma", [2.5, 1.5]),
        ("pareto", [-3.0]),
        ("pareto_loglog", [-2.0, -2.5]),
        ("lognormal", [2.0]),
    ],
)
def test_density_normalizes(name, eta):
    spec = expfam.make_family(name)
    total, _ = integrate.quad(
        lambda x: expfam.density(spec, eta, x), spec.support.lo, spec.support.hi
    )
    assert total == pytest.approx(1.0, rel=1e-8)


def test_density_normalizes_discrete():
    poisson = expfam.make_family("poisson")
    xs = np.arange(0, 200)
    total = sum(expfam.density(poisson, [1.2], float(x)) for x in xs)
    assert total == pytest.approx(1.0, rel=1e-12)

    bern = expfam.make_family("bernoulli")
    assert expfam.density(bern, [0.4], 0.0) + expfam.density(bern, [0.4], 1.0) == pytest.approx(1.0)


def test_moment_suff_stat_closed_forms():
    beta = expfam.make_family("beta")
    a, b = 2.0, 3.0
    assert expfam.moment_suff_stat(beta, [a, b], 1, 1) == pytest.approx(
        special.digamma(a) - special.digamma(a + b), rel=1e-9
    )

    gamma = expfam.make_family("gamma")
    assert expfam.moment_suff_stat(gamma, [a, b], 2, 1) == pytest.approx(a / b, rel=1e-12)
    assert expfam.moment_suff_stat(gamma, [a, b], 2, 2) == pytest.approx(
        a * (a + 1) / b**2, rel=1e-9
    )

    pareto = expfam.make_family("pareto", scale=2.0)
    alpha = 3.0
    assert expfam.moment_suff_stat(pareto, [-(alpha + 1)], 1, 1) == pytest.approx(
        math.log(2.0) + 1.0 / alpha, rel=1e-12
    )


def test_loglog_interior_moments_match_quadrature():
    """E[(ln ln x)^m] off the face, where only the mp-derivative route exists."""
    spec = expfam.make_family("pareto_loglog")
    eta = np.array([-2.0, -2.5])
    for m in (1, 2, 3):
        want, _ = integrate.quad(
            lambda x: math.log(math.log(x)) ** m * expfam.density(spec, eta, x),
            spec.support.lo,
            spec.support.hi,
            limit=400,
        )
        got = expfam.moment_suff_stat(spec, eta, 2, m)
        assert got == pytest.approx(want, rel=1e-6)


def test_loglog_face_moments():
    spec = expfam.make_family("pareto_loglog")
    eta = np.array([-1.0, -3.0])  # Pareto(1, 2) in w = ln x
    assert expfam.moment_suff_stat(spec, eta, 1, 1) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(DerivativeDomainError):
        expfam.moment_suff_stat(spec, eta, 1, 2)  # E[w^2] needs alpha > 2


def test_raw_moment_matches_beta_closed_form():
    beta = expfam.make_family("beta")
    for a, b in ((2.0, 3.0), (0.5, 0.5)):
        for m in (1, 2, 3):
            assert expfam.raw_moment(beta, [a, b], 1, m) == pytest.approx(
                expfam.raw_moment_beta(a, b, m), rel=1e-10
            )
    assert expfam.raw_moment_beta(2.0, 3.0, 1) == pytest.approx(0.4, rel=1e-14)


def test_sampling_matches_moments(rng):
    beta = expfam.make_family("beta")
    draws = expfam.sample(beta, [2.0, 3.0], rng, size=40_000)
    assert np.all((draws > 0) & (draws < 1))
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 0.4) < 4 * se

    pareto = expfam.make_family("pareto", scale=1.5)
    draws = expfam.sample(pareto, [-3.5], rng, size=10_000)
    assert draws.min() > 1.5


def test_sample_each_uses_per_row_parameters(rng):
    gamma = expfam.make_family("gamma")
    etas = np.array([[2.0, 1.0]] * 3000 + [[2.0, 10.0]] * 3000)
    draws = expfam.sample_each(gamma, etas, rng)
    assert draws.shape == (6000,)
    assert draws[:3000].mean() > draws[3000:].mean()


def test_quantile_numeric_median():
    gamma = expfam.make_family("gamma")
    # eta = (1, 2) is Exp(rate 2); median ln(2)/2
    assert expfam.quantile_numeric(gamma, [1.0, 2.0], 0.5) == pytest.approx(
        math.log(2.0) / 2.0, rel=1e-6
    )


def test_parameter_path_eval_and_overrides():
    from crmkit.piecewise import Piece, PiecewiseFunction

    path = expfam.ParameterPath(
        [
            PiecewiseFunction.constant(2.0),
            PiecewiseFunction([Piece(0.0, 4.0, "affine", c0=1.0, c1=1.0)]),
        ]
    )
    np.testing.assert_allclose(path.eval(1.0), [2.0, 2.0])
    np.testing.assert_allclose(path.eval_many([0.5, 2.0]), [[2.0, 1.5], [2.0, 3.0]])

    bumped = path.with_override(1.0, [9.0, 9.0])
    np.testing.assert_allclose(bumped.eval(1.0), [9.0, 9.0])
    np.testing.assert_allclose(bumped.eval(1.5), [2.0, 2.5])

    shifted = path.shifted([1.0, -0.5])
    np.testing.assert_allclose(shifted.eval(1.0), [3.0, 1.5])

    assert not path.defined_at(5.0)
    with pytest.raises(CrmError):
        path.eval(5.0)


def test_parameter_path_left_piece_wins_at_shared_breakpoint():
    from crmkit.piecewise import Piece, PiecewiseFunction

    # pieces cover (lo, hi]: at z = 1 the piece ending there applies
    path = expfam.ParameterPath(
        [
            PiecewiseFunction(
                [Piece(0.0, 1.0, "const", c0=2.0), Piece(1.0, 3.0, "affine", c0=4.0, c1=1.0)]
            ),
            PiecewiseFunction.constant(3.0),
        ]
    )
    np.testing.assert_allclose(path.eval(1.0), [2.0, 3.0])
    np.testing.assert_allclose(path.eval(1.0 + 1e-12), [5.0, 3.0], rtol=1e-11)
    np.testing.assert_allclose(path.eval(3.0), [7.0, 3.0])
    assert not path.defined_at(0.0)


def test_constant_path_dimension_checks():
    path = expfam.ParameterPath.constant([1.0, 2.0, 3.0])
    assert path.dimension == 3
    np.testing.assert_allclose(path.eval(100.0), [1.0, 2.0, 3.0])
