import math

import numpy as np
import pytest
from scipy import integrate, special

from crmkit import expfam
from crmkit.errors import CrmError, DerivativeDomainError, NaturalSpaceError, SupportError


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
    with pytest.raises(CrmError, match=r"pareto does not accept parameter\(s\) \['form'\]"):
        expfam.make_family("pareto", form="loglog")


def test_natural_space_checks():
    beta = expfam.make_family("beta")
    with pytest.raises(NaturalSpaceError) as exc:
        beta.check_natural(np.array([0.0, 1.0]))
    assert exc.value.coord == 1

    gamma = expfam.make_family("gamma")
    gamma.check_natural([2.0, 1.0])
    for eta in ([0.0, 1.0], (2.0, -1.0)):
        with pytest.raises(NaturalSpaceError):
            gamma.check_natural(eta)

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
    bound = spec.at(eta)
    for m in (1, 2, 3):
        want, _ = integrate.quad(
            lambda x: math.log(math.log(x)) ** m * bound.density(x),
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


def _piecewise_path():
    from crmkit.piecewise import Piece, PiecewiseFunction

    return expfam.ParameterPath(
        [
            PiecewiseFunction(
                [Piece(0.0, 1.0, "const", c0=2.0), Piece(1.0, 3.0, "affine", c0=0.7, c1=1.3)]
            ),
            PiecewiseFunction([Piece(0.0, 3.0, "affine", c0=1.0, c1=0.25)]),
        ],
        atom_overrides={1.0: (9.0, 8.0), 0.25: (7.0, 6.0), 5.0: (4.0, 3.0)},
    )


def test_eval_many_equals_stacked_eval():
    path = _piecewise_path()
    rng = np.random.default_rng(11)
    # overrides, a shared breakpoint that is also an override, an override
    # outside the pieces, and points just beside them
    zs = np.concatenate(
        [[0.25, 1.0, 5.0, np.nextafter(1.0, 2.0), 3.0, 0.25], rng.uniform(0.0, 3.0, size=98)]
    )
    want = np.vstack([path.eval(float(z)) for z in zs])
    got = path.eval_many(zs)
    assert got.tobytes() == want.tobytes()
    assert got[0].tolist() == [7.0, 6.0] and got[2].tolist() == [4.0, 3.0]
    assert path.eval_many(zs.reshape(4, -1)).shape == (4, len(zs) // 4, 2)
    no_overrides = expfam.ParameterPath(path.components)
    want = np.vstack([no_overrides.eval(float(z)) for z in zs[3:]])
    assert no_overrides.eval_many(zs[3:]).tobytes() == want.tobytes()


def test_eval_many_raises_the_scalar_non_finite_error():
    from crmkit.piecewise import Piece, PiecewiseFunction

    path = expfam.ParameterPath(
        [
            PiecewiseFunction(
                [Piece(0.0, 1.0, "const", c0=1.0), Piece(1.0, math.inf, "const", c0=math.inf)]
            ),
            PiecewiseFunction.constant(2.0),
        ]
    )
    with pytest.raises(CrmError) as scalar:
        path.eval(2.5)
    with pytest.raises(CrmError) as batch:
        path.eval_many([0.5, 2.5, 3.5])
    assert str(batch.value) == str(scalar.value)
    assert "z=2.5" in str(batch.value)
    with pytest.raises(CrmError, match=r"^z=0\.0 outside the covered domain$"):
        path.eval_many([0.5, 0.0, 2.5])


# (family, valid etas, first failing eta, a later failing eta)
_BATCH_CASES = [
    ("beta", [[2.0, 3.0], [0.5, 0.5]], [1.0, -1.0], [0.0, 1.0]),
    ("gamma", [[2.0, 3.0], [0.1, 9.0]], [1.0, 0.0], [-1.0, 1.0]),
    ("pareto", [[-2.5], [-1.5]], [-1.0], [0.5]),
    # on the face eta_1 = -1 the second coordinate must be < -1; off it, it is free
    ("pareto_loglog", [[-2.0, -0.5], [-1.0, -2.0]], [-1.0, -0.5], [-0.5, -2.0]),
    ("lognormal", [[1.5], [0.25]], [0.0], [-1.0]),
    ("poisson", [[0.3], [-2.0]], [math.inf], [math.nan]),
    ("bernoulli", [[0.3], [-2.0]], [math.nan], [-math.inf]),
]


@pytest.mark.parametrize("name, good, first, later", _BATCH_CASES, ids=[c[0] for c in _BATCH_CASES])
def test_batch_check_raises_the_first_failing_rows_own_error(name, good, first, later):
    spec = expfam.make_family(name)
    spec.check_natural(np.array(good * 3).T)
    for eta in good:
        spec.check_natural(np.array(eta))
    with pytest.raises(NaturalSpaceError) as scalar:
        spec.check_natural(np.array(first))
    assert scalar.value.index is None
    rows = np.array(good + [first] + good + [later])
    with pytest.raises(NaturalSpaceError) as batch:
        spec.check_natural(rows.T)
    assert str(batch.value) == str(scalar.value)
    assert batch.value.coord == scalar.value.coord
    assert batch.value.index == len(good)


@pytest.mark.parametrize(
    "name, eta, error, message",
    [
        ("gamma", [-1.0, 2.0], NaturalSpaceError, "gamma: shape must be positive, got -1.0"),
        ("gamma", [1.0, np.nan], NaturalSpaceError, "gamma: natural parameter must be finite, got [ 1. nan]"),
        (
            "pareto_loglog",
            [-1.0, -0.5],
            NaturalSpaceError,
            "pareto(log-log): on the face eta_1 = -1 the second coordinate must be < -1, got -0.5",
        ),
        ("gamma", [1.0], CrmError, "gamma: natural parameter must have length 2, got shape (1,)"),
    ],
)
def test_binding_an_invalid_eta_raises_what_density_raised(name, eta, error, message):
    # the messages are those density raised before it went through the view
    spec = expfam.make_family(name)
    with pytest.raises(error) as exc:
        spec.at(eta)
    assert str(exc.value) == message
    with pytest.raises(error) as exc:
        expfam.density(spec, eta, 3.0)
    assert str(exc.value) == message


def test_bound_family_checks_the_support_at_each_point():
    gamma = expfam.make_family("gamma")
    bound = gamma.at([2.0, 3.0])
    assert bound.log_partition == expfam.log_partition(gamma, [2.0, 3.0])
    for x in (-1.0, 0.0, np.array([1.0, -1.0])):
        with pytest.raises(SupportError, match=r"gamma: point outside support \(0.0, inf\)"):
            bound.density(x)
        with pytest.raises(SupportError):
            bound.log_density(x)
    np.testing.assert_array_equal(bound.density(np.array([0.5, 2.0])), [bound.density(0.5), bound.density(2.0)])


# one eta per family; pareto_loglog on its face, where its draws are closed form
_SAMPLER_ETAS = {
    "beta": [2.0, 3.0],
    "gamma": [2.0, 3.0],
    "pareto": [-3.5],
    "pareto_loglog": [-1.0, -2.5],
    "lognormal": [1.5],
    "poisson": [0.3],
    "bernoulli": [0.3],
}


@pytest.mark.parametrize("name", sorted(_SAMPLER_ETAS))
def test_a_bound_family_draws_what_sample_each_draws_per_row(name):
    assert set(_SAMPLER_ETAS) == set(expfam.family_names())
    spec = expfam.make_family(name)
    eta = _SAMPLER_ETAS[name]
    draws = spec.at(eta).sample(np.random.default_rng(11), 257)
    rows = expfam.sample_each(spec, np.tile(eta, (257, 1)), np.random.default_rng(11))
    assert draws.dtype == rows.dtype == np.float64
    assert draws.tobytes() == rows.tobytes()
    first = spec.at(eta).sample(np.random.default_rng(11))
    assert type(first) is float and first == rows[0]
