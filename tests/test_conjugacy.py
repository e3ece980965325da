import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crmkit import conjugacy as conj
from crmkit import expfam, levy, verify
from crmkit.errors import CrmError, NaturalSpaceError, SupportError
from crmkit.expfam import ParameterPath, make_family
from crmkit.levy import BaseMeasure, LevyContext, check_conditions
from crmkit.piecewise import Piece, PiecewiseFunction


def test_pair_registry():
    assert conj.pair_names() == (
        "beta-bernoulli",
        "gamma-lognormal",
        "gamma-pareto",
        "gamma-poisson",
    )
    with pytest.raises(CrmError) as exc:
        conj.make_pair("gamma-weibull")
    assert str(exc.value) == (
        "unknown pair 'gamma-weibull'; registered: "
        "beta-bernoulli, gamma-lognormal, gamma-pareto, gamma-poisson"
    )


def test_fixed_hyperparameters():
    pair = conj.make_pair("gamma-pareto", x_m=2.0)
    assert pair.fixed["x_m"] == 2.0
    assert conj.make_pair("gamma-pareto").fixed["x_m"] == 1.0
    assert conj.make_pair("gamma-lognormal").fixed["mu"] == 0.0
    with pytest.raises(CrmError):
        conj.make_pair("beta-bernoulli", mu=1.0)


@pytest.mark.parametrize(
    "name, fixed, message",
    [
        ("gamma-lognormal", {"mu": "1.5"}, "gamma-lognormal: hyperparameter mu must be a number, got '1.5'"),
        ("gamma-pareto", {"x_m": None}, "gamma-pareto: hyperparameter x_m must be a number, got None"),
        ("gamma-pareto", {"x_m": False}, "gamma-pareto: hyperparameter x_m must be a number, got False"),
    ],
)
def test_a_hyperparameter_that_is_not_a_number_is_refused(name, fixed, message):
    with pytest.raises(CrmError) as exc:
        conj.make_pair(name, **fixed)
    assert str(exc.value) == message


@pytest.mark.parametrize("value", [2, np.int64(2), np.float64(2.0)])
def test_integer_and_numpy_hyperparameters_build_as_floats(value):
    for name, key in (("gamma-pareto", "x_m"), ("gamma-lognormal", "mu")):
        pair = conj.make_pair(name, **{key: value})
        assert (type(pair.fixed[key]), pair.fixed[key]) == (float, 2.0)
        assert pair.likelihood_family.fixed[key if key == "mu" else "scale"] == 2.0


@pytest.mark.parametrize("name", list(verify._PAIR_FIXTURES))
def test_update_identity_and_sequential(name):
    pair = conj.make_pair(name)
    eta, y1, y2 = verify._PAIR_FIXTURES[name]
    eta = np.asarray(eta)
    np.testing.assert_array_equal(pair.tau(eta, []), eta)
    np.testing.assert_array_equal(
        pair.tau(pair.tau(eta, y1), y2), pair.tau(eta, list(y1) + list(y2))
    )


@pytest.mark.parametrize("name", list(verify._PAIR_FIXTURES))
def test_update_permutation_invariant(name):
    pair = conj.make_pair(name)
    eta, y1, y2 = verify._PAIR_FIXTURES[name]
    ys = list(y1) + list(y2)
    np.testing.assert_allclose(
        pair.tau(eta, ys), pair.tau(eta, ys[::-1]), rtol=0, atol=1e-15
    )


@given(split=st.integers(0, 5))
@settings(max_examples=12, deadline=None)
def test_beta_bernoulli_sequential_any_split(split):
    pair = conj.make_pair("beta-bernoulli")
    ys = [1.0, 0.0, 1.0, 1.0, 0.0]
    eta = np.array([0.6, 1.4])
    np.testing.assert_array_equal(
        pair.tau(pair.tau(eta, ys[:split]), ys[split:]), pair.tau(eta, ys)
    )


def test_observation_support_validation():
    with pytest.raises(SupportError):
        conj.make_pair("beta-bernoulli").check_observation(0.5)
    with pytest.raises(SupportError):
        conj.make_pair("gamma-poisson").check_observation(1.5)
    with pytest.raises(SupportError):
        conj.make_pair("gamma-pareto", x_m=1.0).check_observation(0.5)
    with pytest.raises(SupportError):
        conj.make_pair("gamma-lognormal").check_observation(-2.0)


def test_shift_formulas_exact():
    # counts: (sum y, n - sum y)
    bb = conj.make_pair("beta-bernoulli")
    np.testing.assert_array_equal(bb.shift([1.0, 1.0, 0.0]), [2.0, 1.0])
    # (sum y, n)
    gp = conj.make_pair("gamma-poisson")
    np.testing.assert_array_equal(gp.shift([2.0, 0.0, 5.0]), [7.0, 3.0])
    # (n/2, sum (ln y - mu)^2 / 2)
    gl = conj.make_pair("gamma-lognormal", mu=0.0)
    np.testing.assert_allclose(
        gl.shift([math.e, math.e]), [1.0, 1.0], rtol=1e-15
    )
    # (n, sum ln(y / x_m))
    pa = conj.make_pair("gamma-pareto", x_m=1.0)
    np.testing.assert_allclose(pa.shift([math.e, math.e**2]), [2.0, 3.0], rtol=1e-15)


@pytest.mark.parametrize("name", list(verify._PAIR_FIXTURES))
def test_grid_bayes_total_variation(name):
    pair = conj.make_pair(name)
    eta, y1, _ = verify._PAIR_FIXTURES[name]
    assert conj.finite_dim_tv(pair, np.asarray(eta), y1) < 1e-3


# pair -> repr of the TV after the first observations, after both lists, and
# after none, as the per-grid-point likelihood loop computed them
_TV_PINS = {
    "beta-bernoulli": ("6.357304959539976e-14", "4.065499543509564e-16", "6.249999995267144e-08"),
    "gamma-lognormal": ("8.582644788366221e-11", "7.63997746543264e-11", "3.611762827480274e-06"),
    "gamma-pareto": ("4.67212073631331e-09", "7.325765194187105e-12", "3.611762827371766e-06"),
    "gamma-poisson": ("1.232652178727997e-14", "9.058275876114162e-16", "3.611762827480274e-06"),
}


@pytest.mark.parametrize("name", sorted(_TV_PINS))
def test_grid_bayes_keeps_its_bits_with_one_batch_of_likelihoods(name):
    pair = conj.make_pair(name)
    eta, y1, y2 = verify._PAIR_FIXTURES[name]
    got = [conj.finite_dim_tv(pair, np.asarray(eta), ys) for ys in (y1, list(y1) + list(y2), [])]
    assert tuple(map(repr, got)) == _TV_PINS[name]
    assert not hasattr(conj, "_likelihood_at")


def test_posterior_path_uniform_shift():
    pair = conj.make_pair("gamma-poisson")
    path = ParameterPath(
        [
            PiecewiseFunction.constant(2.0),
            PiecewiseFunction([Piece(0.0, 5.0, "affine", c0=3.0, c1=0.5)]),
        ]
    )
    post = conj.posterior_path(pair, path, [2.0, 5.0])
    np.testing.assert_allclose(post.eval(1.0), [2.0 + 7.0, 3.5 + 2.0])
    np.testing.assert_allclose(post.eval(4.0), [9.0, 7.0])


def test_posterior_path_per_atom():
    pair = conj.make_pair("beta-bernoulli")
    path = ParameterPath.constant([0.6, 1.4])
    post = conj.posterior_path(pair, path, {0.25: [1.0, 1.0, 0.0]}, mode="per-atom")
    np.testing.assert_allclose(post.eval(0.25), [2.6, 2.4])
    np.testing.assert_allclose(post.eval(0.7), [0.6, 1.4])


def _many_atom_prior():
    # an affine-then-ratio first coordinate with a breakpoint at 1, an affine
    # second, both on (0, 4], and an override at 1.5
    return ParameterPath(
        [
            PiecewiseFunction(
                [
                    Piece(0.0, 1.0, "affine", c0=2.0, c1=0.5),
                    Piece(1.0, 4.0, "ratio", c0=1.0, c1=2.0, d0=1.0, d1=0.5),
                ]
            ),
            PiecewiseFunction([Piece(0.0, 4.0, "affine", c0=3.0, c1=0.25)]),
        ],
        atom_overrides={1.5: (4.0, 5.0)},
    )


def test_posterior_path_per_atom_overrides_keep_their_bits_over_many_atoms():
    # the breakpoint, the prior's override and the domain's end, then 37 atoms
    rng = np.random.default_rng(29)
    locs = [1.0, 1.5, 4.0, *rng.uniform(0.0, 4.0, 37).tolist()]
    obs = {loc: rng.poisson(3.0, size=1 + i % 3).astype(float).tolist() for i, loc in enumerate(locs)}
    post = conj.posterior_path(conj.make_pair("gamma-poisson"), _many_atom_prior(), obs, mode="per-atom")
    keys = sorted(post.atom_overrides)
    assert keys == sorted(locs)
    bits = np.array([post.atom_overrides[loc] for loc in keys]).tobytes()
    assert hashlib.sha256(bits).hexdigest() == (
        "f2c444ef3e62d30603619e7e2bd6a392fa6743df31b5685e818f99984b560152"
    )
    # tau reads the prior's override at 1.5 and the left piece at the breakpoint
    assert post.atom_overrides[1.5].tolist() == [12.0, 7.0]
    assert post.atom_overrides[1.0].tolist() == [3.5, 4.25]


def test_posterior_path_refuses_an_undefined_atom_by_its_location():
    pair = conj.make_pair("gamma-poisson")
    with pytest.raises(CrmError, match=r"^prior path is undefined at observed atom 5\.0$"):
        conj.posterior_path(pair, _many_atom_prior(), {0.5: [1.0], 5.0: [2.0]}, mode="per-atom")


def test_posterior_path_empty_observations_is_prior():
    pair = conj.make_pair("gamma-lognormal")
    path = ParameterPath.constant([2.0, 3.0])
    post = conj.posterior_path(pair, path, [])
    np.testing.assert_array_equal(post.eval(1.0), path.eval(1.0))


def test_posterior_path_checks_near_the_lower_end_of_the_domain():
    # the shape dips below 0 only on about (0.005, 0.015); the grid runs from
    # 1e-3 to 10, and its geometric points put the first hit at z ~ 0.011
    pair = conj.make_pair("gamma-poisson")

    def dip(z):
        return 2.0 - 3.0 * math.exp(-(((z - 0.01) / 0.004) ** 2))

    path = ParameterPath([PiecewiseFunction.from_callable(dip), PiecewiseFunction.constant(3.0)])
    want = (
        "updated path exits the natural space at z=0.011052951411260215: "
        "gamma: shape must be positive, got -0.7991564992083084"
    )
    with pytest.raises(NaturalSpaceError, match=f"^{re.escape(want)}$") as exc:
        conj.posterior_path(pair, path, [0.0])
    # the error names the coordinate and the grid position, and keeps its cause
    assert exc.value.coord == 1
    assert levy._default_grid(path)[exc.value.index] == 0.011052951411260215
    assert isinstance(exc.value.__cause__, NaturalSpaceError)
    assert exc.value.__cause__.index == exc.value.index


@pytest.mark.parametrize("name", list(verify._PAIR_FIXTURES))
def test_posterior_keeps_theorem_conditions(name):
    pair = conj.make_pair(name)
    eta, y1, _ = verify._PAIR_FIXTURES[name]
    path = ParameterPath.constant(eta)
    post = conj.posterior_path(pair, path, y1)
    k = 1 if name == "beta-bernoulli" else 2
    report = check_conditions(pair.prior_family, post, k, grid=np.linspace(0.05, 3.0, 21))
    assert report.passed


def test_posterior_process_params_beta_bernoulli():
    pair = conj.make_pair("beta-bernoulli")
    c_post, base_post = conj.posterior_process_params(pair, 2.0, 0.3, [1.0, 1.0, 0.0])
    assert c_post == 5.0
    assert base_post == pytest.approx(0.52, abs=0)


def test_posterior_process_params_gamma_pareto():
    pair = conj.make_pair("gamma-pareto")
    c_post, base_post = conj.posterior_process_params(pair, 2.0, 0.5, [math.e, math.e**2])
    assert c_post == 4.0
    assert base_post == pytest.approx(1.0, rel=1e-15)


def test_process_params_match_natural_form_at_random_inputs():
    rng = np.random.default_rng(606)
    pair = conj.make_pair("beta-bernoulli")
    for _ in range(100):
        c = rng.uniform(0.5, 10.0)
        b0 = rng.uniform(0.05, 0.95)
        ys = list(rng.integers(0, 2, size=rng.integers(0, 6)).astype(float))
        c_post, b_post = conj.posterior_process_params(pair, c, b0, ys)
        eta_post = pair.tau(np.array([c * b0, c * (1.0 - b0)]), ys)
        np.testing.assert_allclose(
            [c_post * b_post, c_post * (1.0 - b_post)], eta_post, rtol=1e-12
        )


def test_posterior_levy_density_matches_updated_family():
    pair = conj.make_pair("gamma-poisson")
    ctx = LevyContext.build(
        pair.prior_family,
        ParameterPath.constant([2.0, 3.0]),
        BaseMeasure.lebesgue(1.0),
        k=2,
    )
    ys = [2.0, 0.0, 5.0]
    post_ctx = conj.posterior_context(pair, ctx, ys)
    eta_post = pair.tau(np.array([2.0, 3.0]), ys)
    s = 0.8
    want = expfam.density(pair.prior_family, eta_post, s) * 1.0
    got = conj.posterior_levy_density(pair, ctx, ys, t=1.0, u=s)
    assert got == pytest.approx(want * 1.0, rel=1e-9)
    assert post_ctx.path.eval(0.5) == pytest.approx(eta_post)


def test_posterior_levy_density_over_an_array_of_u_builds_one_context(monkeypatch):
    pair = conj.make_pair("gamma-poisson")
    ctx = LevyContext.build(
        pair.prior_family, ParameterPath.constant([2.0, 3.0]), BaseMeasure.lebesgue(1.0), k=2
    )
    ys, us = [2.0, 0.0, 5.0], (0.2, 0.8, 2.0)
    singles = [conj.posterior_levy_density(pair, ctx, ys, t=1.0, u=u) for u in us]
    build, calls = LevyContext.build, []

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(LevyContext, "build", counted)
    got = conj.posterior_levy_density(pair, ctx, ys, t=1.0, u=np.array(us))
    assert len(calls) == 1
    assert got.tolist() == singles


def test_density_ratio_identity():
    # p(x | tau(eta)) / p(x | eta) = exp(<delta, T(x)> - (A(tau) - A(eta)))
    pair = conj.make_pair("gamma-lognormal")
    eta = np.array([2.0, 3.0])
    ys = [1.5, 0.7]
    eta_post = pair.tau(eta, ys)
    delta = eta_post - eta
    x = 0.9
    stats = np.array([float(s.value(x)) for s in pair.prior_family.stats])
    signs = np.array([s.sign for s in pair.prior_family.stats])
    lhs = expfam.density(pair.prior_family, eta_post, x) / expfam.density(
        pair.prior_family, eta, x
    )
    da = pair.prior_family.at(eta_post).log_partition - pair.prior_family.at(eta).log_partition
    rhs = math.exp(float(np.dot(signs * delta, stats)) - da)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_family_mismatch_rejected():
    pair = conj.make_pair("beta-bernoulli")
    ctx = LevyContext.build(
        make_family("gamma"),
        ParameterPath.constant([2.0, 3.0]),
        BaseMeasure.lebesgue(1.0),
        k=2,
    )
    with pytest.raises(CrmError, match="family"):
        conj.posterior_context(pair, ctx, [1.0])


def test_an_infinite_observation_or_concentration_is_refused():
    # tau used to return [inf, 4.0], and the process update (inf, nan) with a RuntimeWarning
    with pytest.raises(SupportError, match=r"^gamma-poisson: observation inf outside the poisson support$"):
        conj.make_pair("gamma-poisson").tau([2.0, 3.0], [math.inf])
    with pytest.raises(NaturalSpaceError, match=r"^beta: natural parameter must be finite, got \[inf inf\]$"):
        conj.posterior_process_params(conj.make_pair("beta-bernoulli"), math.inf, 0.3, [1.0])
    with pytest.raises(CrmError, match="^gamma-lognormal: hyperparameter mu must be a number, got 10{400}$"):
        conj.make_pair("gamma-lognormal", mu=10**400)


# refusal -> (call, its exact message)
_CONJUGACY_REFUSALS = {
    "path-dimension": (
        lambda: conj.posterior_path(conj.make_pair("gamma-poisson"), ParameterPath.constant([1.0]), []),
        "path dimension 1 != gamma dimension 2",
    ),
    "unknown-mode": (
        lambda: conj.posterior_path(conj.make_pair("gamma-poisson"), ParameterPath.constant([1.0, 2.0]), [], "both"),
        "mode must be 'uniform' or 'per-atom', got 'both'",
    ),
    "concentration": (
        lambda: conj.posterior_process_params(conj.make_pair("gamma-poisson"), 0.0, 0.5, []),
        "concentration must be positive, got 0.0",
    ),
    "beta-base-increment": (
        lambda: conj.posterior_process_params(conj.make_pair("beta-bernoulli"), 2.0, 1.5, []),
        "base increment must lie in (0, 1), got 1.5",
    ),
    "gamma-base-increment": (
        lambda: conj.posterior_process_params(conj.make_pair("gamma-poisson"), 2.0, -1.0, []),
        "base increment must be positive, got -1.0",
    ),
}


@pytest.mark.parametrize("case", sorted(_CONJUGACY_REFUSALS))
def test_a_conjugacy_refusal_names_its_cause(case):
    call, message = _CONJUGACY_REFUSALS[case]
    with pytest.raises(CrmError) as exc:
        call()
    assert str(exc.value) == message
